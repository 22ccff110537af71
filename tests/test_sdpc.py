"""Dirty-paper rate evaluation, optimal covariances and the rate identity."""

import numpy as np
import pytest

from secrecy_region import (
    ChannelPair,
    CovarianceInvalid,
    CovariancePair,
    ParamOutOfRange,
    SweepConfig,
    capacity_region,
    gamma1,
    gamma2,
    linalg,
    optimal_covariances,
    rate_scale,
    region_contains,
    sato,
    sato_f1,
    sato_f2,
    sdpc_rates,
    spectrum,
    tightness_rho,
    verify_identity_eq9,
)
from secrecy_region.regions import RatePair
from secrecy_region.sdpc import rate_bounds_raw

import _oracles


def make(h, g, power=10.0, mode="complex"):
    return ChannelPair(np.asarray(h, dtype=complex), np.asarray(g, dtype=complex), power, mode)


class TestSdpcRates:
    def test_zero_covariances(self, example_channel):
        zero = np.zeros((2, 2), dtype=complex)
        assert sdpc_rates(example_channel, CovariancePair(zero, zero)) == RatePair(0.0, 0.0)

    def test_full_power_user1(self, example_channel):
        spec = spectrum(example_channel)
        cov = optimal_covariances(example_channel, 1.0, spec)
        rates = sdpc_rates(example_channel, cov)
        scale = rate_scale(example_channel)
        assert abs(rates.r1 - scale * np.log2(spec.lambda1)) <= 1e-9
        assert rates.r2 <= 1e-12

    def test_half_alpha_matches_gamma_rates(self, example_channel):
        spec = spectrum(example_channel)
        cov = optimal_covariances(example_channel, 0.5, spec)
        rates = sdpc_rates(example_channel, cov)
        scale = rate_scale(example_channel)
        want_r1 = scale * np.log2(gamma1(example_channel, spec, 0.5))
        want_r2 = scale * np.log2(gamma2(example_channel, spec, 0.5)[0])
        assert abs(rates.r1 - want_r1) <= 1e-9
        assert abs(rates.r2 - want_r2) <= 1e-9

    def test_r1_ignores_k_u2_bitwise(self, example_channel):
        spec = spectrum(example_channel)
        cov = optimal_covariances(example_channel, 0.4, spec)
        k_u1 = np.array(cov.k_u1)
        r_before = sdpc_rates(example_channel, CovariancePair(k_u1, np.array(cov.k_u2)))
        perturbed = CovariancePair(k_u1, 0.5 * cov.k_u2 + 0.1 * np.eye(2, dtype=complex))
        r_after = sdpc_rates(example_channel, perturbed)
        assert r_before.r1 == r_after.r1

    def test_rejects_non_psd(self, example_channel):
        bad = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(CovarianceInvalid):
            sdpc_rates(example_channel, CovariancePair(bad, np.zeros((2, 2))))

    @pytest.mark.parametrize(
        "bad", [z for x in (np.nan, np.inf, -np.inf) for z in (complex(x, 0), complex(0, x))]
    )
    def test_rejects_non_finite_entries(self, example_channel, bad):
        eye = np.eye(2, dtype=complex)
        k = 2.0 * eye
        k[0, 1] = k[1, 0] = bad
        for pair in ((k, eye), (eye, k), (np.diag([bad, 1.0]), eye)):
            with pytest.raises(CovarianceInvalid, match="finite"):
                sdpc_rates(example_channel, CovariancePair(*pair))

    def test_rejects_trace_overrun(self, example_channel):
        k = np.eye(2, dtype=complex) * 6.0  # total trace 24 > 10
        with pytest.raises(CovarianceInvalid):
            sdpc_rates(example_channel, CovariancePair(k, k))

    @pytest.mark.parametrize("power", [1e8, 1e10, 1e12])
    def test_dense_own_covariances_accepted_at_high_power(self, power):
        rng = np.random.default_rng(int(np.log10(power)))
        for t in range(2, 9):
            h = rng.standard_normal(t) + 1j * rng.standard_normal(t)
            g = rng.standard_normal(t) + 1j * rng.standard_normal(t)
            ch = make(h, g, power)
            for alpha in (0.2, 0.5, 0.8):
                cov = optimal_covariances(ch, alpha)
                dense = CovariancePair(np.array(cov.k_u1), np.array(cov.k_u2))
                sdpc_rates(ch, dense)

    def test_negative_bound_clamps_to_zero(self):
        # covariance aligned with the eavesdropper direction: raw r1 < 0
        ch = make([1, 0], [0, 1], power=4.0)
        k1 = 2.0 * np.outer([0, 1], [0, 1]).astype(complex)
        cov = CovariancePair(k1, np.zeros((2, 2), dtype=complex))
        raw1, _ = rate_bounds_raw(ch, cov)
        assert raw1 < 0.0
        assert sdpc_rates(ch, cov).r1 == 0.0


class TestOptimalCovariances:
    def test_traces_exact(self, example_channel):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            cov = optimal_covariances(example_channel, alpha)
            assert abs(np.trace(cov.k_u1).real - alpha * 10.0) <= 1e-12 * 10.0
            assert abs(np.trace(cov.k_u2).real - (1 - alpha) * 10.0) <= 1e-12 * 10.0

    def test_alpha_one_zeroes_k_u2(self, example_channel):
        cov = optimal_covariances(example_channel, 1.0)
        assert np.all(cov.k_u2 == 0.0)

    def test_alpha_zero_uses_second_eigvec(self, example_channel):
        spec = spectrum(example_channel)
        cov = optimal_covariances(example_channel, 0.0, spec)
        assert np.all(cov.k_u1 == 0.0)
        # K_U2 = P c2 c2^H with c2 = e2 up to phase
        ray = spec.e2.conj() @ cov.k_u2 @ spec.e2
        assert abs(ray.real - 10.0) <= 1e-9 * 10.0

    def test_rank_one(self, example_channel):
        cov = optimal_covariances(example_channel, 0.6)
        for k in (cov.k_u1, cov.k_u2):
            vals = np.linalg.eigvalsh(k)
            assert vals[0] >= -1e-12
            assert np.sum(vals > 1e-9) == 1

    def test_param_out_of_range(self, example_channel):
        with pytest.raises(ParamOutOfRange):
            optimal_covariances(example_channel, 1.2)

    def test_dense_views_are_cached_read_only_arrays(self, example_channel):
        spec = spectrum(example_channel)
        cov = optimal_covariances(example_channel, 0.3, spec)
        _, c2 = gamma2(example_channel, spec, 0.3)
        k_u1 = (0.3 * 10.0) * np.outer(spec.e1, spec.e1.conj())
        k_u2 = ((1.0 - 0.3) * 10.0) * np.outer(c2, c2.conj())
        for name, want in (("k_u1", k_u1), ("k_u2", k_u2), ("total", k_u1 + k_u2)):
            k = getattr(cov, name)
            assert type(k) is np.ndarray
            assert getattr(cov, name) is k
            assert k.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                k[0, 0] = 1.0  # read-only: the factors could not follow

    def test_total_builds_each_outer_product_once(self, example_channel, monkeypatch):
        calls = []
        dense = CovariancePair._dense
        monkeypatch.setattr(
            CovariancePair, "_dense", lambda self, i: calls.append(i) or dense(self, i)
        )
        cov = optimal_covariances(example_channel, 0.3)
        total, k_u1, k_u2 = cov.total, cov.k_u1, cov.k_u2
        assert sorted(calls) == [0, 1]
        assert total.tobytes() == (k_u1 + k_u2).tobytes()

    def test_compares_by_identity_and_is_read_only(self, example_channel):
        a = optimal_covariances(example_channel, 0.3)
        b = optimal_covariances(example_channel, 0.3)
        assert a == a and a != b
        zero = np.zeros((2, 2), dtype=complex)
        dense = CovariancePair(zero, zero)
        assert dense == dense and dense != CovariancePair(zero, zero)
        for cov in (a, dense):
            with pytest.raises(AttributeError):
                cov.k_u1 = zero
            for k in (cov.k_u1, cov.k_u2, cov.total):
                with pytest.raises(ValueError):
                    k[0, 0] = 1.0

    @pytest.mark.parametrize("power", [1e8, 1e10, 1e12])
    def test_high_power_rates_from_factors(self, power):
        # dense t x t covariances at this scale lose ~eps * P in g^H K g,
        # which is O(1) by design; the factors keep the rates exact
        rng = np.random.default_rng(33)
        for dim in (2, 3, 8):
            h, g, _ = _oracles.random_channel(rng, dim, power, "complex")
            ch = make(h, g, power)
            spec = spectrum(ch)
            for alpha in (0.25, 0.5, 0.75):
                rates = sdpc_rates(ch, optimal_covariances(ch, alpha, spec))
                g1 = gamma1(ch, spec, alpha)
                g2, _ = gamma2(ch, spec, alpha)
                assert abs(2.0**rates.r1 - g1) <= 1e-9 * g1
                assert abs(2.0**rates.r2 - g2) <= 1e-9 * g2
                assert verify_identity_eq9(ch, alpha, spec) <= 1e-9 * g2


class TestIdentity:
    def test_alpha_one_exact(self, example_channel):
        assert verify_identity_eq9(example_channel, 1.0) == 0.0

    def test_alpha_zero(self, example_channel):
        assert verify_identity_eq9(example_channel, 0.0) <= 1e-10

    def test_example_grid(self, example_channel):
        spec = spectrum(example_channel)
        gaps = [
            verify_identity_eq9(example_channel, a, spec)
            for a in np.linspace(0.0, 1.0, 101)
        ]
        assert max(gaps) <= 1e-9

    def test_random_channels(self):
        rng = np.random.default_rng(31)
        for i in range(50):
            dim = 2 if i % 2 else 3
            h, g, p = _oracles.random_channel(rng, dim, (0.1, 1.0, 10.0)[i % 3], "complex")
            ch = make(h, g, p)
            spec = spectrum(ch)
            alpha = float(rng.uniform())
            assert verify_identity_eq9(ch, alpha, spec) <= 1e-9


class TestAchievability:
    def test_random_covariances_inside_capacity_hull(self, example_channel):
        rng = np.random.default_rng(32)
        hull = capacity_region(
            example_channel, SweepConfig(grid_points=257, sagitta_tol=1e-7)
        )
        for _ in range(40):
            split = rng.uniform()
            k1 = _oracles.random_psd(rng, 2, split * 10.0 * rng.uniform())
            k2 = _oracles.random_psd(rng, 2, (1 - split) * 10.0 * rng.uniform())
            corner = sdpc_rates(example_channel, CovariancePair(k1, k2))
            assert region_contains(hull, corner, tol=1e-6)


def _forms_channels():
    """Seeded complex channels (t = 2, 3, 8), with parallel pairs (s = 0; for
    g = 0.5j h, c2 is the fallback vector orthogonal to the plane) and h = g."""
    out = []
    for t in (2, 3, 8):
        h, g, _ = _oracles.random_channel(np.random.default_rng(900 + t), t, 1.0, "complex")
        out += [(h, g), (g, 2.0 * g), (h, 0.5j * h), (h, h)]
    return out


class TestBoundaryForms:
    """The optimal pair's forms from c2's plane coefficients against
    projections of the lifted vectors."""

    #: largest measured deviation over these cases: 4.5 ulps of P |x| |y|
    ULPS = 8

    @pytest.mark.parametrize("power", [0.0, 1e-12, 10.0, 1e12])
    def test_forms_match_lifted_projections(self, power):
        eps = np.finfo(float).eps
        alphas = np.array([0.0, 0.3, 1.0])
        for h, g in _forms_channels():
            ch = make(h, g, power)
            spec = spectrum(ch)
            nh, ng = np.linalg.norm(h), np.linalg.norm(g)
            kx = sato._kx_forms(ch, spec, alphas)[0]
            for i, a in enumerate(alphas.tolist()):
                cov = optimal_covariances(ch, a, spec)
                c2 = gamma2(ch, spec, a)[1]
                # the pair's own forms against its factors' projections
                for own, x, size in zip(cov._own[1:], (ch.h, ch.g), (nh * nh, ng * ng)):
                    for u, v in zip(own, cov.forms(x)):
                        assert abs(u - v) <= self.ULPS * eps * power * size
                w1, w2 = a * power, (1.0 - a) * power
                proj = [(np.vdot(v, h), np.vdot(v, g)) for v in (spec.e1, c2)]
                want = (
                    w1 * abs(proj[0][0]) ** 2 + w2 * abs(proj[1][0]) ** 2,
                    w1 * abs(proj[0][1]) ** 2 + w2 * abs(proj[1][1]) ** 2,
                    w1 * np.conj(proj[0][1]) * proj[0][0] + w2 * np.conj(proj[1][1]) * proj[1][0],
                )
                for form, ref, size in zip(kx, want, (nh * nh, ng * ng, nh * ng)):
                    assert abs(form[i] - ref) <= self.ULPS * eps * power * size

    def test_fallback_c2_has_zero_forms(self):
        # h = 2g: user 2's residual pencil tops out at the orthocomplement's 1
        h, _, _ = _oracles.random_channel(np.random.default_rng(7), 3, 1.0, "complex")
        ch = make(2.0 * h, h)
        spec = spectrum(ch)
        cov = optimal_covariances(ch, 0.3, spec)
        (_, ht), (_, gt) = cov._own[1:]
        assert ht == cov._own[1][0] and gt == cov._own[2][0]
        c2 = cov._factors[1][1]
        assert abs(np.linalg.norm(c2) - 1.0) <= 1e-15
        assert abs(np.vdot(c2, ch.h)) <= 1e-15 * np.linalg.norm(ch.h)

    def test_pair_on_another_channel_projects_its_factors(self):
        h, g, _ = _oracles.random_channel(np.random.default_rng(11), 4, 10.0, "complex")
        ch, twin = make(h, g), make(h, g)
        cov = optimal_covariances(ch, 0.4)
        own, projected = rate_bounds_raw(ch, cov), rate_bounds_raw(twin, cov)
        assert own != projected  # a different route, at rounding level
        np.testing.assert_allclose(own, projected, rtol=1e-14)

    @pytest.mark.parametrize("dim", [None, 2, 3, 8])
    def test_batched_identity_gaps_match_scalar_bitwise(self, example_channel, dim):
        ch = example_channel
        if dim is not None:
            rng = np.random.default_rng(910 + dim)
            ch = make(*_oracles.random_channel(rng, dim, 10.0, "complex")[:2])
        spec = spectrum(ch)
        alphas = np.concatenate([np.linspace(0.0, 1.0, 65), [1e-9, 0.123456789]])
        batch = verify_identity_eq9(ch, alphas, spec)
        assert batch.shape == alphas.shape
        for a, gap in zip(alphas.tolist(), batch):
            assert np.float64(verify_identity_eq9(ch, a, spec)).tobytes() == gap.tobytes()

    def test_point_api_lifts_only_at_the_edge(self, monkeypatch):
        lifts, solves = [], []
        lift, eigvalsh = linalg.lift, np.linalg.eigvalsh

        def counted_lift(*args):
            lifts.append(1)
            return lift(*args)

        def counted_eigvalsh(*args, **kwargs):
            solves.append(1)
            return eigvalsh(*args, **kwargs)

        ch = make(*_oracles.random_channel(np.random.default_rng(12), 4, 10.0, "complex")[:2])
        spec = spectrum(ch)  # e1 and e2 leave the package: lifted here
        rho = tightness_rho(spec, ch.h, ch.g)
        monkeypatch.setattr(linalg, "lift", counted_lift)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        verify_identity_eq9(ch, 0.3, spec)
        verify_identity_eq9(ch, np.linspace(0.0, 1.0, 9), spec)
        capacity_region(ch)
        assert lifts == []
        cov = optimal_covariances(ch, 0.3, spec)
        assert len(lifts) == 1
        sdpc_rates(ch, cov)
        assert len(lifts) == 1 and solves == []
        k = cov.total
        for fn in (sato_f1, sato_f2, sato_f1):
            fn(ch, rho, k)
            assert len(solves) == 1
            solves.clear()
