"""Channel instances, pencil spectrum and feasibility predicates."""

import itertools
import math

import numpy as np
import pytest

from secrecy_region import (
    BothZeroVectors,
    ChannelPair,
    CovariancePair,
    channel_from_dict,
    channel_to_dict,
    is_secrecy_feasible,
    linear_independence_margin,
    max_rates,
    optimal_covariances,
    rate_scale,
    sato_f1,
    sato_f2,
    sdpc_rates,
    spectrum,
    tightness_rho,
    verify_identity_eq9,
)
from secrecy_region import cli, linalg

import _oracles
import golden


def make(h, g, power=10.0, mode="complex"):
    return ChannelPair(np.asarray(h, dtype=complex), np.asarray(g, dtype=complex), power, mode)


class TestChannelPair:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make([1, 0], [1, 0, 0])

    def test_rejects_short_vectors(self):
        with pytest.raises(ValueError):
            make([1], [1])

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            make([1, 0], [0, 1], power=-1.0)

    def test_real_mode_requires_real_entries(self):
        with pytest.raises(ValueError):
            make([1 + 1j, 0], [0, 1], mode="real")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make([np.inf, 0], [0, 1])

    def test_swapped(self):
        ch = make([1, 0], [0, 2])
        sw = ch.swapped()
        np.testing.assert_array_equal(sw.h, ch.g)
        np.testing.assert_array_equal(sw.g, ch.h)
        # one twin per channel, and the twin's twin is the channel
        assert ch.swapped() is sw and sw.swapped() is ch
        # the twin's own spectrum is the exchanged spectrum, bit for bit
        rng = np.random.default_rng(43)
        pairs = [
            (golden.EXAMPLE_H, golden.EXAMPLE_G_TEXT),
            _oracles.random_channel(rng, 3, 1.0, "complex")[:2],
            _oracles.random_channel(rng, 8, 1.0, "complex")[:2],
            ([1.0, 2.0j, -0.5], [-2.0, -4.0j, 1.0]),  # parallel
            ([1.0, 2.0j], [0.0, 0.0]),
            ([0.0, 0.0, 0.0], [0.3, 1.0 - 1.0j, 2.0]),
        ]
        for (h, g), power in itertools.product(pairs, [0.0, 1e-3, 10.0, 1e12]):
            ch = make(h, g, power)
            want, got = spectrum(ch).swapped(), spectrum(ch.swapped())
            for name in ("lambda1", "lambda2"):
                assert np.float64(getattr(got, name)).tobytes() == np.float64(
                    getattr(want, name)
                ).tobytes()
            assert got.e1.tobytes() == want.e1.tobytes()
            assert got.e2.tobytes() == want.e2.tobytes()
            assert (got.degenerate1, got.degenerate2) == (
                want.degenerate1, want.degenerate2
            )

    def test_keeps_read_only_copies(self, example_channel):
        h = np.array(golden.EXAMPLE_H, dtype=complex)
        g = np.array(golden.EXAMPLE_G_TEXT, dtype=complex)
        ch = ChannelPair(h, g, golden.EXAMPLE_POWER, "real")
        h[0] = 0.1
        g[1] = 0.0
        assert np.array_equal(ch.h, golden.EXAMPLE_H)
        assert np.array_equal(ch.g, golden.EXAMPLE_G_TEXT)
        assert spectrum(ch).lambda1 == spectrum(example_channel).lambda1
        assert not ch.h.flags.writeable and not ch.g.flags.writeable
        with pytest.raises(ValueError):
            ch.h[0] = 0.1

    def test_compares_by_identity(self):
        a, b = make([1, 0], [0, 1]), make([1, 0], [0, 1])
        assert a == a
        assert a != b

    def test_gram_work_runs_once(self, monkeypatch):
        # the fading-ensemble op's calls on one channel normalize h and g
        # once, build its two span planes once from those directions, never
        # re-validate through span_plane, and solve its spectrum once
        calls = []
        for name in ("_direction", "_plane", "span_plane"):

            def counted(*args, _name=name, _fn=getattr(linalg, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(linalg, name, counted)
        ch = make(*_oracles.random_channel(np.random.default_rng(8), 4, 10.0, "complex"))
        spec = spectrum(ch)
        is_secrecy_feasible(ch)
        max_rates(ch)
        rho = tightness_rho(spec, ch.h, ch.g)
        for a in (0.25, 0.5, 0.75):
            cov = optimal_covariances(ch, a, spec)
            sdpc_rates(ch, cov)
            verify_identity_eq9(ch, a, spec)
            sato_f1(ch, rho, cov.total)
            sato_f2(ch, rho, cov.total)
        assert sorted(calls) == ["_direction", "_direction", "_plane", "_plane"]
        assert spectrum(ch) is spec
        assert not spec.e1.flags.writeable and not spec.e2.flags.writeable

    def test_planes_match_span_plane_bitwise(self):
        # the channel builds both planes from one pair of directions; they
        # must carry the bits of the checked linalg.span_plane, field by field
        rng = np.random.default_rng(81)
        pairs = []
        for t in (2, 3, 8):
            h, g, _ = _oracles.random_channel(rng, t, 1.0, "complex")
            zero = np.zeros(t, dtype=complex)
            pairs += [(h, g), (zero, g), (h, zero), (zero, zero), (h, h), (h, 2.0 * h),
                      (h, -0.25 * h), (1e150 * h, 1e150 * g), (1e-150 * h, 1e-150 * g)]
        for h, g in pairs:
            ch = make(h, g)
            for got, want in ((ch.plane_hg, linalg.span_plane(h, g)),
                              (ch.plane_gh, linalg.span_plane(g, h))):
                assert (got.nu, got.nw, got.c, got.s) == (want.nu, want.nw, want.c, want.s)
                assert np.array_equal(got.q1, want.q1) and np.array_equal(got.q2, want.q2)
                assert not got.q1.flags.writeable and not got.q2.flags.writeable

    def test_point_api_builds_no_dense_covariance(self, monkeypatch):
        # the fading-ensemble op's sdpc calls work on the covariance
        # factors; sato's dense K = cov.total is built once per pair
        builds = []
        dense = CovariancePair._dense

        def counted(cov, index):
            builds.append(index)
            return dense(cov, index)

        monkeypatch.setattr(CovariancePair, "_dense", counted)
        ch = make(*_oracles.random_channel(np.random.default_rng(8), 4, 10.0, "complex"))
        spec = spectrum(ch)
        rho = tightness_rho(spec, ch.h, ch.g)
        covs = []
        for a in (0.25, 0.5, 0.75):
            covs.append(optimal_covariances(ch, a, spec))
            sdpc_rates(ch, covs[-1])
            verify_identity_eq9(ch, a, spec)
        assert builds == []
        for cov in covs:
            sato_f1(ch, rho, cov.total)
            sato_f2(ch, rho, cov.total)
        assert builds == [0, 1] * 3


class TestSpectrum:
    def test_compares_by_identity(self):
        a, b = spectrum(make([1, 0], [0, 1])), spectrum(make([1, 0], [0, 1]))
        assert a == a
        assert a != b

    def test_identical_channels(self):
        spec = spectrum(make([1, 0], [1, 0]))
        assert abs(spec.lambda1 - 1.0) <= 1e-12
        assert abs(spec.lambda2 - 1.0) <= 1e-12

    def test_orthogonal_channels_decouple(self):
        spec = spectrum(make([1, 0], [0, 1], power=3.0))
        assert abs(spec.lambda1 - 4.0) <= 1e-12
        assert abs(spec.lambda2 - 4.0) <= 1e-12
        np.testing.assert_allclose(np.abs(spec.e1), [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(np.abs(spec.e2), [0.0, 1.0], atol=1e-9)

    def test_example_matches_golden(self, example_channel):
        spec = spectrum(example_channel)
        assert abs(spec.lambda1 - golden.LAMBDA1_TEXT) <= 1e-9 * golden.LAMBDA1_TEXT
        assert abs(spec.lambda2 - golden.LAMBDA2_TEXT) <= 1e-9 * golden.LAMBDA2_TEXT
        assert spec.lambda1 > 1.0 and spec.lambda2 > 1.0

    def test_matrix_variant_matches_golden(self, matrix_variant_channel):
        spec = spectrum(matrix_variant_channel)
        assert abs(spec.lambda1 - golden.LAMBDA1_MATRIX) <= 1e-9 * golden.LAMBDA1_MATRIX
        assert abs(spec.lambda2 - golden.LAMBDA2_MATRIX) <= 1e-9 * golden.LAMBDA2_MATRIX

    def test_golden_consistent_with_oracle(self, example_channel):
        lam1, _, lam2, _ = _oracles.channel_pencil_oracle(
            example_channel.h, example_channel.g, example_channel.power
        )
        assert abs(lam1 - golden.LAMBDA1_TEXT) <= 1e-12 * golden.LAMBDA1_TEXT
        assert abs(lam2 - golden.LAMBDA2_TEXT) <= 1e-12 * golden.LAMBDA2_TEXT

    def test_zero_power_gives_unit_eigenvalues_exactly(self):
        spec = spectrum(make([1.2, -0.3], [0.4, 2.0], power=0.0))
        assert spec.lambda1 == 1.0
        assert spec.lambda2 == 1.0

    def test_swap_symmetry_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            h, g, p = _oracles.random_channel(rng, 3, 5.0, "complex")
            a = spectrum(make(h, g, p))
            b = spectrum(make(g, h, p))
            assert a.lambda1 == b.lambda2 and a.lambda2 == b.lambda1
            assert np.array_equal(a.e1, b.e2) and np.array_equal(a.e2, b.e1)

    def test_residual_contract(self, example_channel):
        # ||(A - lambda B) e|| of each top pair, the values `spectrum` prints
        ch, spec = example_channel, spectrum(example_channel)
        p = ch.power
        res1 = linalg.rank_one_residual(ch.h, ch.g, p, p, spec.lambda1, spec.e1)
        res2 = linalg.rank_one_residual(ch.g, ch.h, p, p, spec.lambda2, spec.e2)
        assert res1 <= 1e-9 and res2 <= 1e-9
        payload = cli._spectrum_payload(ch)
        assert (payload["residual1"], payload["residual2"]) == (res1, res2)


class TestFeasibility:
    def test_degraded_channel(self):
        h = np.array([1.0, 1.0])
        ch = make(h, 0.5 * h)
        assert is_secrecy_feasible(ch) == (True, False)

    def test_identical_channel(self):
        assert is_secrecy_feasible(make([1, 0], [1, 0])) == (False, False)

    def test_example(self, example_channel):
        assert is_secrecy_feasible(example_channel) == (True, True)

    def test_tol_must_be_positive(self, example_channel):
        with pytest.raises(ValueError):
            is_secrecy_feasible(example_channel, tol=0.0)


class TestIndependenceMargin:
    def test_parallel(self):
        h = np.array([1.0, 2.0])
        assert linear_independence_margin(make(h, 2.0 * h)) == 0.0

    def test_orthogonal(self):
        assert linear_independence_margin(make([1, 0], [0, 1])) == 1.0

    def test_example_interior(self, example_channel):
        m = linear_independence_margin(example_channel)
        h, g = example_channel.h, example_channel.g
        direct = math.sqrt(
            1.0
            - abs(np.vdot(h, g)) ** 2
            / (np.linalg.norm(h) ** 2 * np.linalg.norm(g) ** 2)
        )
        assert 0.0 < m < 1.0
        assert abs(m - direct) <= 1e-12

    def test_zero_vector_counts_as_dependent(self):
        assert linear_independence_margin(make([1, 0], [0, 0])) == 0.0

    def test_both_zero_raises(self):
        with pytest.raises(BothZeroVectors):
            linear_independence_margin(make([0, 0], [0, 0]))

    def test_orthogonal_pairs_stay_at_one(self):
        # the plane's sine of an orthogonal pair can round to 1 + 2^-52
        rng = np.random.default_rng(9)
        for _ in range(60):
            q, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
            assert linear_independence_margin(make(q[:, 0], 3.0 * q[:, 1])) <= 1.0


class TestRateScale:
    def test_complex_mode(self):
        assert rate_scale(make([1, 0], [0, 1])) == 1.0

    def test_real_mode(self):
        assert rate_scale(make([1, 0], [0, 1], mode="real")) == 0.5

    def test_real_mode_halves_intercept(self):
        ch_c = make([1, 0], [0, 1], power=3.0)
        ch_r = make([1, 0], [0, 1], power=3.0, mode="real")
        assert max_rates(ch_r).r1 == 0.5 * max_rates(ch_c).r1


class TestEigenvalueFloor:
    def test_random_channels(self):
        rng = np.random.default_rng(13)
        for i in range(200):
            dim = 2 if i % 2 == 0 else 3
            power = (0.1, 1.0, 10.0)[i % 3]
            h, g, p = _oracles.random_channel(rng, dim, power, "complex")
            ch = make(h, g, p)
            spec = spectrum(ch)
            assert spec.lambda1 >= 1.0 - 1e-12
            assert spec.lambda2 >= 1.0 - 1e-12
            if linear_independence_margin(ch) > 1e-6:
                assert spec.lambda1 > 1.0 + 1e-9
                assert spec.lambda2 > 1.0 + 1e-9


class TestChannelJson:
    def test_round_trip(self, example_channel):
        again = channel_from_dict(channel_to_dict(example_channel))
        np.testing.assert_array_equal(again.h, example_channel.h)
        np.testing.assert_array_equal(again.g, example_channel.g)
        assert again.power == example_channel.power
        assert again.mode == example_channel.mode

    def test_real_mode_accepts_bare_numbers(self):
        ch = channel_from_dict(
            {"h": [1.5, 0.0], "g": [1.801, 0.872], "power": 10, "mode": "real"}
        )
        assert ch.mode == "real"
        np.testing.assert_array_equal(ch.h, np.array([1.5, 0.0], dtype=complex))

    def test_complex_mode_requires_pairs(self):
        with pytest.raises(ValueError):
            channel_from_dict({"h": [1.5, 0.0], "g": [[1, 0], [0, 1]], "power": 1})

    def test_complex_pairs(self):
        ch = channel_from_dict(
            {"h": [[1, 2], [0, 0]], "g": [[0, 0], [1, -1]], "power": 2}
        )
        assert ch.h[0] == 1 + 2j
        assert ch.g[1] == 1 - 1j

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            channel_from_dict({"h": [[1, 0], [0, 0]]})

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            channel_from_dict(
                {"h": [[1, 0], [0, 0]], "g": [[1, 0], [0, 0]], "power": 1, "mode": "x"}
            )
