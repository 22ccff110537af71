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
    optimal_covariances,
    rate_scale,
    region_contains,
    sdpc_rates,
    spectrum,
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
        r_before = sdpc_rates(example_channel, cov)
        perturbed = CovariancePair(
            cov.k_u1, 0.5 * cov.k_u2 + 0.1 * np.eye(2, dtype=complex)
        )
        r_after = sdpc_rates(example_channel, perturbed)
        assert r_before.r1 == r_after.r1

    def test_rejects_non_psd(self, example_channel):
        bad = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(CovarianceInvalid):
            sdpc_rates(example_channel, CovariancePair(bad, np.zeros((2, 2))))

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

    def test_factors_survive_rewrapping_and_arithmetic_drops_them(self, example_channel):
        cov = optimal_covariances(example_channel, 0.3)
        again = CovariancePair(cov.k_u1, cov.k_u2)
        assert again.k_u1 is cov.k_u1 and again.k_u2 is cov.k_u2
        total = cov.total
        assert type(total) is np.ndarray
        assert np.array_equal(total, np.asarray(cov.k_u1) + np.asarray(cov.k_u2))
        with pytest.raises(ValueError):
            cov.k_u1[0, 0] = 1.0  # read-only: the factor could not follow

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
            example_channel, SweepConfig(grid_points=257, sagitta_tol=1e-7, refine=False)
        )
        for _ in range(40):
            split = rng.uniform()
            k1 = _oracles.random_psd(rng, 2, split * 10.0 * rng.uniform())
            k2 = _oracles.random_psd(rng, 2, (1 - split) * 10.0 * rng.uniform())
            corner = sdpc_rates(example_channel, CovariancePair(k1, k2))
            assert region_contains(hull, corner, tol=1e-6)
