"""Closed-form outer-bound minimizations, outer region and the audit."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from secrecy_region import (
    ChannelPair,
    CovarianceInvalid,
    DegeneratePivot,
    RatePair,
    RhoOnUnitCircle,
    SweepConfig,
    audit_inner_outer,
    capacity_region,
    optimal_covariances,
    outer_region,
    rate_scale,
    region_contains,
    sato_f1,
    sato_f2,
    sdpc_rates,
    spectrum,
    tightness_rho,
)
from secrecy_region import geometry, linalg, sato, sdpc
from secrecy_region.sato import evaluate

import _oracles
import golden


def make(h, g, power=10.0, mode="complex"):
    return ChannelPair(np.asarray(h, dtype=complex), np.asarray(g, dtype=complex), power, mode)


def objective_f1(ch, k, rho, nu):
    diff = ch.h - nu * ch.g
    quad = (diff.conj() @ k @ diff).real
    psi = 1.0 + abs(nu) ** 2 - 2.0 * (np.conj(nu) * rho).real
    return math.log2((quad + psi) / (1.0 - abs(rho) ** 2))


class TestClosedForm:
    def test_zero_covariance_zero_bound(self, example_channel):
        zero = np.zeros((2, 2), dtype=complex)
        val, nu = sato_f1(example_channel, 0.3, zero)
        assert val == 0.0
        assert nu == 0.3  # minimizer collapses to rho itself

    def test_zero_rho_zero_cov(self, example_channel):
        val, nu = sato_f1(example_channel, 0.0, np.zeros((2, 2), dtype=complex))
        assert val == 0.0 and nu == 0.0

    def test_grid_oracle_f1(self, example_channel):
        k = (10.0 / 2) * np.eye(2, dtype=complex)
        val, _ = sato_f1(example_channel, 0.3, k)
        raw = val / rate_scale(example_channel)
        ref = _oracles.sato_objective_grid_min(
            example_channel.h, example_channel.g, k, 0.3
        )
        assert abs(raw - ref) <= 1e-6

    def test_grid_oracle_f2(self, example_channel):
        k = (10.0 / 2) * np.eye(2, dtype=complex)
        val, _ = sato_f2(example_channel, 0.3, k)
        raw = val / rate_scale(example_channel)
        ref = _oracles.sato_objective_grid_min(
            example_channel.g, example_channel.h, k, 0.3
        )
        assert abs(raw - ref) <= 1e-6

    def test_swap_exchanges_bounds_bitwise(self):
        rng = np.random.default_rng(51)
        h, g, p = _oracles.random_channel(rng, 2, 10.0, "complex")
        ch = make(h, g, p)
        k = _oracles.random_psd(rng, 2, 5.0)
        rho = 0.2 + 0.4j
        f1, nu = sato_f1(ch, rho, k)
        f2, mu = sato_f2(ch.swapped(), rho, k)
        assert f1 == f2 and nu == mu

    def test_conjugate_exchange_for_real_rho(self):
        rng = np.random.default_rng(52)
        h, g, p = _oracles.random_channel(rng, 3, 5.0, "complex")
        ch = make(h, g, p)
        k = _oracles.random_psd(rng, 3, 2.0)
        rho = 0.35  # real: conjugation is a no-op
        f1, _ = sato_f1(ch, rho, k)
        f2, _ = sato_f2(ch.swapped(), np.conj(rho), k)
        assert f1 == f2

    def test_minimizer_is_stationary(self, example_channel):
        # nudging nu off the closed-form minimizer never helps
        k = _oracles.random_psd(np.random.default_rng(53), 2, 7.0)
        rho = 0.25 - 0.1j
        ev = evaluate(example_channel, rho, k)
        base = objective_f1(example_channel, k, rho, ev.nu_star)
        assert abs(base - ev.f1 / rate_scale(example_channel)) <= 1e-12
        for delta in (1e-4, -1e-4, 1e-4j, -1e-4j):
            assert objective_f1(example_channel, k, rho, ev.nu_star + delta) >= base - 1e-8

    def test_bound_at_least_single_user_rate(self, example_channel):
        # rho = 0 with the user-1 beamforming covariance
        spec = spectrum(example_channel)
        k = 10.0 * np.outer(spec.e1, spec.e1.conj())
        val, _ = sato_f1(example_channel, 0.0, k)
        raw = val / rate_scale(example_channel)
        assert raw >= math.log2(spec.lambda1) - 1e-12

    def test_rho_on_unit_circle(self, example_channel):
        with pytest.raises(RhoOnUnitCircle):
            sato_f1(example_channel, 1.0, np.zeros((2, 2), dtype=complex))
        with pytest.raises(RhoOnUnitCircle):
            sato_f1(example_channel, 1.0 - 1e-10, np.zeros((2, 2), dtype=complex))

    @pytest.mark.parametrize("rho", [math.nan, complex(0.3, math.nan)])
    def test_non_finite_rho_rejected(self, example_channel, rho):
        k = 5.0 * np.eye(2, dtype=complex)
        for fn in (sato_f1, sato_f2, evaluate):
            with pytest.raises(ValueError, match="finite"):
                fn(example_channel, rho, k)
        with pytest.raises(ValueError, match="finite"):
            outer_region(example_channel, rho)

    def test_covariance_validation(self, example_channel):
        with pytest.raises(CovarianceInvalid):
            sato_f1(example_channel, 0.1, np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(CovarianceInvalid):
            sato_f1(example_channel, 0.1, 20.0 * np.eye(2, dtype=complex))

    @pytest.mark.parametrize(
        "bad", [z for x in (math.nan, math.inf, -math.inf) for z in (complex(x, 0), complex(0, x))]
    )
    def test_non_finite_covariance_rejected(self, example_channel, bad):
        # a NaN passes every PSD and trace comparison: reject it up front
        k = 2.0 * np.eye(2, dtype=complex)
        k[0, 1] = k[1, 0] = bad
        for fn in (sato_f1, sato_f2, evaluate):
            with pytest.raises(CovarianceInvalid, match="finite"):
                fn(example_channel, 0.1, k)

    @pytest.mark.parametrize("power", [1e8, 1e10, 1e12])
    def test_own_covariances_accepted_at_high_power(self, power):
        rng = np.random.default_rng(int(math.log10(power)))
        for t in range(2, 9):
            h = rng.standard_normal(t) + 1j * rng.standard_normal(t)
            g = rng.standard_normal(t) + 1j * rng.standard_normal(t)
            ch = make(h, g, power)
            for alpha in (0.2, 0.5, 0.8):
                total = optimal_covariances(ch, alpha).total
                sato_f1(ch, 0.3, total)
                sato_f2(ch, 0.3, total)

    def test_scaled_tolerances_still_reject(self):
        ch = make([1.5, 0.0], [1.801, 0.872], 1e10)
        bad = [
            np.diag([1.0, -0.5]),
            np.diag([1e10, -1e-6 * 1e10]),  # eigenvalue about -1e-6 tr K
            0.5e10 * (1.0 + 1e-6) * np.eye(2),  # trace 1e10 (1 + 1e-6)
        ]
        for k in bad:
            with pytest.raises(CovarianceInvalid):
                sato_f1(ch, 0.3, k.astype(complex))
            with pytest.raises(CovarianceInvalid):
                sato_f2(ch, 0.3, k.astype(complex))

    def test_random_closed_form_beats_grid(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            h, g, p = _oracles.random_channel(rng, 2, 10.0, "complex")
            h /= np.linalg.norm(h)
            g /= np.linalg.norm(g)
            ch = make(h, g, p)
            k = _oracles.random_psd(rng, 2, p * rng.uniform())
            rho = rng.uniform(0, 0.9) * np.exp(2j * math.pi * rng.uniform())
            val, _ = sato_f1(ch, rho, k)
            ref = _oracles.sato_objective_grid_min(h, g, k, rho)
            assert abs(val - ref) <= 1e-6

    @pytest.mark.parametrize("same", [False, True])
    def test_forms_match_quadratic_forms(self, same):
        # K h and K g give the forms quadratic_form gives, self forms real
        rng = np.random.default_rng(55)
        h, g, p = _oracles.random_channel(rng, 3, 10.0, "complex")
        ch = make(h, h if same else g, p)
        qf = linalg.quadratic_form
        for _ in range(5):
            k = sato._check_kx(ch, _oracles.random_psd(rng, 3, p))
            hh, gg = qf(ch.h, k, ch.h).real, qf(ch.g, k, ch.g).real
            assert sato._forms(ch, k) == (
                (hh, gg, complex(qf(ch.g, k, ch.h))),
                (gg, hh, complex(qf(ch.h, k, ch.g))),
            )

    def test_evaluations_compare_by_identity(self, example_channel):
        k = optimal_covariances(example_channel, 0.3).total
        a, b = evaluate(example_channel, 0.1, k), evaluate(example_channel, 0.1, k)
        assert a == a
        assert a != b


class TestTightnessRho:
    def test_identical_channels(self):
        ch = make([1, 0], [1, 0])
        spec = spectrum(ch)
        rho = tightness_rho(spec, ch.h, ch.g)
        assert abs(rho - 1.0) <= 1e-12

    def test_orthogonal_channels(self):
        ch = make([1, 0], [0, 1])
        spec = spectrum(ch)
        assert tightness_rho(spec, ch.h, ch.g) == 0.0

    def test_example_golden(self, example_channel):
        spec = spectrum(example_channel)
        rho = tightness_rho(spec, example_channel.h, example_channel.g)
        assert abs(rho.imag) <= 1e-12
        assert abs(rho.real - golden.RHO_STAR_TEXT) <= 1e-9
        assert 0.0 < rho.real < 1.0

    def test_zero_power_uses_the_limit_eigenvector(self, example_channel):
        zero = ChannelPair(example_channel.h, example_channel.g, 0.0, "real")
        rho = tightness_rho(spectrum(zero), zero.h, zero.g)
        assert abs(rho - 0.5745686931) <= 1e-10
        # e1 maximizes |h^H e|^2 - |g^H e|^2, so |rho*| <= 1 on any channel
        rng = np.random.default_rng(58)
        for dim in (2, 3, 8):
            h, g, _ = _oracles.random_channel(rng, dim, 0.0, "complex")
            ch = make(h, g, 0.0)
            assert abs(tightness_rho(spectrum(ch), ch.h, ch.g)) <= 1.0

    def test_degenerate_pivot(self):
        ch = make([0, 0], [1, 1])
        spec = spectrum(ch)
        with pytest.raises(DegeneratePivot):
            tightness_rho(spec, ch.h, ch.g)

    @pytest.mark.parametrize("s", [1e-13, 1e-12, 1e-6, 1e6])
    def test_pivot_threshold_scales_with_the_channel(self, example_channel, s):
        # h, g -> s h, s g and P -> P / s^2 leave every rate and rho* alone
        spec = spectrum(example_channel)
        base = tightness_rho(spec, example_channel.h, example_channel.g)
        power = example_channel.power / s**2
        ch = ChannelPair(s * example_channel.h, s * example_channel.g, power, "real")
        rho = tightness_rho(spectrum(ch), ch.h, ch.g)
        assert abs(rho - base) <= 1e-13 * abs(base)


class TestOuterRegion:
    def test_zero_power_point_region(self):
        b = outer_region(make([1, 0], [0, 1], power=0.0), 0.2)
        assert np.array_equal(b.hull, [RatePair(0.0, 0.0)])

    def test_identical_channels_collapse_near_unit_rho(self):
        ch = make([1, 1], [1, 1])
        k = _oracles.random_psd(np.random.default_rng(55), 2, 10.0)
        val, _ = sato_f1(ch, 1.0 - 1e-8, k)
        assert 0.0 <= val <= 1e-7

    def test_example_frontier_near_capacity_hull(self, example_channel):
        spec = spectrum(example_channel)
        rho = tightness_rho(spec, example_channel.h, example_channel.g)
        outer = outer_region(example_channel, rho)
        hull = capacity_region(
            example_channel,
            SweepConfig(grid_points=257, sagitta_tol=1e-6),
        )
        stairs = geometry.staircase_polyline(outer.hull)
        hd = _oracles.sampled_hausdorff(stairs, hull.frontier(), 2048)
        assert hd <= 5e-3

    def test_frontier_dominates_achievable_hull(self, example_channel):
        spec = spectrum(example_channel)
        rho = tightness_rho(spec, example_channel.h, example_channel.g)
        outer = outer_region(example_channel, rho)
        hull = capacity_region(
            example_channel,
            SweepConfig(grid_points=65, sagitta_tol=1e-5),
        )
        for vertex in hull.hull:
            assert region_contains(outer, vertex, tol=1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="outer_region samples only rank-one inputs and the boundary "
        "covariances; rank-two inputs with tr K = P reach beyond its staircase",
    )
    def test_random_rank_two_inputs_inside_staircase(self, example_channel):
        # every rectangle of the union must lie inside the staircase; today
        # 13, 15, 5 and 43 of these 500 lie outside at the four couplings
        rng = np.random.default_rng(60)
        ks = []
        for _ in range(500):
            x = rng.standard_normal((2, 2))
            k = x @ x.T
            ks.append(k * (example_channel.power / np.trace(k)))
        spec = spectrum(example_channel)
        rho_star = tightness_rho(spec, example_channel.h, example_channel.g)
        outside = []
        for rho in (0.0, 0.3, rho_star, -0.5):
            outer = outer_region(example_channel, rho)
            for k in ks:
                e = evaluate(example_channel, rho, k)
                if not region_contains(outer, (e.f1, e.f2), tol=1e-6):
                    outside.append((rho, e.f1, e.f2))
        assert outside == []

    def test_rejects_rho_near_unit_circle(self, example_channel):
        with pytest.raises(RhoOnUnitCircle):
            outer_region(example_channel, 1.0 - 1e-7)

    def test_search_config_respected(self, example_channel, monkeypatch):
        monkeypatch.setattr(sato, "RANK_ONE_ANGLES", 16)
        monkeypatch.setattr(sato, "RANK_ONE_PHASES", 8)
        monkeypatch.setattr(
            sato,
            "OUTER_SWEEP",
            SweepConfig(grid_points=17, sagitta_tol=1e-4),
        )
        b = outer_region(example_channel, 0.1)
        assert len(b.points) >= 17
        assert len(b.hull) >= 2

    def test_three_antenna_quasirandom_directions(self, monkeypatch):
        # t > 2 searches the same sphere grid, on span{h, g}
        rng = np.random.default_rng(57)
        h, g, p = _oracles.random_channel(rng, 3, 5.0, "real")
        ch = make(h, g, p, "real")
        monkeypatch.setattr(
            sato,
            "OUTER_SWEEP",
            SweepConfig(grid_points=33, sagitta_tol=1e-4),
        )
        spec = spectrum(ch)
        rho = tightness_rho(spec, ch.h, ch.g)
        outer = outer_region(ch, rho)
        assert len(outer.hull) >= 2
        hull = capacity_region(ch, SweepConfig(grid_points=33, sagitta_tol=1e-4))
        for vertex in hull.hull:
            assert region_contains(outer, vertex, tol=1e-6)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_rank_one_staircase_rotation_invariant(self, dim):
        # the rank-one search sees only the Gram data of (h, g): a unitary
        # rotation of both leaves its staircase in place
        rng = np.random.default_rng(58 + dim)
        h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # Haar unitary

        def staircase(ch, rho):
            f1, f2 = sato._rank_one_bounds(ch, rho)
            corners = geometry.pareto_corners(list(zip(f1.tolist(), f2.tolist())))
            return geometry.staircase_polyline(corners)

        for rho in (0.0, 0.3, 0.4 - 0.2j):
            base = staircase(make(h, g), rho)
            rotated = staircase(make(u @ h, u @ g), rho)
            assert _oracles.sampled_hausdorff(base, rotated, 2048) <= 1e-10


def polar_rho_grid():
    """A 145-coupling polar grid as Python complex numbers: 0, then 16
    angles on each radius step of 0.1."""
    grid = [0j]
    radius = 0.1
    while radius < 1.0 - sato.RHO_GRID_EDGE:
        for k in range(16):
            grid.append(radius * cmath.exp(1j * (2.0 * math.pi * k / 16)))
        radius += 0.1
    return grid


def per_rho_worst(ch, sweep):
    """The containment margin by its definition: one `_bound_values` call
    per coupling and user on the hull's forms, then the least of
    scale * f - r over couplings, users and vertices."""
    boundary = sato.capacity_region(ch, sweep)
    forms = sato._kx_forms(ch, spectrum(ch), boundary.params)
    idx = np.searchsorted(boundary.params, boundary.hull_params)
    scale = rate_scale(ch)
    worst = math.inf
    for rho in polar_rho_grid():
        for user, user_forms in enumerate(forms):
            f = sato._bound_values(tuple(x[idx] for x in user_forms), rho)
            worst = min(worst, float((scale * f - boundary.hull[:, user]).min()))
    return worst


def audit_cases():
    rng = np.random.default_rng(83)
    for t in (2, 3, 8):
        for mode in ("real", "complex"):
            for p in (0.0, 1e-3, 10.0, 1e10):
                ch = make(*_oracles.random_channel(rng, t, p, mode), mode)
                yield pytest.param(ch, id=f"t{t}-{mode}-P{p:g}")
    h, g, _ = _oracles.random_channel(rng, 3, 1.0, "complex")
    yield pytest.param(make(h, h, 10.0), id="h=g")
    yield pytest.param(make(h, np.zeros(3), 10.0), id="g=0")


class TestAudit:
    def test_identical_channels_vacuous(self):
        report = audit_inner_outer(make([1, 0], [1, 0]))
        assert report.containment_ok
        # rho* = 1 sits on the unit circle; tightness is skipped
        assert not report.tightness_evaluated
        assert report.corner_gaps == {}

    def test_example(self, example_channel):
        report = audit_inner_outer(example_channel)
        assert report.containment_ok
        assert report.containment_worst >= -1e-6
        assert report.tightness_evaluated
        assert report.min_gap_f1 >= -1e-9
        assert report.min_gap_f2 >= -1e-9
        assert abs(report.containment_worst) <= 1e-14
        assert max(report.minimizer_spread) <= 1e-14
        assert abs(report.corner_gaps["alpha1_f1"]) <= 1e-6
        assert abs(report.corner_gaps["alpha0_f2"]) <= 1e-6

    def test_random_real_channels(self):
        rng = np.random.default_rng(56)
        cfg = SweepConfig(grid_points=65, sagitta_tol=1e-5)
        for _ in range(5):
            h, g, p = _oracles.random_channel(rng, 2, 10.0, "real")
            report = audit_inner_outer(make(h, g, p, "real"), cfg)
            assert report.containment_ok
            if report.tightness_evaluated:
                assert report.min_gap_f1 >= -1e-9
                assert report.min_gap_f2 >= -1e-9

    def test_corner_gaps_are_the_end_gaps(self):
        # with a complex rho* the f2 gap varies along the sweep, so the
        # corner gaps pin the sweep's two end parameters
        rng = np.random.default_rng(59)
        ch = make(*_oracles.random_channel(rng, 3, 10.0, "complex"))
        cfg = SweepConfig(grid_points=33, sagitta_tol=1e-4)
        report = audit_inner_outer(ch, cfg)
        scale = rate_scale(ch)
        for a, tag in ((0.0, "alpha0"), (1.0, "alpha1")):
            cov = optimal_covariances(ch, a)
            bounds = evaluate(ch, report.rho_star, cov.total)
            rates = sdpc_rates(ch, cov)
            gap1 = (bounds.f1 - rates.r1) / scale
            gap2 = (bounds.f2 - rates.r2) / scale
            assert abs(report.corner_gaps[f"{tag}_f1"] - gap1) <= 1e-9
            assert abs(report.corner_gaps[f"{tag}_f2"] - gap2) <= 1e-9

    @pytest.mark.parametrize("ch", list(audit_cases()))
    def test_blocked_pass_is_the_per_rho_definition(self, ch):
        # the exact minimum over every coupling is at or below the margin
        # by its definition on any grid of couplings
        sweep = SweepConfig(grid_points=65, sagitta_tol=1e-5)
        report = audit_inner_outer(ch, sweep)
        assert report.containment_worst <= per_rho_worst(ch, sweep) + 1e-15

    def test_blocked_pass_with_a_violation(self, example_channel, inflated_hull):
        report = audit_inner_outer(example_channel)
        assert report.containment_worst < 0.0
        grid_worst = per_rho_worst(example_channel, sato.AUDIT_SWEEP)
        assert report.containment_worst <= grid_worst + 1e-15

    def test_worst_location_reproduces_the_margin(self, example_channel, inflated_hull):
        # the location's coupling is the exact minimizer, not a grid
        # point: the per-rho bound there gives the margin to rounding
        report = audit_inner_outer(example_channel)
        rho, alpha, user = report.containment_worst_at
        assert abs(rho) < 1.0 and user in (1, 2)
        hull = sato.capacity_region(example_channel, sato.AUDIT_SWEEP)
        vertex = np.flatnonzero(hull.hull_params == alpha)[0]
        forms = sato._kx_forms(example_channel, spectrum(example_channel), np.array([alpha]))
        f = sato._bound_values(forms[user - 1], rho)[0]
        margin = rate_scale(example_channel) * f - hull.hull[vertex, user - 1]
        assert abs(margin - report.containment_worst) <= 1e-13
        where = report.to_dict()["containment_worst_at"]
        assert where == {"rho": [rho.real, rho.imag], "alpha": alpha, "user": user}

    @pytest.mark.parametrize("mode", ["real", "complex"])
    def test_least_ratio_against_the_coupling_grid_oracle(self, mode):
        # never above a dense polar grid with local refinement, beyond the
        # few-ulp rounding of the grid's own objective, and equal to it
        rng = np.random.default_rng(60)
        for _ in range(40):
            t = int(rng.integers(2, 5))
            h, g, _ = _oracles.random_channel(rng, t, 1.0, mode)
            k = _oracles.random_psd(rng, t, rng.uniform(0.01, 10.0))
            ref, _ = _oracles.sato_coupling_grid_min(h, g, k)
            forms = tuple(np.array([v]) for v in (
                np.vdot(h, k @ h).real, np.vdot(g, k @ g).real, np.vdot(g, k @ h)
            ))
            closed = math.log2(sato._least_ratio(forms)[0][0])
            assert closed <= ref + 1e-14
            assert abs(closed - ref) <= 1e-12

    def test_least_ratio_edges(self):
        # all forms zero: a flat bound, ratio 1 at rho = 0; h = g: the
        # infimum 1 on the unit circle, reached with no warning
        zero = np.zeros(1)
        ratio, rho = sato._least_ratio((zero, zero, zero + 0j))
        assert ratio.tolist() == [1.0] and rho.tolist() == [0j]
        ratio, rho = sato._least_ratio((zero + 4.0, zero + 4.0, zero + 4.0 + 0j))
        assert ratio.tolist() == [1.0] and rho.tolist() == [1 + 0j]

    @pytest.mark.parametrize("t", [2, 3, 8])
    @pytest.mark.parametrize("mode", ["real", "complex"])
    def test_minimizers_are_rho_star_and_its_conjugate(self, t, mode):
        rng = np.random.default_rng(61 + t)
        cfg = SweepConfig(grid_points=65, sagitta_tol=1e-5)
        for _ in range(3):
            ch = make(*_oracles.random_channel(rng, t, 10.0, mode), mode)
            report = audit_inner_outer(ch, cfg)
            assert report.tightness_evaluated
            assert max(report.minimizer_spread) <= 1e-9

    @pytest.mark.parametrize("t", [2, 3, 8])
    def test_complex_rho_star_closes_both_bounds(self, t):
        # one coupling for both users: at a complex rho*, f1 and f2 of the
        # boundary covariances meet the achievable rates at every alpha
        rng = np.random.default_rng(70 + t)
        ch = make(*_oracles.random_channel(rng, t, 10.0, "complex"))
        spec = spectrum(ch)
        rho = tightness_rho(spec, ch.h, ch.g)
        assert abs(rho.imag) > 1e-3
        for a in np.linspace(0.0, 1.0, 17).tolist():
            cov = optimal_covariances(ch, a, spec)
            ev = evaluate(ch, rho, cov.total)
            r1, r2 = sdpc.rate_bounds_raw(ch, cov)
            assert abs(ev.f1 - r1) <= 1e-12 and abs(ev.f2 - r2) <= 1e-12
        report = audit_inner_outer(ch, SweepConfig(grid_points=65, sagitta_tol=None))
        assert max(map(abs, report.corner_gaps.values())) <= 1e-12
        assert abs(report.min_gap_f1) <= 1e-12 and abs(report.min_gap_f2) <= 1e-12

    def test_tightness_skipped_says_why(self):
        same = audit_inner_outer(make([1, 0.5j], [1, 0.5j]))
        assert same.tightness_skipped == "rho_star_near_unit_circle"
        assert same.containment_ok and not same.tightness_evaluated
        no_pivot = audit_inner_outer(make([0, 0], [1, 1]))
        assert no_pivot.tightness_skipped == "degenerate_pivot"
        assert no_pivot.rho_star is None and no_pivot.minimizer_spread is None
        assert no_pivot.to_dict()["tightness_skipped"] == "degenerate_pivot"
        assert no_pivot.containment_ok and not no_pivot.tightness_evaluated

    def test_worst_location_at_zero_power(self):
        # every margin is 0: the first coupling and user 1 win the tie
        report = audit_inner_outer(make([1.5, 0], [1.801, 0.872], 0.0, "real"))
        assert report.containment_worst == 0.0
        assert report.containment_worst_at[0] == 0j
        assert report.containment_worst_at[2] == 1

    def test_audit_allocates_little(self):
        # the benchmark's 8-antenna Gram data: 2,385 hull vertices on the
        # default sweep; one 145 x 2,385 pass over the whole grid peaks at
        # about 8.4 MiB, the blocked pass at about 1.7 MiB
        t = 8
        h = np.zeros(t, dtype=complex)
        h[0] = 1.0
        g = np.zeros(t, dtype=complex)
        g[0], g[1] = math.sqrt(1.0 / t) * cmath.exp(1j), math.sqrt(1.0 - 1.0 / t)
        ch = make(h, g, 10.0)
        tracemalloc.start()
        try:
            report = audit_inner_outer(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.hull_size == 2385
        assert peak < 3 * 2**20

    def test_fault_injection_breaks_containment(self, example_channel, inflated_hull):
        cfg = SweepConfig(grid_points=33, sagitta_tol=1e-4)
        report = audit_inner_outer(example_channel, cfg)
        assert not report.containment_ok

    def test_default_sweep_is_audit_sweep(self, example_channel):
        default = audit_inner_outer(example_channel).to_dict()
        assert default == audit_inner_outer(example_channel, sato.AUDIT_SWEEP).to_dict()

    def test_report_dict_schema(self, example_channel):
        cfg = SweepConfig(grid_points=33, sagitta_tol=1e-4)
        report = audit_inner_outer(example_channel, cfg)
        payload = report.to_dict()
        # one key per field, in field order
        assert list(payload) == [f.name for f in dataclasses.fields(report)]
        for key in (
            "containment_ok",
            "min_gap_f1",
            "min_gap_f2",
            "rho_star",
            "corner_gaps",
            "tightness_skipped",
            "minimizer_spread",
        ):
            assert key in payload
        assert isinstance(payload["rho_star"], list) and len(payload["rho_star"]) == 2
        assert payload["tightness_skipped"] is None
        assert "rho_grid_size" not in payload
