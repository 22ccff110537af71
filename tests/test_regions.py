"""Region sweep, corner identities, hull geometry and duality."""

import bisect
import dataclasses
import itertools
import math

import numpy as np
import pytest

from secrecy_region import (
    ChannelPair,
    ParamOutOfRange,
    RatePair,
    SweepConfig,
    SweepTruncated,
    capacity_region,
    capacity_region_beta,
    equal_rate_point,
    gamma1,
    gamma2,
    max_rates,
    miso_wiretap_capacity,
    outer_region,
    region_contains,
    spectrum,
    time_sharing_region,
    xi1,
    xi2,
)
from secrecy_region import geometry, regions

import _oracles
import golden


def make(h, g, power=10.0, mode="complex"):
    return ChannelPair(np.asarray(h, dtype=complex), np.asarray(g, dtype=complex), power, mode)


LIGHT = SweepConfig(grid_points=65, sagitta_tol=1e-6)


def segment_distance(p, a, b):
    """Distance from point p to segment [a, b], by scalar arithmetic."""
    vx, vy = b[0] - a[0], b[1] - a[1]
    ll = vx * vx + vy * vy
    t = 0.0 if ll == 0.0 else ((p[0] - a[0]) * vx + (p[1] - a[1]) * vy) / ll
    t = min(max(t, 0.0), 1.0)
    return math.hypot(p[0] - (a[0] + t * vx), p[1] - (a[1] + t * vy))


def pareto_oracle(points):
    """Strictly non-dominated rows of (n, 2) points, x increasing: one
    scan by decreasing x keeps each row above every row kept before it."""
    kept, best = [], -math.inf
    for x, y in sorted(map(tuple, points.tolist()), key=lambda p: (-p[0], -p[1])):
        if y > best:
            kept.append((x, y))
            best = y
    return np.array(kept[::-1])


class TestGamma1:
    def test_zero_alpha(self, example_channel):
        spec = spectrum(example_channel)
        assert gamma1(example_channel, spec, 0.0) == 1.0

    def test_unit_alpha_recovers_lambda1(self, example_channel):
        spec = spectrum(example_channel)
        assert abs(gamma1(example_channel, spec, 1.0) - spec.lambda1) <= 1e-9 * spec.lambda1

    def test_half_alpha_matches_golden_and_expansion(self, example_channel):
        spec = spectrum(example_channel)
        val = gamma1(example_channel, spec, 0.5)
        assert abs(val - golden.GAMMA1_HALF_TEXT) <= 1e-9 * val
        # independent scalar expansion of the two quadratic forms
        p = example_channel.power
        num = 1.0 + 0.5 * p * abs(
            _oracles.quadratic_form_expanded(
                example_channel.h, np.outer(spec.e1, spec.e1.conj()), example_channel.h
            )
        )
        den = 1.0 + 0.5 * p * abs(
            _oracles.quadratic_form_expanded(
                example_channel.g, np.outer(spec.e1, spec.e1.conj()), example_channel.g
            )
        )
        assert abs(val - num / den) <= 1e-12 * val
        assert 1.0 < val < spec.lambda1

    def test_out_of_range(self, example_channel):
        spec = spectrum(example_channel)
        with pytest.raises(ParamOutOfRange):
            gamma1(example_channel, spec, 1.5)


class TestCheckParam:
    @pytest.mark.parametrize(
        "value",
        [math.nan, 0.0, -0.0, 1.0, float(np.nextafter(1.0, 2.0)), np.nextafter(1, 2),
         -1e-300, np.float64(0.3), 1, np.array(0.5)],
    )
    def test_matches_the_array_path(self, value):
        # a Python float skips NumPy; it must give what the 0-d array gives
        def outcome(v):
            try:
                got = regions._check_param(v, "alpha")
            except ParamOutOfRange as exc:
                return str(exc)
            return type(got), np.float64(got).tobytes()

        assert outcome(value) == outcome(np.asarray(value, dtype=float))


class TestGamma2:
    def test_unit_alpha_collapses(self, example_channel):
        spec = spectrum(example_channel)
        val, _ = gamma2(example_channel, spec, 1.0)
        assert val == 1.0

    def test_zero_alpha_is_lambda2_bitwise(self, example_channel):
        spec = spectrum(example_channel)
        val, vec = gamma2(example_channel, spec, 0.0)
        assert val == spec.lambda2
        assert np.array_equal(vec, spec.e2)

    @pytest.mark.parametrize("channel", ["example", "t8"])
    def test_scalar_matches_batch_bitwise(self, example_channel, channel):
        # one split at a time takes the kernel's float path
        ch = example_channel
        if channel == "t8":
            ch = make(*_oracles.random_channel(np.random.default_rng(78), 8, 10.0, "complex"))
        spec = spectrum(ch)
        grid = np.linspace(0.0, 1.0, 33)
        for fn in (gamma2, xi1):
            lam, vec = fn(ch, spec, grid)
            for i, x in enumerate(grid.tolist()):
                one, one_vec = fn(ch, spec, x)
                assert np.float64(one).tobytes() == lam[i].tobytes()
                assert one_vec.tobytes() == vec[i].tobytes()

    def test_half_alpha_matches_golden_and_oracle(self, example_channel):
        spec = spectrum(example_channel)
        val, _ = gamma2(example_channel, spec, 0.5)
        assert abs(val - golden.GAMMA2_HALF_TEXT) <= 1e-9 * val
        p = example_channel.power
        s_g = 0.5 * p / (1.0 + 0.5 * p * abs(np.vdot(example_channel.g, spec.e1)) ** 2)
        s_h = 0.5 * p / (1.0 + 0.5 * p * abs(np.vdot(example_channel.h, spec.e1)) ** 2)
        lam, _ = _oracles.top_gen_eig_oracle(
            example_channel.g, example_channel.h, s_g, s_h
        )
        assert abs(val - lam) <= 1e-9 * lam
        assert val >= 1.0


class TestCornerOps:
    def test_max_rates_orthogonal(self):
        assert max_rates(make([1, 0], [0, 1], power=3.0)) == RatePair(2.0, 2.0)

    def test_max_rates_identical(self):
        r = max_rates(make([1, 0], [1, 0]))
        assert r.r1 == 0.0 and r.r2 == 0.0

    def test_max_rates_example_golden(self, example_channel):
        r = max_rates(example_channel)
        assert abs(r.r1 - golden.R1_MAX_TEXT) <= 1e-9
        assert abs(r.r2 - golden.R2_MAX_TEXT) <= 1e-9

    def test_miso_no_eavesdropper(self):
        ch = make([1, 0], [0, 0], power=3.0)
        assert miso_wiretap_capacity(ch) == math.log2(1.0 + 3.0)

    def test_miso_identical_channels(self):
        assert miso_wiretap_capacity(make([1, 0], [1, 0])) == 0.0

    def test_miso_equals_intercept_bitwise(self, example_channel):
        b = capacity_region(example_channel, LIGHT)
        assert miso_wiretap_capacity(example_channel) == b.hull[-1, 0]
        assert b.hull[-1, 1] == 0.0


class TestCapacityRegion:
    def test_identical_channels_degenerate(self):
        b = capacity_region(make([1, 0], [1, 0]), LIGHT)
        assert np.array_equal(b.hull, [RatePair(0.0, 0.0)])

    def test_zero_eavesdropper_vector(self):
        b = capacity_region(make([1, 0], [0, 0], power=3.0), LIGHT)
        assert np.array_equal(b.hull, [RatePair(2.0, 0.0)])
        assert b.r2_max == 0.0

    def test_hull_invariants(self, example_channel):
        b = capacity_region(example_channel, LIGHT)
        xs = b.hull[:, 0].tolist()
        ys = b.hull[:, 1].tolist()
        assert all(x2 > x1 for x1, x2 in zip(xs, xs[1:]))
        assert all(y2 < y1 for y1, y2 in zip(ys, ys[1:]))
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(b.hull.tolist(), b.hull[1:].tolist())
        ]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:]))
        assert b.hull[0, 0] == 0.0
        assert b.hull[-1, 1] == 0.0

    def test_corners_inside_own_hull(self, example_channel):
        b = capacity_region(example_channel, LIGHT)
        for corner in b.points:
            assert region_contains(b, RatePair(*corner), tol=1e-9)

    def test_outside_point_rejected(self, example_channel):
        b = capacity_region(example_channel, LIGHT)
        assert not region_contains(b, RatePair(b.r1_max + 1.0, 0.0))
        assert region_contains(b, RatePair(0.0, 0.0))

    def test_hull_vertices_are_swept_corners(self, example_channel):
        b = capacity_region(example_channel, LIGHT)
        swept = {(r1, r2) for r1, r2 in b.points.tolist()}
        swept.add((b.r1_max, 0.0))
        swept.add((0.0, b.r2_max))
        for r1, r2 in b.hull.tolist():
            assert (r1, r2) in swept

    def test_monotone_in_power(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            h, g, _ = _oracles.random_channel(rng, 2, 1.0, "complex")
            small = capacity_region(make(h, g, power=1.0), LIGHT)
            large = capacity_region(make(h, g, power=10.0), LIGHT)
            for p in small.hull:
                assert region_contains(large, p, tol=1e-9)

    def test_two_point_grid_still_valid(self, example_channel):
        cfg = SweepConfig(grid_points=2, sagitta_tol=None)
        b = capacity_region(example_channel, cfg)
        assert len(b.points) == 2
        assert RatePair(*b.hull[0]) == RatePair(0.0, b.r2_max)
        assert RatePair(*b.hull[-1]) == RatePair(b.r1_max, 0.0)

    def test_degenerate_axis_cases(self):
        # only user 1 feasible: region is a segment on the r1 axis
        h = np.array([1.0, 1.0])
        b = capacity_region(make(h, 0.5 * h), LIGHT)
        assert b.r2_max == 0.0 and b.r1_max > 0.0

    def test_arrays_read_only(self, example_channel):
        b = capacity_region(example_channel, LIGHT)
        for a in (b.params, b.points, b.hull, b.hull_params, b.frontier()):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_deterministic(self, example_channel):
        b1 = capacity_region(example_channel, LIGHT)
        b2 = capacity_region(example_channel, LIGHT)
        assert np.array_equal(b1.hull, b2.hull)
        assert np.array_equal(b1.points, b2.points)

    @pytest.mark.parametrize("segment_tol", [None, 0.05])
    def test_level_order_subdivision_matches_depth_first(self, example_channel, segment_tol):
        # the batched, level-by-level subdivision visits the same parameters
        # as a depth-first recursion over the same corner function
        spec = spectrum(example_channel)
        corners = regions._corner_fn(example_channel, spec)
        cfg = SweepConfig(grid_points=9, sagitta_tol=1e-6, segment_tol=segment_tol)

        def corner(v):
            r1, r2 = corners(np.array([v]))
            return float(r1[0]), float(r2[0])

        base = np.linspace(0.0, 1.0, cfg.grid_points).tolist()
        ref = {v: corner(v) for v in base}
        stack = [(lo, hi, 0) for lo, hi in zip(base, base[1:])]
        while stack:
            lo, hi, depth = stack.pop()
            if depth > 40 or hi - lo < 1e-12:
                continue
            mid = 0.5 * (lo + hi)
            a, b, m = ref[lo], ref[hi], corner(mid)
            ref[mid] = m
            sag = segment_distance(m, a, b)
            if sag > cfg.sagitta_tol or (
                segment_tol is not None and math.dist(a, b) > segment_tol
            ):
                stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        params = np.array(base)
        params, points = regions._subdivide(
            corners, params, np.column_stack(corners(params)), cfg
        )
        assert len(params) > 1000
        assert params.tolist() == sorted(ref)
        assert points.tolist() == [list(ref[v]) for v in sorted(ref)]

    def test_sweep_never_exceeds_max_points(self, example_channel):
        # subdivision fills the cap here, and says so
        spec = spectrum(example_channel)
        with pytest.warns(SweepTruncated, match="stopped at 20000 parameters"):
            params, points = regions.sweep_corners(
                example_channel, spec, SweepConfig(sagitta_tol=1e-9)
            )
        assert len(params) == len(points) == regions.MAX_POINTS

    def test_width_floor_warns(self, example_channel):
        # a jump in the corner curve: the chord across it never gets short,
        # so halving stops at the width floor, and says so
        def corners(v):
            return np.where(v < 0.3, 0.0, 1.0), np.zeros_like(v)

        params = np.linspace(0.0, 1.0, 5)
        cfg = SweepConfig(grid_points=5, sagitta_tol=None, segment_tol=0.5)
        with pytest.warns(SweepTruncated, match="2 intervals untested"):
            params, _ = regions._subdivide(
                corners, params, np.column_stack(corners(params)), cfg
            )
        assert np.diff(params).min() < regions.MIN_WIDTH

    @pytest.mark.parametrize("power", [1e-3, 10.0, 1e10])
    @pytest.mark.parametrize("channel", ["example", "t2", "t3", "t8"])
    def test_default_sweep_meets_sagitta_tol(self, example_channel, channel, power):
        # without any refinement pass, 4,096 seeded probe corners lie
        # within the default sagitta tolerance of the default hull
        if channel == "example":
            ch = make(example_channel.h, example_channel.g, power, "real")
        else:
            dim = int(channel[1:])
            rng = np.random.default_rng(90 + dim)
            ch = make(*_oracles.random_channel(rng, dim, power, "complex"))
        b = capacity_region(ch)
        corners = regions._corner_fn(ch, spectrum(ch))
        probes = np.random.default_rng(7).random(4096)
        # the lesser |drop| under the hull bounds each probe's distance to it
        v, h = geometry.chain_drops(np.column_stack(corners(probes)), b.hull)
        assert np.minimum(np.abs(v), np.abs(h)).max() <= SweepConfig().sagitta_tol

    def test_no_tolerance_sweeps_the_exact_grid(self, example_channel):
        cfg = SweepConfig(grid_points=17, sagitta_tol=None)
        b = capacity_region(example_channel, cfg)
        assert b.params.tolist() == np.linspace(0.0, 1.0, 17).tolist()

    def test_segment_tol_alone_splits_only_long_chords(self, example_channel):
        spec = spectrum(example_channel)
        corners = regions._corner_fn(example_channel, spec)

        def swept(segment_tol):
            cfg = SweepConfig(grid_points=9, sagitta_tol=None, segment_tol=segment_tol)
            return regions.sweep_corners(example_channel, spec, cfg)

        # no chord is long: each base interval gets its one midpoint only
        assert len(swept(10.0)[0]) == 17
        # a depth-first reference that splits on chord length alone
        base = np.linspace(0.0, 1.0, 9).tolist()
        ref = {v: tuple(float(r[0]) for r in corners(np.array([v]))) for v in base}
        stack = [(lo, hi, 0) for lo, hi in zip(base, base[1:])]
        while stack:
            lo, hi, depth = stack.pop()
            if depth > 40 or hi - lo < 1e-12:
                continue
            mid = 0.5 * (lo + hi)
            ref[mid] = tuple(float(r[0]) for r in corners(np.array([mid])))
            if math.dist(ref[lo], ref[hi]) > 0.05:
                stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        params, points = swept(0.05)
        assert params.tolist() == sorted(ref)
        assert points.tolist() == [list(ref[v]) for v in sorted(ref)]
        assert np.hypot(*np.diff(points, axis=0).T).max() <= 0.05

    @pytest.mark.parametrize(
        "name, value, error",
        [
            *(
                (tol, value, ValueError)
                for tol in ("sagitta_tol", "segment_tol")
                for value in (math.nan, 0.0, -1e-7)
            ),
            ("grid_points", 1, ValueError),
            ("grid_points", math.nan, TypeError),
            ("grid_points", 64.0, TypeError),
        ],
    )
    def test_sweep_config_rejects_bad_fields(self, name, value, error):
        with pytest.raises(error):
            SweepConfig(**{name: value})

    def test_hull_union_gap_small_for_example(self, example_channel):
        b = capacity_region(example_channel, LIGHT)
        assert b.hull_union_gap <= 1e-6

    @pytest.mark.parametrize(
        "dim, power", [(None, 1e-6), (None, 10.0), (None, 1e12), (2, 10.0), (3, 10.0), (8, 10.0)]
    )
    def test_hull_union_gap_bounds_the_sampled_distance(self, example_channel, dim, power):
        if dim is None:
            ch = dataclasses.replace(example_channel, power=power)
        else:
            rng = np.random.default_rng(40 + dim)
            ch = make(*_oracles.random_channel(rng, dim, power, "complex"))
        b = capacity_region(ch)
        ends = [[b.r1_max, 0.0], [0.0, b.r2_max]]
        pareto = pareto_oracle(np.vstack([b.points, ends]))
        ulp = np.spacing(max(b.r1_max, b.r2_max))
        assert b.hull_union_gap >= _oracles.sampled_distance(b.hull, pareto, 512) - 8 * ulp
        if len(b.hull) == len(pareto):
            assert b.hull_union_gap == 0.0

    def test_hull_union_gap_of_a_notch(self):
        # the middle corner sits 0.1 below the chord, both vertically and
        # horizontally; the hull bridges it
        b = regions._build_boundary(np.array([0.5]), np.array([[0.5, 0.4]]), 1.0, 1.0, "alpha")
        assert b.hull.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert abs(b.hull_union_gap - 0.1) <= 2 * np.spacing(0.1)
        pareto = np.array([[0.0, 1.0], [0.5, 0.4], [1.0, 0.0]])
        assert b.hull_union_gap >= _oracles.sampled_distance(b.hull, pareto, 512)


class TestBetaParametrization:
    def test_remark_corner_instance(self, example_channel):
        # the alpha = 1 rectangle equals the beta = 0 rectangle
        spec = spectrum(example_channel)
        g1 = gamma1(example_channel, spec, 1.0)
        x1, _ = xi1(example_channel, spec, 0.0)
        assert abs(g1 - x1) <= 1e-9 * x1
        g2, _ = gamma2(example_channel, spec, 1.0)
        x2 = xi2(example_channel, spec, 0.0)
        assert abs(g2 - 1.0) <= 1e-12 and abs(x2 - 1.0) <= 1e-12

    def test_beta_corners(self, example_channel):
        spec = spectrum(example_channel)
        x1_at_1, _ = xi1(example_channel, spec, 1.0)
        assert x1_at_1 == 1.0
        x2 = xi2(example_channel, spec, 1.0)
        assert abs(x2 - spec.lambda2) <= 1e-9 * spec.lambda2

    def test_hulls_agree(self, example_channel):
        cfg = SweepConfig(grid_points=129, sagitta_tol=5e-7)
        ba = capacity_region(example_channel, cfg)
        bb = capacity_region_beta(example_channel, cfg)
        assert max(geometry.chain_gap(ba.frontier(), bb.frontier())) <= 1e-6


def bisect_equal_rate(frontier, steps: int = 200) -> float:
    """Largest c with (c, c) under a frontier polyline, by bisection on its
    interpolated height; left of its first vertex the frontier is level."""
    xs, ys = [p[0] for p in frontier], [p[1] for p in frontier]

    def height(x):
        if x <= xs[0]:
            return ys[0]
        i = min(bisect.bisect_right(xs, x), len(xs) - 1)
        w = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[i - 1] + w * (ys[i] - ys[i - 1])

    lo, hi = 0.0, xs[-1]
    if height(hi) >= hi:
        return hi
    if height(lo) <= lo:
        return lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if height(mid) >= mid else (lo, mid)
    return lo


class TestEqualRatePoint:
    def test_matches_bisection(self):
        # the crossing of each frontier with the diagonal, against 200
        # bisection steps: within 1 ulp on the example's boundaries (both
        # variants, P from 0 to 1e12) and on seeded random channels' ones
        boundaries = []
        for g2, power in itertools.product((0.872, 0.871), (0.0, 1e-6, 1.0, 10.0, 1e12)):
            ch = make([1.5, 0.0], [1.801, g2], power, "real")
            boundaries += [capacity_region(ch, LIGHT), time_sharing_region(ch)]
        rng = np.random.default_rng(17)
        for t, power in itertools.product((2, 3, 8), (0.1, 10.0, 1e4)):
            ch = make(*_oracles.random_channel(rng, t, power, "complex")[:2], power)
            boundaries += [capacity_region(ch, LIGHT), time_sharing_region(ch)]
        for b in boundaries:
            got, want = equal_rate_point(b), bisect_equal_rate(b.hull.tolist())
            assert abs(got - want) <= math.ulp(want)

    @pytest.mark.parametrize(
        "hull, c",
        [
            ([(0.0, 3.0), (1.0, 2.5), (2.0, 2.0)], 2.0),  # above the diagonal
            ([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)], 1.0),  # a vertex on it
            ([(2.0, 0.5)], 0.5),  # single points: the dominated rectangle
            ([(0.5, 2.0)], 0.5),
            ([(0.0, 0.0)], 0.0),
        ],
    )
    def test_frontier_shapes(self, hull, c):
        hull = np.array(hull)
        b = regions.RegionBoundary(np.zeros(0), np.zeros((0, 2)), hull, np.zeros(len(hull)))
        assert equal_rate_point(b) == c == bisect_equal_rate(hull.tolist())

    def test_diagonal_point_on_each_boundary_kind(self, example_channel):
        # (c, c) lies inside and (c + 1e-6, c + 1e-6) does not, on a convex
        # frontier, a segment and the outer bound's staircase alike
        boundaries = [
            capacity_region(example_channel, LIGHT),
            time_sharing_region(example_channel),
            outer_region(example_channel, 0.3),
        ]
        for b in boundaries:
            c = equal_rate_point(b)
            assert region_contains(b, RatePair(c, c))
            assert not region_contains(b, RatePair(c + 1e-6, c + 1e-6))

    def test_empty_hull_is_zero(self, example_channel):
        b = outer_region(example_channel, 0.3)
        empty = dataclasses.replace(b, hull=np.empty((0, 2)), hull_params=np.empty(0))
        assert equal_rate_point(empty) == 0.0


class TestTimeSharing:
    def test_segment(self):
        ts = time_sharing_region(make([1, 0], [0, 1], power=3.0))
        assert RatePair(*ts.hull[0]) == RatePair(0.0, 2.0)
        assert RatePair(*ts.hull[-1]) == RatePair(2.0, 0.0)
        mid = geometry.frontier_value(ts.frontier(), 1.0)
        assert abs(mid - 1.0) <= 1e-12

    def test_identical_channels_point(self):
        ts = time_sharing_region(make([1, 0], [1, 0]))
        assert np.array_equal(ts.hull, [RatePair(0.0, 0.0)])

    def test_capacity_dominates_time_sharing(self, example_channel):
        cap = capacity_region(example_channel, LIGHT)
        ts = time_sharing_region(example_channel)
        gap = equal_rate_point(cap) - equal_rate_point(ts)
        assert gap > 0.01
