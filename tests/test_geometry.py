"""The frontier-chain drop bounds against an independent polyline distance,
the Pareto, hull, segment-distance and interpolation routines against the
loops they replace, and the oracle's arc-length resampling against a loop."""

import bisect
import dataclasses
import math

import numpy as np
import pytest

from secrecy_region import ChannelPair, capacity_region, capacity_region_beta, geometry

import _oracles


def pair_d2(px, py, a, b):
    """Squared distance from (px, py) to the one segment [a, b]."""
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    ll = vx * vx + vy * vy
    ll = ll if ll > 0.0 else 1.0
    dx, dy = px - ax, py - ay
    t = np.clip((dx * vx + dy * vy) / ll, 0.0, 1.0)
    ex, ey = dx - t * vx, dy - t * vy
    return ex * ex + ey * ey


@pytest.mark.parametrize("seed", range(4))
def test_segment_distances_match_per_pair(seed):
    # row i against its own segment by the brute-force loop's arithmetic,
    # up to a few ulps of the coordinates: points on and off the segments,
    # past either end, and zero-length segments among them
    rng = np.random.default_rng(seed)
    n = 400
    a = 3.0 * rng.random((n, 2))
    b = a + rng.standard_normal((n, 2)) * rng.choice([0.0, 1e-9, 1.0, 10.0], (n, 1))
    points = 3.0 * rng.random((n, 2))
    on = rng.random(n) < 0.25
    w = rng.uniform(-0.5, 1.5, (n, 1))
    points[on] = (a + w * (b - a))[on]
    got = geometry.segment_distances(points, a, b)
    want = [math.sqrt(pair_d2(p[0], p[1], s, e)) for p, s, e in zip(points, a, b)]
    scale = np.abs(points).sum(axis=1) + np.abs(a).sum(axis=1) + np.abs(b).sum(axis=1)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("seed", range(6))
def test_pareto_candidates_keep_pareto_corners(seed):
    # pareto_corners on the candidates equals pareto_corners on every point,
    # with exact ties, repeated points and near-duplicates within DEDUP_TOL
    rng = np.random.default_rng(seed)
    xy = np.round(rng.random((3000, 2)), 2 + seed % 3)
    xy[:40] = xy[40:80]
    xy[80:120] = xy[120:160] + 0.3 * geometry.DEDUP_TOL * rng.standard_normal((40, 2))
    points = [(x, y, i) for i, (x, y) in enumerate(xy.tolist())]
    keep = geometry.pareto_candidates(xy[:, 0], xy[:, 1])
    assert np.unique(keep).size == keep.size
    subset = [points[i] for i in keep.tolist()]
    assert np.array_equal(geometry.pareto_corners(subset), geometry.pareto_corners(points))


# ---------------------------------------------------------------------------
# the array routines against the point-by-point loops they replace


def loop_pareto_corners(points, tol=geometry.DEDUP_TOL):
    pts = sorted(points, key=lambda p: (p[0], p[1]))
    kept, best_y = [], -math.inf
    for p in reversed(pts):
        if p[1] > best_y + tol:
            kept.append(p)
            best_y = p[1]
    kept.reverse()
    out = []
    for p in kept:
        if out and abs(p[0] - out[-1][0]) <= tol:
            continue
        out.append(p)
    return out


def loop_concave_chain(points):
    if len(points) <= 2:
        return list(points)
    chain = []
    for p in points:
        while len(chain) >= 2:
            ax, ay = chain[-2][0], chain[-2][1]
            bx, by = chain[-1][0], chain[-1][1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) >= 0.0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def loop_resample_polyline(poly, samples):
    """The oracle's resampling one target at a time, each point interpolated
    on its segment with np.interp's arithmetic."""
    pts = [(float(p[0]), float(p[1])) for p in poly]
    acc = [0.0]
    for a, b in zip(pts, pts[1:]):
        acc.append(acc[-1] + float(np.hypot(b[0] - a[0], b[1] - a[1])))
    out = list(pts)
    for target in np.linspace(0.0, acc[-1], samples).tolist():
        i = bisect.bisect_right(acc, target) - 1
        if i == len(acc) - 1 or acc[i] == target:
            out.append(pts[i])
            continue
        run, off = acc[i + 1] - acc[i], target - acc[i]
        out.append(tuple((b - a) / run * off + a for a, b in zip(pts[i], pts[i + 1])))
    return out


def loop_frontier_value(frontier, x):
    if not frontier or x > frontier[-1][0]:
        return -math.inf
    if len(frontier) == 1 or x <= frontier[0][0]:
        return frontier[0][1]
    i = bisect.bisect_right([p[0] for p in frontier], x)
    i = min(max(i, 1), len(frontier) - 1)
    (x0, y0), (x1, y1) = frontier[i - 1][:2], frontier[i][:2]
    if x1 == x0:
        return max(y0, y1)
    return y0 + (x - x0) / (x1 - x0) * (y1 - y0)


def tagged_points(rng, seed):
    """Points with exact ties, repeats, and x and y runs spaced below
    DEDUP_TOL, each with its index as a tag."""
    tol = geometry.DEDUP_TOL
    xy = np.round(rng.random((2000, 2)), 2 + seed % 3)
    xy[:40] = xy[40:80]
    xy[80:120] = xy[120:160] + 0.3 * tol * rng.standard_normal((40, 2))
    run = np.arange(60)
    xy[200:260] = np.column_stack([1.0 - 1e-3 * run, 1.0 + 0.4 * tol * run])
    xy[260:320] = np.column_stack([1.1 + 0.4 * tol * run, 0.5 - 1e-3 * run])
    return [(x, y, i) for i, (x, y) in enumerate(xy.tolist())]


def concave_arc(rng, n, noise):
    """Points on a concave arc, perturbed by `noise` of their scale."""
    t = np.sort(rng.random(n)) * 0.5 * np.pi
    arc = np.column_stack([np.sin(t), np.cos(t)]) * (1.0 + noise * rng.standard_normal((n, 1)))
    return arc[np.argsort(arc[:, 0])]


#: a kink, then an exactly straight run (its cross products are 0, so every
#: interior point of the run is popped)
KINKED_LINE = np.array(
    [[0.0, 1.0], [0.5, 0.875]] + [[0.5 + k / 64, 0.875 - k / 64] for k in range(1, 50)]
)


@pytest.mark.parametrize("seed", range(4))
def test_pareto_corners_match_loop(seed):
    points = tagged_points(np.random.default_rng(seed), seed)
    want = np.array(loop_pareto_corners(points))
    np.testing.assert_array_equal(geometry.pareto_corners(points), want)


@pytest.mark.parametrize("noise", [0.0, 1e-16, 1e-9, 1e-3])
@pytest.mark.parametrize("seed", range(3))
def test_concave_chain_matches_loop(seed, noise):
    rng = np.random.default_rng(seed)
    for pts in (
        concave_arc(rng, 3000, noise),
        geometry.pareto_corners(rng.random((500, 2))),
        KINKED_LINE,
    ):
        want = np.array(loop_concave_chain([tuple(p) for p in pts.tolist()]))
        np.testing.assert_array_equal(geometry.concave_chain(pts), want)


@pytest.mark.parametrize("seed", range(3))
def test_resample_polyline_matches_loop(seed):
    # the arc-length sampling behind the oracle's sampled distances
    rng = np.random.default_rng(seed)
    chain = geometry.concave_chain(geometry.pareto_corners(rng.random((400, 2))))
    repeated = np.vstack([chain[:5], chain[4:5], chain[4:]])
    for poly in (chain, repeated, chain[:2], chain[:1], np.repeat(chain[:1], 3, axis=0)):
        for samples in (1, 2, 513):
            want = np.array(loop_resample_polyline(poly.tolist(), samples))
            got = _oracles.resample_polyline(poly, samples)
            np.testing.assert_array_equal(got, want.reshape(-1, 2))


@pytest.mark.parametrize("seed", range(3))
def test_frontier_value_matches_loop(seed):
    rng = np.random.default_rng(seed)
    chain = geometry.concave_chain(geometry.pareto_corners(rng.random((300, 2))))
    steps = geometry.staircase_polyline(chain)  # repeated x
    for poly in (chain, steps, chain[:1]):
        xs = np.concatenate([poly[:, 0], rng.random(200) * 1.2 - 0.1])
        for x in xs.tolist():
            want = loop_frontier_value(poly.tolist(), x)
            assert geometry.frontier_value(poly, x) == want


# ---------------------------------------------------------------------------
# frontier-chain drops and gaps against the independent polyline distance


@pytest.fixture(scope="module", params=[1e-3, 10.0, 1e10], ids=lambda p: f"P{p:g}")
def dual_hulls(request, example_channel):
    """The alpha and beta boundaries of the example and of seeded 2-, 3- and
    8-antenna complex channels at one power."""
    power = request.param
    channels = [dataclasses.replace(example_channel, power=power)]
    for dim in (2, 3, 8):
        h, g, p = _oracles.random_channel(np.random.default_rng(70 + dim), dim, power, "complex")
        channels.append(ChannelPair(h, g, p, "complex"))
    return [(capacity_region(ch), capacity_region_beta(ch)) for ch in channels]


def coordinate_ulp(*chains):
    return np.spacing(max(float(np.abs(c).max()) for c in chains))


def test_chain_gap_bounds_the_sampled_distance(dual_hulls):
    # each direction is at least the sampled distance, and not far above it
    for ba, bb in dual_hulls:
        a, b = ba.frontier(), bb.frontier()
        ulp = coordinate_ulp(a, b)
        for (p, q), gap in zip(((a, b), (b, a)), geometry.chain_gap(a, b)):
            sampled = _oracles.sampled_distance(p, q, 512)
            assert sampled - 8 * ulp <= gap <= 1.5 * sampled


def test_corner_drops_bound_the_distance(dual_hulls):
    # the lesser |drop| of each swept alpha corner, as `region --beta-check`
    # reports it, is at least its distance to the beta hull
    for ba, bb in dual_hulls:
        v, h = geometry.chain_drops(ba.points, bb.frontier())
        dist = _oracles.polyline_distance(ba.points, bb.frontier())
        ulp = coordinate_ulp(ba.points, bb.frontier())
        assert np.all(np.minimum(np.abs(v), np.abs(h)) >= dist - 8 * ulp)


def test_chain_gap_of_a_notch():
    # the bulge of b sits 0.1 above a both vertically and horizontally; the
    # distance is 0.1 / sqrt(2), which the bound does not see
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [0.5, 0.6], [1.0, 0.0]])
    for gap in geometry.chain_gap(a, b):
        assert abs(gap - 0.1) <= 2 * np.spacing(0.1)
    true = _oracles.sampled_hausdorff(a, b, 2)
    assert abs(true - 0.1 / math.sqrt(2.0)) <= 2 * np.spacing(0.1)


def test_chain_gap_of_equal_chains_is_zero(example_channel):
    hull = capacity_region(example_channel).frontier()
    assert geometry.chain_gap(hull, hull.copy()) == (0.0, 0.0)
    point = capacity_region(dataclasses.replace(example_channel, power=0.0)).frontier()
    assert point.tolist() == [[0.0, 0.0]]
    assert geometry.chain_gap(point, point) == (0.0, 0.0)
