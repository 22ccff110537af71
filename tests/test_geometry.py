"""Point-to-polyline distances against a brute-force all-segments loop, and
the Pareto, hull, resampling and interpolation routines against the loops
they replace."""

import bisect
import math

import numpy as np
import pytest

from secrecy_region import geometry


def brute_min_distances(points, poly):
    """Minimum over every segment, one segment at a time, with the same
    per-pair arithmetic as `geometry.min_distances`."""
    pts = np.asarray([(p[0], p[1]) for p in points], dtype=float).reshape(-1, 2)
    line = np.asarray([(p[0], p[1]) for p in poly], dtype=float).reshape(-1, 2)
    px, py = pts[:, 0], pts[:, 1]
    if line.shape[0] == 0:
        return np.full(px.shape[0], np.inf)
    if line.shape[0] == 1:
        return np.hypot(px - line[0, 0], py - line[0, 1])
    best = np.full(px.shape[0], np.inf)
    for i in range(line.shape[0] - 1):
        best = np.minimum(best, pair_d2(px, py, line[i], line[i + 1]))
    return np.sqrt(best)


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


def random_points(rng, n):
    return [(float(x), float(y)) for x, y in rng.random((n, 2))]


def concave_case(rng):
    chain = geometry.concave_chain(geometry.pareto_corners(random_points(rng, 400)))
    near = np.array(chain) + 1e-9 * rng.standard_normal((len(chain), 2))
    return list(near) + random_points(rng, 300), chain


def staircase_case(rng):
    corners = geometry.pareto_corners(random_points(rng, 300))
    stairs = geometry.staircase_polyline(corners)
    return random_points(rng, 400) + list(stairs), stairs


def repeated_vertices_case(rng):
    xs = np.sort(rng.integers(0, 8, 60)).astype(float)
    ys = rng.integers(0, 4, 60).astype(float)
    poly = [(x, y) for x, y in zip(xs, ys)]
    poly = poly[:10] + [poly[10]] * 3 + poly[10:]
    pts = rng.integers(-2, 10, (200, 2)).astype(float) + 0.5 * rng.random((200, 2))
    return list(pts) + poly, poly


def far_points_case(rng):
    chain = geometry.concave_chain(geometry.pareto_corners(random_points(rng, 400)))
    return list(rng.standard_normal((300, 2)) * 1e3), chain


def mixed_width_case(rng):
    # near points with windows of a few segments, and a few far ones (the
    # arc's centre among them) whose windows span most of a 2,400-vertex arc
    th = np.sort(rng.random(2400)) * 0.5 * math.pi
    chain = np.column_stack([np.cos(th), np.sin(th)])
    near = chain[::4] + 1e-9 * rng.standard_normal((600, 2))
    far = list(rng.standard_normal((6, 2)) * 3.0) + [(0.0, 0.0), (-5.0, 0.5)]
    return list(near) + far, chain


def decreasing_x_case(rng):
    chain = geometry.concave_chain(geometry.pareto_corners(random_points(rng, 400)))
    return random_points(rng, 300), chain[::-1]


def non_monotone_case(rng):
    return list(rng.standard_normal((300, 2))), list(rng.standard_normal((80, 2)))


def scaled_case(scale):
    def case(rng):
        chain = geometry.concave_chain(geometry.pareto_corners(random_points(rng, 200)))
        poly = [(scale * x, scale * y) for x, y in chain]
        return list(scale * rng.random((200, 2)) * 1.5), poly

    case.__name__ = f"scaled_case_{scale:.0e}"
    return case


def non_finite_points_case(rng):
    chain = geometry.concave_chain(geometry.pareto_corners(random_points(rng, 100)))
    return [(np.nan, 0.5), (np.inf, 0.5), (0.5, -np.inf), (0.3, 0.3)], chain


def single_vertex_case(rng):
    return random_points(rng, 50), [(0.5, 0.25)]


def empty_polyline_case(rng):
    return random_points(rng, 5), []


def empty_points_case(rng):
    return [], geometry.concave_chain(geometry.pareto_corners(random_points(rng, 20)))


CASES = [
    concave_case,
    staircase_case,
    repeated_vertices_case,
    far_points_case,
    mixed_width_case,
    decreasing_x_case,
    non_monotone_case,
    scaled_case(1e-160),
    scaled_case(1e-100),
    scaled_case(1e100),
    scaled_case(1e149),
    scaled_case(1e200),
    non_finite_points_case,
    single_vertex_case,
    empty_polyline_case,
    empty_points_case,
]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_distances_equal_brute_force(case, seed):
    points, poly = case(np.random.default_rng(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        got = geometry.min_distances(points, poly)
        want = brute_min_distances(points, poly)
    assert got.shape == (len(points),)
    np.testing.assert_array_equal(got, want)


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
    pts = [(float(p[0]), float(p[1])) for p in poly]
    if len(pts) < 2:
        return pts
    seg = [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])]
    total = 0.0
    acc = [0.0]
    for s in seg:
        total += s
        acc.append(acc[-1] + s)
    if total == 0.0:
        return [pts[0]]
    out = list(pts)
    for k in range(1, samples):
        target = total * k / samples
        i = min(bisect.bisect_right(acc, target) - 1, len(seg) - 1)
        w = (target - acc[i]) / seg[i] if seg[i] > 0 else 0.0
        out.append(
            (pts[i][0] + w * (pts[i + 1][0] - pts[i][0]),
             pts[i][1] + w * (pts[i + 1][1] - pts[i][1]))
        )
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
    rng = np.random.default_rng(seed)
    chain = geometry.concave_chain(geometry.pareto_corners(rng.random((400, 2))))
    repeated = np.vstack([chain[:5], chain[4:5], chain[4:]])
    for poly in (chain, repeated, chain[:2], chain[:1], np.repeat(chain[:1], 3, axis=0)):
        for samples in (1, 2, 513):
            want = np.array(loop_resample_polyline(poly.tolist(), samples))
            got = geometry.resample_polyline(poly, samples)
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
