"""Point-to-polyline distances against a brute-force all-segments loop."""

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
        ax, ay = line[i]
        vx, vy = line[i + 1, 0] - ax, line[i + 1, 1] - ay
        ll = vx * vx + vy * vy
        ll = ll if ll > 0.0 else 1.0
        dx, dy = px - ax, py - ay
        t = np.clip((dx * vx + dy * vy) / ll, 0.0, 1.0)
        ex, ey = dx - t * vx, dy - t * vy
        best = np.minimum(best, ex * ex + ey * ey)
    return np.sqrt(best)


def random_points(rng, n):
    return [(float(x), float(y)) for x, y in rng.random((n, 2))]


def concave_case(rng):
    chain = geometry.concave_chain(geometry.pareto_corners(random_points(rng, 400)))
    near = np.array(chain) + 1e-9 * rng.standard_normal((len(chain), 2))
    return list(near) + random_points(rng, 300), chain


def staircase_case(rng):
    corners = geometry.pareto_corners(random_points(rng, 300))
    stairs = geometry.staircase_polyline(corners)
    return random_points(rng, 400) + stairs, stairs


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
    assert geometry.pareto_corners(subset) == geometry.pareto_corners(points)
