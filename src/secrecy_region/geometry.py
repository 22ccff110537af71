"""Planar geometry helpers for rate regions.

Regions here are down-closed subsets of the first quadrant described by
their Pareto frontier: either the concave chain of a convex hull or the
non-dominated corners of a union of axis-aligned rectangles.
"""
from __future__ import annotations

import math

import numpy as np

#: coordinates closer than this merge during deduplication
DEDUP_TOL = 1e-12


def pareto_corners(points) -> np.ndarray:
    """Non-dominated rows of an (n, k) array of (x, y, *tags), sorted with
    x strictly increasing, y strictly decreasing; tags ride along.

    A point survives iff no other point is >= in both coordinates (ties
    within DEDUP_TOL collapse to one representative). Only the rows that
    `pareto_candidates` keeps are scanned.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return np.zeros((0, 2))
    rows = pts[pareto_candidates(pts[:, 0], pts[:, 1])][::-1]
    # by descending x, keep a row whose y clears the last kept y by DEDUP_TOL
    rows = rows[_scan_keep(rows[:, 1], lambda a, b: a > b + DEDUP_TOL)][::-1]
    # collapse near-duplicate x onto the first, higher-y, representative
    return rows[_scan_keep(rows[:, 0], lambda a, b: abs(a - b) > DEDUP_TOL)]


def _scan_keep(v: np.ndarray, keeps) -> list[int]:
    """Indices kept by a scan that keeps v[0], then each v[i] for which
    keeps(v[i], v[last kept]) holds.

    While the last kept entry is the previous one the test is that of
    consecutive entries, evaluated for all of them at once; the scan
    steps one entry at a time only past the entries where it fails.
    """
    n = len(v)
    if n == 0:
        return []
    fails = (np.flatnonzero(~keeps(v[1:], v[:-1])) + 1).tolist() + [n]
    vals = v.tolist()
    kept, i, f = [0], 1, 0
    while i < n:
        if kept[-1] == i - 1:
            while fails[f] < i:
                f += 1
            kept.extend(range(i, fails[f]))
            i = fails[f]
            if i == n:
                break
        if keeps(vals[i], vals[kept[-1]]):
            kept.append(i)
        i += 1
    return kept


def pareto_candidates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the points that can survive pareto_corners, in its
    stable (x, y) sort order.

    A point is a candidate when its y exceeds that of every point after it
    in that order. Every point pareto_corners keeps is a candidate, and
    dropping the others changes none of its decisions, so pareto_corners
    gives the same list on the candidates as on all points.
    """
    order = np.lexsort((y, x))
    ys = y[order]
    later = np.maximum.accumulate(ys[::-1])[::-1]
    beaten = np.append(later[1:], -np.inf)
    return order[ys > beaten]


def concave_chain(points) -> np.ndarray:
    """Upper-right convex-hull chain of a Pareto-sorted point array.

    Input must come from pareto_corners. Drops points on or below the
    chord of their neighbours, so consecutive segment slopes end up
    strictly decreasing. The stack scan tests each point against the top
    two chain points; while these are the two rows before it, that test
    is the cross product of three consecutive rows, evaluated for all
    rows at once, and the scan steps row by row only from the rows where
    it pops (none on a swept concave frontier).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n <= 2:
        return pts
    x, y = pts[:, 0], pts[:, 1]

    def cross(a, b, p):  # >= 0: b is not strictly above the chord a-p
        return (x[b] - x[a]) * (y[p] - y[a]) - (y[b] - y[a]) * (x[p] - x[a])

    i = np.arange(2, n)
    pops = (np.flatnonzero(cross(i - 2, i - 1, i) >= 0.0) + 2).tolist() + [n]
    x, y = x.tolist(), y.tolist()  # cross() on single rows from here on
    chain, k, f = [0, 1], 2, 0
    while k < n:
        if chain[-2:] == [k - 2, k - 1]:
            while pops[f] < k:
                f += 1
            chain.extend(range(k, pops[f]))
            k = pops[f]
            if k == n:
                break
        while len(chain) >= 2 and cross(chain[-2], chain[-1], k) >= 0.0:
            chain.pop()
        chain.append(k)
        k += 1
    return pts[chain]


def frontier_value(frontier, x: float) -> float:
    """Height of the frontier polyline at abscissa x (-inf beyond the end).

    For a single-point frontier the region is the dominated rectangle.
    """
    frontier = np.asarray(frontier, dtype=float)
    if len(frontier) == 0 or x > frontier[-1, 0]:
        return -math.inf
    if len(frontier) == 1 or x <= frontier[0, 0]:
        return float(frontier[0, 1])
    i = int(np.searchsorted(frontier[:, 0], x, side="right"))
    i = min(max(i, 1), len(frontier) - 1)
    (x0, y0), (x1, y1) = frontier[i - 1 : i + 1].tolist()
    if x1 == x0:
        return max(y0, y1)
    w = (x - x0) / (x1 - x0)
    return y0 + w * (y1 - y0)


def contains_convex(frontier, x: float, y: float, tol: float) -> bool:
    """Is (x, y) dominated by the concave frontier polyline (within tol)?"""
    frontier = np.asarray(frontier, dtype=float)
    if x < -tol or y < -tol:
        return False
    if len(frontier) == 0:
        return x <= tol and y <= tol
    end = float(frontier[-1, 0])
    if x > end + tol:
        return False
    return y <= frontier_value(frontier, min(x, end)) + tol


def contains_staircase(corners, x: float, y: float, tol: float) -> bool:
    """Is (x, y) inside the union of rectangles [0,cx]x[0,cy] (within tol)?"""
    if x < -tol or y < -tol:
        return False
    if x <= tol and y <= tol:
        return True
    c = _xy(corners)
    return bool(np.any((x <= c[:, 0] + tol) & (y <= c[:, 1] + tol)))


def staircase_polyline(corners) -> np.ndarray:
    """Boundary polyline of a union of corner-dominated rectangles.

    Input: Pareto-sorted corners. Output walks (0, y1) .. (x1, y1),
    (x1, y2), (x2, y2), ... ending at (xn, 0).
    """
    c = _xy(corners)
    if len(c) == 0:
        return np.zeros((1, 2))
    xs, ys = c[:, 0], c[:, 1]
    steps = np.column_stack([xs, ys, xs, np.append(ys[1:], 0.0)]).reshape(-1, 2)
    return np.vstack([[0.0, ys[0]], steps])


def segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its own segment [a, b].

    All three are (n, 2) arrays; row i pairs points[i] with segment i.
    """
    return np.sqrt(_segment_d2(points[:, 0], points[:, 1], *_segments(a, b)))


#: window padding, relative to the coordinate scale, that covers the
#: rounding of the per-pair distance (a few ulps of that scale)
WINDOW_PAD = 2.0**-30
#: coordinate scale below which no per-pair product can overflow
WINDOW_SCALE_MAX = 1e150


def _xy(seq) -> np.ndarray:
    """(n, 2) float array of the first two coordinates of each row."""
    a = np.asarray(seq, dtype=float)
    return a.reshape(len(a), -1)[:, :2] if len(a) else np.zeros((0, 2))


def _segments(a: np.ndarray, b: np.ndarray):
    """(ax, ay, vx, vy, ll) of the segments a -> b, for `_segment_d2`."""
    ax, ay = a[:, 0], a[:, 1]
    vx, vy = b[:, 0] - ax, b[:, 1] - ay
    ll = vx * vx + vy * vy
    return ax, ay, vx, vy, np.where(ll > 0.0, ll, 1.0)


def _segment_d2(px, py, ax, ay, vx, vy, ll):
    """Squared distance from (px, py) to the segments a + t v, t in [0, 1].

    Broadcasts; `ll` is |v|^2 with zero-length segments mapped to 1.
    """
    dx = px - ax
    dy = py - ay
    t = np.clip((dx * vx + dy * vy) / ll, 0.0, 1.0)
    ex = dx - t * vx
    ey = dy - t * vy
    return ex * ex + ey * ey


def min_distances(points, poly) -> np.ndarray:
    """Distance from each point to a polyline, exact for any input.

    Each point is measured against a window [lo, hi] of segments. When
    the vertex x is non-decreasing (every frontier and staircase here),
    a segment nearer than the bracketing segments must overlap
    [px - d0, px + d0] in x, where d0 is the padded distance to the
    segments around the point's x; in an x-sorted chain those form one
    index range. Other polylines, and points whose padding overflows, use
    the whole chain [0, M - 1]. One pass over the offset k measures
    segment lo + k for every point whose window reaches that far, with
    the points sorted by window width so those form a prefix. The windows
    hold every segment that can attain the minimum, so the result equals
    the all-segments minimum bitwise.
    """
    pts, line = _xy(points), _xy(poly)
    if pts.size == 0:
        return np.zeros(0)
    if line.shape[0] == 0:
        return np.full(pts.shape[0], np.inf)
    if line.shape[0] == 1:
        return np.hypot(pts[:, 0] - line[0, 0], pts[:, 1] - line[0, 1])
    px, py = pts[:, 0], pts[:, 1]
    xs = line[:, 0]
    ax, ay, vx, vy, ll = _segments(line[:-1], line[1:])
    n, m = pts.shape[0], ax.shape[0]
    lo = np.zeros(n, dtype=np.intp)
    width = np.full(n, m, dtype=np.intp)

    scale = float(np.abs(line).max())
    if scale < WINDOW_SCALE_MAX and bool(np.all(xs[1:] >= xs[:-1])):
        j = np.searchsorted(xs, px)
        near = np.clip(np.stack([j - 1, j], axis=1), 0, m - 1)
        d2 = _segment_d2(
            px[:, None], py[:, None], ax[near], ay[near], vx[near], vy[near], ll[near]
        )
        pt_scale = np.abs(px) + np.abs(py) + scale
        # the 2**-500 floor keeps the padding clear of subnormal rounding
        reach = (
            np.sqrt(d2.min(axis=1)) * (1.0 + WINDOW_PAD)
            + WINDOW_PAD * pt_scale
            + 2.0**-500
        )
        # segment i spans [xs[i], xs[i + 1]] in x
        w_lo = np.maximum(np.searchsorted(xs, px - reach, side="left") - 1, 0)
        w_hi = np.minimum(np.searchsorted(xs, px + reach, side="right") - 1, m - 1)
        ok = np.isfinite(reach) & (pt_scale < WINDOW_SCALE_MAX) & (w_hi >= w_lo)
        lo[ok], width[ok] = w_lo[ok], (w_hi - w_lo + 1)[ok]

    # widest window first: at offset k the points still measured are the
    # first live[k], whose windows hold more than k segments
    order = np.argsort(-width)
    lo, px, py, width = lo[order], px[order], py[order], width[order]
    live = np.searchsorted(-width, -np.arange(width[0]), side="left")
    best = np.full(n, np.inf)
    for k, c in enumerate(live.tolist()):
        s = lo[:c] + k
        d2 = _segment_d2(px[:c], py[:c], ax[s], ay[s], vx[s], vy[s], ll[s])
        np.minimum(best[:c], d2, out=best[:c])
    out = np.empty(n)
    out[order] = np.sqrt(best)
    return out


def resample_polyline(poly, samples: int) -> np.ndarray:
    """The vertices, then the points that cut the arc length into
    `samples` equal parts."""
    pts = _xy(poly)
    if len(pts) < 2:
        return pts
    d = np.diff(pts, axis=0)
    # math.hypot: np.hypot calls the C library's, which may round otherwise
    seg = np.fromiter(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()), float)
    acc = np.concatenate([[0.0], np.cumsum(seg)])
    total = acc[-1]
    if total == 0.0:
        return pts[:1]
    target = total * np.arange(1, samples) / samples
    i = np.minimum(np.searchsorted(acc, target, side="right") - 1, len(seg) - 1)
    live = seg[i] > 0.0
    w = np.where(live, (target - acc[i]) / np.where(live, seg[i], 1.0), 0.0)
    return np.vstack([pts, pts[i] + w[:, None] * d[i]])


def hausdorff_distance(poly_a, poly_b, samples: int = 2048) -> float:
    """Symmetric Hausdorff distance between two polylines.

    Each polyline's vertices and the points that cut its arc length
    into `samples` equal parts are measured against the other exactly.
    """
    pa = resample_polyline(poly_a, samples)
    pb = resample_polyline(poly_b, samples)
    if len(pa) == 0 or len(pb) == 0:
        return math.inf
    d_ab = float(min_distances(pa, poly_b).max())
    d_ba = float(min_distances(pb, poly_a).max())
    return max(d_ab, d_ba)
