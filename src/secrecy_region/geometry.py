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
    ax, ay = a[:, 0], a[:, 1]
    vx, vy = b[:, 0] - ax, b[:, 1] - ay
    ll = vx * vx + vy * vy
    dx = points[:, 0] - ax
    dy = points[:, 1] - ay
    t = np.clip((dx * vx + dy * vy) / np.where(ll > 0.0, ll, 1.0), 0.0, 1.0)
    ex = dx - t * vx
    ey = dy - t * vy
    return np.sqrt(ex * ex + ey * ey)


def _xy(seq) -> np.ndarray:
    """(n, 2) float array of the first two coordinates of each row."""
    a = np.asarray(seq, dtype=float)
    return a.reshape(len(a), -1)[:, :2] if len(a) else np.zeros((0, 2))


def chain_drops(points: np.ndarray, chain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed vertical and horizontal drop of each point below a frontier
    chain: how far the chain lies above it, and how far to its right.

    Past its ends np.interp continues the chain level to the left and
    straight down to the right, so either move reaches the boundary of the
    chain's down-closed region.
    """
    (x, y), (px, py) = chain[:, :2].T, points[:, :2].T
    return np.interp(px, x, y) - py, np.interp(-py, -y, x) - px


def chain_gap(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Upper bounds on the directed distances a -> b and b -> a between
    frontier chains that share their intercepts.

    From a point on an edge, the vertical and the horizontal move to the
    other chain have piecewise linear lengths, with kinks only at the knots
    of either chain that the edge spans: in x for the vertical move, in -y
    for the horizontal one. So the lesser of the two largest knot drops
    over an edge bounds the distance from each of its points. Chains with
    the same vertices give exactly 0.
    """
    (va, ha), (vb, hb) = chain_drops(a, b), chain_drops(b, a)
    v, sva, svb = _merge(np.abs(va), np.abs(vb), a[:, 0], b[:, 0])
    h, sha, shb = _merge(np.abs(ha), np.abs(hb), -a[:, 1], -b[:, 1])
    return tuple(  # per edge, the lesser of its largest |drop| in v and in h
        float(np.minimum(_span_max(v, sv), _span_max(h, sh)).max())
        for sv, sh in ((sva, sha), (svb, shb))
    )


def _merge(da, db, ka, kb):
    """The values da at the increasing knots ka and db at kb in one array,
    in merged knot order (ka first at ties), and the slots of ka and kb."""
    sa = np.arange(len(ka)) + np.searchsorted(kb, ka, side="left")
    sb = np.arange(len(kb)) + np.searchsorted(ka, kb, side="right")
    merged = np.empty(len(ka) + len(kb))
    merged[sa], merged[sb] = da, db
    return merged, sa, sb


def _span_max(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The largest d[s[i]] .. d[s[i + 1]] for each edge i of a chain at the
    slots s; a one-vertex chain is its vertex."""
    if len(s) == 1:
        return d[s]
    return np.maximum(np.maximum.reduceat(d, s)[:-1], d[s[1:]])
