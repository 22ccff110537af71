"""Planar geometry helpers for rate regions.

Regions here are down-closed subsets of the first quadrant described by
their Pareto frontier: either the concave chain of a convex hull or the
non-dominated corners of a union of axis-aligned rectangles.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

#: coordinates closer than this merge during deduplication
DEDUP_TOL = 1e-12


def pareto_corners(points: list[tuple], tol: float = DEDUP_TOL) -> list[tuple]:
    """Non-dominated points, sorted with x strictly increasing, y strictly
    decreasing. `points` are (x, y, *tags); tags ride along.

    A point survives iff no other point is >= in both coordinates (ties
    within tol collapse to one representative).
    """
    if not points:
        return []
    pts = sorted(points, key=lambda p: (p[0], p[1]))
    kept: list[tuple] = []
    best_y = -math.inf
    for p in reversed(pts):  # descending x
        if p[1] > best_y + tol:
            kept.append(p)
            best_y = p[1]
    kept.reverse()
    # collapse near-duplicate x (keep the higher-y representative, which is
    # the earlier entry since y decreases along the list)
    out: list[tuple] = []
    for p in kept:
        if out and abs(p[0] - out[-1][0]) <= tol:
            continue
        out.append(p)
    return out


def concave_chain(points: list[tuple]) -> list[tuple]:
    """Upper-right convex-hull chain of a Pareto-sorted point list.

    Input must come from pareto_corners. Drops points on or below the
    chord of their neighbours, so consecutive segment slopes end up
    strictly decreasing.
    """
    if len(points) <= 2:
        return list(points)
    chain: list[tuple] = []
    for p in points:
        while len(chain) >= 2:
            ax, ay = chain[-2][0], chain[-2][1]
            bx, by = chain[-1][0], chain[-1][1]
            cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            if cross >= 0.0:  # chain[-1] not strictly above chord a-p
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def frontier_value(frontier: list[tuple], x: float) -> float:
    """Height of the frontier polyline at abscissa x (-inf beyond the end).

    For a single-point frontier the region is the dominated rectangle.
    """
    if not frontier:
        return -math.inf
    xs = [p[0] for p in frontier]
    if x > xs[-1]:
        return -math.inf
    if len(frontier) == 1 or x <= xs[0]:
        return frontier[0][1]
    i = bisect.bisect_right(xs, x)
    i = min(max(i, 1), len(xs) - 1)
    x0, y0 = frontier[i - 1][0], frontier[i - 1][1]
    x1, y1 = frontier[i][0], frontier[i][1]
    if x1 == x0:
        return max(y0, y1)
    w = (x - x0) / (x1 - x0)
    return y0 + w * (y1 - y0)


def contains_convex(frontier: list[tuple], x: float, y: float, tol: float) -> bool:
    """Is (x, y) dominated by the concave frontier polyline (within tol)?"""
    if x < -tol or y < -tol:
        return False
    if not frontier:
        return x <= tol and y <= tol
    if x > frontier[-1][0] + tol:
        return False
    bound = frontier_value(frontier, min(x, frontier[-1][0]))
    return y <= bound + tol


def contains_staircase(corners: list[tuple], x: float, y: float, tol: float) -> bool:
    """Is (x, y) inside the union of rectangles [0,cx]x[0,cy] (within tol)?"""
    if x < -tol or y < -tol:
        return False
    if x <= tol and y <= tol:
        return True
    return any(x <= cx + tol and y <= cy + tol for cx, cy, *_ in corners)


def staircase_polyline(corners: list[tuple]) -> list[tuple[float, float]]:
    """Boundary polyline of a union of corner-dominated rectangles.

    Input: Pareto-sorted corners. Output walks (0, y1) .. (x1, y1),
    (x1, y2), (x2, y2), ... ending at (xn, 0).
    """
    if not corners:
        return [(0.0, 0.0)]
    poly: list[tuple[float, float]] = [(0.0, corners[0][1])]
    for i, c in enumerate(corners):
        poly.append((c[0], c[1]))
        nxt = corners[i + 1][1] if i + 1 < len(corners) else 0.0
        poly.append((c[0], nxt))
    return poly


def segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its own segment [a, b].

    All three are (n, 2) arrays; row i pairs points[i] with segment i.
    """
    px, py = points[:, 0], points[:, 1]
    ax, ay = a[:, 0], a[:, 1]
    vx, vy = b[:, 0] - ax, b[:, 1] - ay
    ll = vx * vx + vy * vy
    t = ((px - ax) * vx + (py - ay) * vy) / np.where(ll > 0.0, ll, 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * vx), py - (ay + t * vy))


def min_distances(points, poly) -> np.ndarray:
    """Distance from each point to a polyline, vectorized and chunked."""
    pts = np.asarray([(p[0], p[1]) for p in points], dtype=float)
    line = np.asarray([(p[0], p[1]) for p in poly], dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    if line.shape[0] == 0:
        return np.full(pts.shape[0], np.inf)
    if line.shape[0] == 1:
        return np.hypot(pts[:, 0] - line[0, 0], pts[:, 1] - line[0, 1])
    a = line[:-1]
    v = line[1:] - a
    ll = (v * v).sum(axis=1)
    safe_ll = np.where(ll > 0.0, ll, 1.0)
    out = np.empty(pts.shape[0])
    chunk = max(1, int(2_000_000 / max(line.shape[0], 1)))
    for lo in range(0, pts.shape[0], chunk):
        block = pts[lo : lo + chunk]
        diff = block[:, None, :] - a[None, :, :]
        t = np.clip((diff * v[None, :, :]).sum(-1) / safe_ll, 0.0, 1.0)
        proj = diff - t[:, :, None] * v[None, :, :]
        d2 = (proj * proj).sum(-1)
        out[lo : lo + chunk] = np.sqrt(d2.min(axis=1))
    return out


def resample_polyline(
    poly: list[tuple], samples: int, include_vertices: bool = True
) -> list[tuple[float, float]]:
    """`samples` points uniform in arc length, plus the vertices by default."""
    pts = [(float(p[0]), float(p[1])) for p in poly]
    if len(pts) < 2:
        return pts
    seg_len = [
        math.hypot(pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1])
        for i in range(len(pts) - 1)
    ]
    total = sum(seg_len)
    if total == 0.0:
        return [pts[0]]
    out = list(pts) if include_vertices else [pts[0], pts[-1]]
    acc = [0.0]
    for sl in seg_len:
        acc.append(acc[-1] + sl)
    for k in range(1, samples):
        target = total * k / samples
        i = bisect.bisect_right(acc, target) - 1
        i = min(i, len(seg_len) - 1)
        w = (target - acc[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
        out.append(
            (
                pts[i][0] + w * (pts[i + 1][0] - pts[i][0]),
                pts[i][1] + w * (pts[i + 1][1] - pts[i][1]),
            )
        )
    return out


def hausdorff_distance(
    poly_a: list[tuple], poly_b: list[tuple], samples: int = 2048
) -> float:
    """Symmetric Hausdorff distance between two polylines.

    Each polyline is resampled to `samples` points uniform in arc length
    (vertices always included) and measured against the other exactly.
    """
    pa = resample_polyline(poly_a, samples)
    pb = resample_polyline(poly_b, samples)
    if not pa or not pb:
        return math.inf
    d_ab = float(min_distances(pa, poly_b).max())
    d_ba = float(min_distances(pb, poly_a).max())
    return max(d_ab, d_ba)
