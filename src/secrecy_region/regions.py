"""Achievable-rate region sweep, corner points and region geometry.

The boundary of the secrecy capacity region is traced by a one-parameter
family of axis-aligned rectangles. For the direct parametrization alpha,
user 1's bound is the closed-form ratio gamma1(alpha) and user 2's bound
gamma2(alpha) is the top eigenvalue of an alpha-dependent pencil; the dual
parametrization beta exchanges the users' roles. The region itself is the
convex hull of all swept rectangles; its Pareto frontier is returned with
the generating parameter of every vertex.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, linalg
from .channel import ChannelPair, ChannelSpectrum, rate_scale, spectrum
from .errors import ParamOutOfRange

PARAM_ALPHA = "alpha"
PARAM_BETA = "beta"


class RatePair(NamedTuple):
    """A point in rate space, bits per channel use."""

    r1: float
    r2: float


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """Swept rectangle corners plus the Pareto frontier of their hull.

    params      -- (n,) swept parameters, increasing
    points      -- (n, 2) rectangle corners (r1, r2), one row per parameter
    hull        -- (m, 2) frontier vertices, r1 strictly increasing
    hull_params -- (m,) generating parameter of each hull vertex
    kind        -- "alpha" / "beta" sweeps are convex frontiers;
                   "outer" and "timeshare" boundaries reuse the container
    hull_union_gap -- distance from the hull to the swept corner curve
                   (how much the convex-hull operator added to the union)
    """

    params: np.ndarray
    points: np.ndarray
    hull: np.ndarray
    hull_params: np.ndarray
    kind: str = PARAM_ALPHA
    hull_union_gap: float = 0.0

    def __post_init__(self):
        # frontier() and the callers' slices are views: keep them read-only
        for a in (self.params, self.points, self.hull, self.hull_params):
            a.flags.writeable = False

    def frontier(self) -> np.ndarray:
        return self.hull

    @property
    def r1_max(self) -> float:
        return float(self.hull[-1, 0]) if len(self.hull) else 0.0

    @property
    def r2_max(self) -> float:
        return float(self.hull[0, 1]) if len(self.hull) else 0.0


#: weights w of the golden-section searches for argmax r1 + w * r2
REFINE_WEIGHTS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: golden-section steps per weight, and the bracket width that ends them
REFINE_ITERS = 30
REFINE_INTERVAL_TOL = 1e-10
#: cap on the swept parameters of one sweep
MAX_POINTS = 20000


@dataclass(frozen=True)
class SweepConfig:
    """Controls for the boundary sweep.

    The uniform base grid is refined two ways: subdivision, which splits
    a chord whose sagitta exceeds `sagitta_tol` or whose length exceeds
    `segment_tol` (the outer bound's staircase needs short steps rather
    than low sagitta), and (with `refine`) golden-section searches that
    pin the maximizer of r1 + w * r2 for each weight in `REFINE_WEIGHTS`.
    With both tolerances None the sweep is the exact base grid. A sweep
    stops adding parameters at `MAX_POINTS`.
    """

    grid_points: int = 512
    sagitta_tol: float | None = 1e-7
    segment_tol: float | None = None
    refine: bool = True

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError("grid needs at least 2 points")


def _check_param(value, name: str):
    """A parameter (scalar or array) checked against [0, 1]; scalars come
    back as float, arrays as float arrays."""
    if type(value) is float:
        if 0.0 <= value <= 1.0:
            return value
        raise ParamOutOfRange(f"{name} must lie in [0, 1], got {value}")
    v = np.asarray(value, dtype=float)
    inside = (v >= 0.0) & (v <= 1.0)
    if not np.all(inside):
        bad = v if v.ndim == 0 else v[~inside][0]
        raise ParamOutOfRange(f"{name} must lie in [0, 1], got {bad}")
    return float(v) if v.ndim == 0 else v


def _split_weights(ch: ChannelPair, first: float, second: float, frac):
    """Residual-pencil weights (1-f)P / (1 + fP|v^H e|^2) for both users,
    given |first^H e|^2, |second^H e|^2 of the first-stage eigenvector e."""
    p = ch.power
    rest = (1.0 - frac) * p
    return rest / (1.0 + frac * p * first), rest / (1.0 + frac * p * second)


def gamma1(ch: ChannelPair, spec: ChannelSpectrum, alpha):
    """User 1's rate ratio (1 + aP|h^H e1|^2) / (1 + aP|g^H e1|^2).

    alpha may be a scalar or an array of splits.
    """
    a = _check_param(alpha, "alpha")
    p = ch.power
    num = 1.0 + a * p * abs(np.vdot(ch.h, spec.e1)) ** 2
    den = 1.0 + a * p * abs(np.vdot(ch.g, spec.e1)) ** 2
    return num / den


def gamma2(ch: ChannelPair, spec: ChannelSpectrum, alpha):
    """User 2's bound: top eigenpair of the alpha-scaled residual pencil.

    The pencil is (I + s_g g g^H, I + s_h h h^H) with
    s_g = (1-a)P / (1 + aP|g^H e1|^2) and s_h = (1-a)P / (1 + aP|h^H e1|^2).
    Returns (gamma2, c2); c2 feeds the rank-one covariance construction.
    For an array of splits both come back batched: shapes (n,) and (n, t).
    """
    a = _check_param(alpha, "alpha")
    s_g, s_h = _split_weights(
        ch, abs(np.vdot(ch.g, spec.e1)) ** 2, abs(np.vdot(ch.h, spec.e1)) ** 2, a
    )
    res = linalg.plane_top(ch.plane_gh, s_g, s_h)
    return (float(res.lam), res.vec) if np.ndim(a) == 0 else (res.lam, res.vec)


def xi2(ch: ChannelPair, spec: ChannelSpectrum, beta):
    """User 2's closed-form ratio in the role-exchanged parametrization."""
    b = _check_param(beta, "beta")
    p = ch.power
    num = 1.0 + b * p * abs(np.vdot(ch.g, spec.e2)) ** 2
    den = 1.0 + b * p * abs(np.vdot(ch.h, spec.e2)) ** 2
    return num / den


def xi1(ch: ChannelPair, spec: ChannelSpectrum, beta):
    """User 1's pencil eigenvalue in the role-exchanged parametrization.

    Scalar or batched like `gamma2`.
    """
    b = _check_param(beta, "beta")
    s_h, s_g = _split_weights(
        ch, abs(np.vdot(ch.h, spec.e2)) ** 2, abs(np.vdot(ch.g, spec.e2)) ** 2, b
    )
    res = linalg.plane_top(ch.plane_hg, s_h, s_g)
    return (float(res.lam), res.vec) if np.ndim(b) == 0 else (res.lam, res.vec)


def _log_rate(ratio: float, scale: float) -> float:
    return max(0.0, scale * math.log2(ratio)) if ratio > 0 else 0.0


def _intercepts(ch: ChannelPair, spec: ChannelSpectrum) -> tuple[float, float]:
    scale = rate_scale(ch)
    return _log_rate(spec.lambda1, scale), _log_rate(spec.lambda2, scale)


def max_rates(ch: ChannelPair) -> RatePair:
    """The two axis intercepts (scale*log2 lambda1, scale*log2 lambda2)."""
    r1, r2 = _intercepts(ch, spectrum(ch))
    return RatePair(r1, r2)


def miso_wiretap_capacity(ch: ChannelPair) -> float:
    """Secrecy capacity with user 2 demoted to a pure eavesdropper.

    Identical, bit for bit, to the r1 axis intercept of the full region.
    """
    return max_rates(ch).r1


#: rate corners for an array of parameters -> (r1 array, r2 array)
CornerFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _corner_fn(ch: ChannelPair, spec: ChannelSpectrum, param_kind: str) -> CornerFn:
    scale = rate_scale(ch)
    cap1, cap2 = _intercepts(ch, spec)

    def rates(ratio: np.ndarray, cap: float) -> np.ndarray:
        # corner identities bound the sweep by the intercepts; clamping
        # removes last-ulp overshoot so the hull endpoints stay exact
        positive = ratio > 0.0
        logs = scale * np.log2(np.where(positive, ratio, 1.0))
        return np.minimum(np.where(positive, np.maximum(logs, 0.0), 0.0), cap)

    def corners(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if param_kind == PARAM_ALPHA:
            ratio1 = gamma1(ch, spec, values)
            ratio2, _ = gamma2(ch, spec, values)
        else:
            ratio1, _ = xi1(ch, spec, values)
            ratio2 = xi2(ch, spec, values)
        return rates(ratio1, cap1), rates(ratio2, cap2)

    return corners


def _cache_arrays(cache: dict[float, tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The cached parameters, increasing, and their (n, 2) corners."""
    params = np.fromiter(cache, float, len(cache))
    points = np.fromiter(itertools.chain.from_iterable(cache.values()), float)
    order = np.argsort(params)
    return params[order], points.reshape(-1, 2)[order]


def _subdivide(corners: CornerFn, cache: dict[float, tuple], cfg: SweepConfig) -> None:
    """Insert parameters until every chord is flat and short enough.

    Runs level by level: all midpoints of one level go through one batched
    corner evaluation. An interval is split when its own sagitta (or chord
    length) test fails, so the parameters visited do not depend on the
    order; only the `MAX_POINTS` cap, applied in parameter order within a
    level, does.
    """
    params, corner = _cache_arrays(cache)
    # intervals [lo, hi] in parameter order, with their end corners a, b
    lo, hi, a, b = params[:-1], params[1:], corner[:-1], corner[1:]
    sagitta_tol = math.inf if cfg.sagitta_tol is None else cfg.sagitta_tol
    for _depth in range(41):
        live = np.flatnonzero(hi - lo >= 1e-12)[: max(MAX_POINTS - len(cache), 0)]
        if live.size == 0:
            return
        lo, hi, a, b = lo[live], hi[live], a[live], b[live]
        mid = 0.5 * (lo + hi)
        m1, m2 = corners(mid)
        m = np.stack([m1, m2], axis=1)
        cache.update(zip(mid.tolist(), zip(m1.tolist(), m2.tolist())))
        split = geometry.segment_distances(m, a, b) > sagitta_tol
        if cfg.segment_tol is not None:
            split |= np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) > cfg.segment_tol
        # each split interval becomes its halves [lo, mid], [mid, hi], in order
        s = np.flatnonzero(split)
        lo = np.stack([lo[s], mid[s]], axis=1).ravel()
        hi = np.stack([mid[s], hi[s]], axis=1).ravel()
        a = np.stack([a[s], m[s]], axis=1).reshape(-1, 2)
        b = np.stack([m[s], b[s]], axis=1).reshape(-1, 2)


def _add_corners(corners: CornerFn, cache: dict[float, tuple], values) -> None:
    """Cache the corners of the values not cached yet, in one batched call;
    beyond the `MAX_POINTS` cap, the values last in parameter order are
    left out."""
    new = sorted({v for v in values if v not in cache})
    new = new[: max(MAX_POINTS - len(cache), 0)]
    if new:
        r1, r2 = corners(np.array(new))
        cache.update(zip(new, zip(r1.tolist(), r2.tolist())))


def _golden_refine(corners: CornerFn, cache: dict[float, tuple]) -> None:
    """Golden-section search of argmax r1 + w*r2 for each weight.

    The searches run in lockstep: each step takes the new probe of every
    live search and evaluates those not cached yet in one batched corner
    call. A search depends on the others only through the `MAX_POINTS`
    cap, which ends the searches whose probe it leaves out; below the cap
    each visits the parameters it would visit alone.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def score(value: float, w: float) -> float:
        p = cache[value]
        return p[0] + w * p[1]

    lo, hi = 0.0, 1.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    _add_corners(corners, cache, [x1, x2])
    # one bracket [w, lo, hi, x1, x2] per weight, both probes scored
    live = [[w, lo, hi, x1, x2] for w in REFINE_WEIGHTS]
    for _ in range(REFINE_ITERS):
        live = [
            s for s in live
            if s[3] in cache and s[4] in cache and s[2] - s[1] >= REFINE_INTERVAL_TOL
        ]
        if not live or len(cache) >= MAX_POINTS:
            return
        for s in live:
            w, lo, hi, x1, x2 = s
            if score(x1, w) >= score(x2, w):
                hi, x2 = x2, x1
                x1 = hi - inv_phi * (hi - lo)
            else:
                lo, x1 = x1, x2
                x2 = lo + inv_phi * (hi - lo)
            s[1:] = lo, hi, x1, x2
        _add_corners(corners, cache, [x for s in live for x in s[3:]])


def _hull_union_gap(frontier: np.ndarray, curve: np.ndarray) -> float:
    """How far the hull strays from the swept corner curve (its Pareto
    corners).

    Zero (up to sweep sagitta) means the union of swept rectangles is
    already convex and the hull operator added nothing; a large value
    flags a convexification bridge over a non-concave stretch.
    """
    if len(frontier) < 2:
        return 0.0
    samples = geometry.resample_polyline(frontier, 512, include_vertices=False)
    return float(geometry.min_distances(samples, curve).max())


def _build_boundary(
    params: np.ndarray, points: np.ndarray, cap1: float, cap2: float, kind: str
) -> RegionBoundary:
    t1 = 1.0 if kind == PARAM_ALPHA else 0.0  # parameter of the r1 intercept
    ends = [[cap1, 0.0, t1], [0.0, cap2, 1.0 - t1]]
    tagged = np.vstack([np.column_stack([points, params]), ends])
    pareto = geometry.pareto_corners(tagged)
    chain = geometry.concave_chain(pareto)
    gap = _hull_union_gap(chain[:, :2], pareto)
    return RegionBoundary(params, points, chain[:, :2], chain[:, 2], kind, gap)


def sweep_corners(
    ch: ChannelPair, spec: ChannelSpectrum, cfg: SweepConfig, param_kind: str
) -> dict[float, tuple[float, float]]:
    """Swept parameter -> rectangle corner (r1, r2): the base grid plus the
    subdivision and refinement points, before any hull is taken."""
    corners = _corner_fn(ch, spec, param_kind)
    base = np.linspace(0.0, 1.0, cfg.grid_points)
    r1, r2 = corners(base)
    cache = dict(zip(base.tolist(), zip(r1.tolist(), r2.tolist())))
    if cfg.sagitta_tol is not None or cfg.segment_tol is not None:
        _subdivide(corners, cache, cfg)
    if cfg.refine:
        _golden_refine(corners, cache)
    return cache


def _sweep(ch: ChannelPair, cfg: SweepConfig, param_kind: str) -> RegionBoundary:
    spec = spectrum(ch)
    params, points = _cache_arrays(sweep_corners(ch, spec, cfg, param_kind))
    cap1, cap2 = _intercepts(ch, spec)
    return _build_boundary(params, points, cap1, cap2, param_kind)


def capacity_region(ch: ChannelPair, grid: SweepConfig | None = None) -> RegionBoundary:
    """Sweep the direct parametrization and convexify."""
    return _sweep(ch, grid or SweepConfig(), PARAM_ALPHA)


def capacity_region_beta(
    ch: ChannelPair, grid: SweepConfig | None = None
) -> RegionBoundary:
    """Sweep the role-exchanged parametrization; same region as
    capacity_region up to discretization."""
    return _sweep(ch, grid or SweepConfig(), PARAM_BETA)


def time_sharing_region(ch: ChannelPair) -> RegionBoundary:
    """Segment between the two single-user operating points."""
    cap1, cap2 = _intercepts(ch, spectrum(ch))
    points = np.array([[cap1, 0.0], [0.0, cap2]])
    return _build_boundary(np.array([0.0, 1.0]), points, cap1, cap2, "timeshare")


def region_contains(boundary: RegionBoundary, p: RatePair, tol: float = 1e-9) -> bool:
    """Is the rate pair dominated by the boundary's region (within tol)?

    Convex boundaries use chord interpolation; the outer bound's staircase
    uses rectangle dominance (a chord would overstate that region).
    """
    r1, r2 = p
    if boundary.kind == "outer":
        return geometry.contains_staircase(boundary.hull, r1, r2, tol)
    return geometry.contains_convex(boundary.hull, r1, r2, tol)


def equal_rate_point(boundary: RegionBoundary) -> float:
    """Largest c with (c, c) inside the region: the frontier/diagonal
    crossing of a convex boundary, the best corner of the outer bound's
    staircase (a chord would overstate that union of rectangles)."""
    frontier = boundary.frontier()
    if len(frontier) == 0:
        return 0.0
    if boundary.kind == "outer":
        return float(np.minimum(frontier[:, 0], frontier[:, 1]).max())
    hi = float(frontier[-1, 0])
    if geometry.frontier_value(frontier, hi) >= hi:
        return hi
    lo = 0.0
    if geometry.frontier_value(frontier, 0.0) <= 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if geometry.frontier_value(frontier, mid) >= mid:
            lo = mid
        else:
            hi = mid
    return lo
