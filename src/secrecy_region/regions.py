"""Achievable-rate region sweep, corner points and region geometry.

The boundary of the secrecy capacity region is traced by a one-parameter
family of axis-aligned rectangles. For the direct parametrization alpha,
user 1's bound is the closed-form ratio gamma1(alpha) and user 2's bound
gamma2(alpha) is the top eigenvalue of an alpha-dependent pencil; the dual
parametrization beta exchanges the users' roles, so it is computed as the
alpha parametrization of the swapped channel. The region itself is the
convex hull of all swept rectangles; its Pareto frontier is returned with
the generating parameter of every vertex.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, linalg
from .channel import ChannelPair, ChannelSpectrum, rate_scale, spectrum
from .errors import ParamOutOfRange, SweepTruncated

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
    hull_union_gap -- bound on how far the hull strays from the swept
                   corner curve; 0 when the hull drops no corner
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


#: cap on the swept parameters of one sweep
MAX_POINTS = 20000
#: narrowest parameter interval the subdivision still splits
MIN_WIDTH = 1e-12


@dataclass(frozen=True)
class SweepConfig:
    """Controls for the boundary sweep.

    The uniform base grid is refined by subdivision, which splits a chord
    whose sagitta exceeds `sagitta_tol` or whose length exceeds
    `segment_tol` (the outer bound's staircase needs short steps rather
    than low sagitta). With both tolerances None the sweep is the exact
    base grid; a tolerance must be > 0 or None. A sweep stops at
    `MAX_POINTS`, with a `SweepTruncated` warning if a chord is untested.
    """

    grid_points: int = 512
    sagitta_tol: float | None = 1e-7
    segment_tol: float | None = None

    def __post_init__(self):
        if operator.index(self.grid_points) < 2:
            raise ValueError("grid needs at least 2 points")
        if not all(tol is None or tol > 0 for tol in (self.sagitta_tol, self.segment_tol)):
            raise ValueError(f"sweep tolerances must be > 0 (not NaN) or None: {self}")


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


def gamma1(ch: ChannelPair, spec: ChannelSpectrum, alpha):
    """User 1's rate ratio (1 + aP|h^H e1|^2) / (1 + aP|g^H e1|^2).

    alpha may be a scalar or an array of splits.
    """
    a = _check_param(alpha, "alpha")
    p = ch.power
    hh, gg = spec.proj1
    return (1.0 + a * p * hh) / (1.0 + a * p * gg)


def gamma2(ch: ChannelPair, spec: ChannelSpectrum, alpha):
    """User 2's bound: top eigenpair of the alpha-scaled residual pencil.

    The pencil is (I + s_g g g^H, I + s_h h h^H) with
    s_g = (1-a)P / (1 + aP|g^H e1|^2) and s_h = (1-a)P / (1 + aP|h^H e1|^2).
    Returns (gamma2, c2); c2 feeds the rank-one covariance construction.
    For an array of splits both come back batched: shapes (n,) and (n, t).
    """
    top = _gamma2_top(ch, spec, _check_param(alpha, "alpha"))
    return top.lam, linalg.lift(ch.plane_gh, top.x0, top.x1)


def _gamma2_top(ch: ChannelPair, spec: ChannelSpectrum, a) -> linalg.PlaneTop:
    """`gamma2` on checked splits, c2 as its coefficients on `ch.plane_gh`."""
    p = ch.power
    rest = (1.0 - a) * p
    hh, gg = spec.proj1
    return linalg.plane_coeffs(ch.plane_gh, rest / (1.0 + a * p * gg), rest / (1.0 + a * p * hh))


def xi2(ch: ChannelPair, spec: ChannelSpectrum, beta):
    """User 2's closed-form ratio in the role-exchanged parametrization:
    `gamma1` of the swapped channel."""
    return gamma1(ch.swapped(), spec.swapped(), _check_param(beta, "beta"))


def xi1(ch: ChannelPair, spec: ChannelSpectrum, beta):
    """User 1's pencil eigenvalue in the role-exchanged parametrization:
    `gamma2` of the swapped channel, scalar or batched like it."""
    return gamma2(ch.swapped(), spec.swapped(), _check_param(beta, "beta"))


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


def _corner_fn(ch: ChannelPair, spec: ChannelSpectrum) -> CornerFn:
    scale = rate_scale(ch)
    cap1, cap2 = _intercepts(ch, spec)

    def rates(ratio: np.ndarray, cap: float) -> np.ndarray:
        # corner identities bound the sweep by the intercepts; clamping
        # removes last-ulp overshoot so the hull endpoints stay exact
        positive = ratio > 0.0
        logs = scale * np.log2(np.where(positive, ratio, 1.0))
        return np.minimum(np.where(positive, np.maximum(logs, 0.0), 0.0), cap)

    def corners(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ratio2 = _gamma2_top(ch, spec, values).lam
        return rates(gamma1(ch, spec, values), cap1), rates(ratio2, cap2)

    return corners


def _subdivide(
    corners: CornerFn, params: np.ndarray, points: np.ndarray, cfg: SweepConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The increasing parameters and their (n, 2) corners, with parameters
    inserted until every chord is flat and short enough.

    Runs level by level: all midpoints of one level go through one batched
    corner evaluation and are appended to the level's arrays; one sort
    orders them at the end. An interval is split when its own sagitta (or
    chord length) test fails, so the parameters visited do not depend on
    the order; only the `MAX_POINTS` cap, applied in parameter order within
    a level, does. Warns with `SweepTruncated` when the cap or the
    `MIN_WIDTH` floor drops an interval that is due a test, since the
    tolerance may then fail there.
    """
    param_parts, point_parts = [params], [points]
    count = len(params)
    # intervals [lo, hi] in parameter order, with their end corners a, b
    lo, hi, a, b = params[:-1], params[1:], points[:-1], points[1:]
    sagitta_tol = math.inf if cfg.sagitta_tol is None else cfg.sagitta_tol
    truncated = 0
    while True:
        live = np.flatnonzero(hi - lo >= MIN_WIDTH)[: max(MAX_POINTS - count, 0)]
        truncated += lo.size - live.size
        if live.size == 0:
            break
        lo, hi, a, b = lo[live], hi[live], a[live], b[live]
        mid = 0.5 * (lo + hi)
        m = np.column_stack(corners(mid))
        param_parts.append(mid)
        point_parts.append(m)
        count += mid.size
        split = geometry.segment_distances(m, a, b) > sagitta_tol
        if cfg.segment_tol is not None:
            split |= np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) > cfg.segment_tol
        # each split interval becomes its halves [lo, mid], [mid, hi], in order
        s = np.flatnonzero(split)
        lo = np.stack([lo[s], mid[s]], axis=1).ravel()
        hi = np.stack([mid[s], hi[s]], axis=1).ravel()
        a = np.stack([a[s], m[s]], axis=1).reshape(-1, 2)
        b = np.stack([m[s], b[s]], axis=1).reshape(-1, 2)
    if truncated:
        warnings.warn(
            f"sweep stopped at {count} parameters with {truncated} intervals "
            f"untested (MAX_POINTS = {MAX_POINTS}, MIN_WIDTH = {MIN_WIDTH:g})",
            SweepTruncated,
        )
    params = np.concatenate(param_parts)
    order = np.argsort(params)
    return params[order], np.concatenate(point_parts)[order]


def _hull_union_gap(frontier: np.ndarray, curve: np.ndarray) -> float:
    """An upper bound on the distance from the hull to the polyline through
    its Pareto corners `curve`: the lesser of the deepest vertical and the
    deepest horizontal drop from the hull to a corner. Both drops are
    piecewise linear, peaking at corners, and np.interp is exact at its
    knots, so the bound is 0 when the hull keeps every corner."""
    v, h = geometry.chain_drops(curve, frontier)
    return float(min(v.max(), h.max()))


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
    ch: ChannelPair, spec: ChannelSpectrum, cfg: SweepConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The swept alphas, increasing, and their (n, 2) rectangle corners
    (r1, r2): the base grid plus the subdivision points, before any hull is
    taken."""
    corners = _corner_fn(ch, spec)
    params = np.linspace(0.0, 1.0, cfg.grid_points)
    points = np.column_stack(corners(params))
    if cfg.sagitta_tol is None and cfg.segment_tol is None:
        return params, points
    return _subdivide(corners, params, points, cfg)


def capacity_region(ch: ChannelPair, grid: SweepConfig | None = None) -> RegionBoundary:
    """Sweep the direct parametrization and convexify."""
    spec = spectrum(ch)
    params, points = sweep_corners(ch, spec, grid or SweepConfig())
    return _build_boundary(params, points, *_intercepts(ch, spec), PARAM_ALPHA)


def capacity_region_beta(
    ch: ChannelPair, grid: SweepConfig | None = None
) -> RegionBoundary:
    """Sweep the role-exchanged parametrization; same region as
    capacity_region up to discretization.

    beta is alpha on the swapped channel: its corners are that sweep's,
    with the two rate columns exchanged back.
    """
    sw = ch.swapped()
    spec = spectrum(sw)
    params, points = sweep_corners(sw, spec, grid or SweepConfig())
    cap2, cap1 = _intercepts(sw, spec)
    return _build_boundary(params, points[:, ::-1], cap1, cap2, PARAM_BETA)


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
    staircase (a chord would overstate that union of rectangles).

    Along a concave frontier y - x falls strictly, so the crossing lies on
    the segment into the first vertex below the diagonal; left of its
    first vertex the frontier is level at that vertex's height.
    """
    frontier = boundary.frontier()
    if len(frontier) == 0:
        return 0.0
    if boundary.kind == "outer":
        return float(np.minimum(frontier[:, 0], frontier[:, 1]).max())
    below = np.flatnonzero(frontier[:, 1] < frontier[:, 0])
    if len(below) == 0:
        return float(frontier[-1, 0])
    k = int(below[0])
    if k == 0:
        y0 = float(frontier[0, 1])
        return y0 if y0 > 0.0 else 0.0
    (x0, y0), (x1, y1) = frontier[k - 1 : k + 1].tolist()
    d0, d1 = y0 - x0, y1 - x1
    return x0 + d0 / (d0 - d1) * (x1 - x0)
