"""Correlated-noise outer bound on the secrecy capacity region.

Couple the two receiver noises with covariance rho (|rho| < 1). For an
input covariance K_X, each user's rate is bounded by a closed-form
minimization over a scalar combining coefficient:

    f1(rho, K_X) = min_nu  log2 [ (h-nu g)^H K_X (h-nu g)
                                  + 1 + |nu|^2 - nu* rho - rho* nu ] / (1-|rho|^2)

and symmetrically f2 with (g - mu h). The objective is a positive-definite
quadratic in (Re nu, Im nu), so the minimizer is nu* = (g^H K_X h + rho)
/ (g^H K_X g + 1) and the minimum is available in closed form. The union
of the rectangles [0,f1] x [0,f2] over all trace-constrained K_X contains
the capacity region for every admissible rho; the specific coupling
rho* = (g^H e1)/(h^H e1) makes the bound tight against the achievable
boundary.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, linalg
from .channel import ChannelPair, ChannelSpectrum, rate_scale, spectrum
from .errors import CovarianceInvalid, DegeneratePivot, NumericsError, RhoOnUnitCircle
from .regions import (
    PARAM_ALPHA,
    RegionBoundary,
    SweepConfig,
    capacity_region,
    gamma2,
    sweep_corners,
)
from .sdpc import PSD_TOL, TRACE_TOL

#: evaluations require |rho| <= 1 - RHO_EDGE (the 1-|rho|^2 denominator)
RHO_EDGE = 1e-9

#: |rho| beyond which grid/tightness couplings are excluded from evaluation
RHO_GRID_EDGE = 1e-6


@dataclass(frozen=True, eq=False)
class SatoEvaluation:
    """Both rate bounds for one (rho, K_X), with their minimizers."""

    rho: complex
    k_x: np.ndarray
    f1: float
    f2: float
    nu_star: complex
    mu_star: complex


#: rank-one search grid on the unit sphere of span{h, g} (see
#: `_rank_one_bounds`), and the sweep of the boundary covariances that
#: ride along with it in `outer_region`
RANK_ONE_ANGLES = 256
RANK_ONE_PHASES = 64
OUTER_SWEEP = SweepConfig(
    grid_points=129, sagitta_tol=1e-5, segment_tol=2.5e-3, refine=False
)

#: audit rho grid: 0 plus `RHO_ANGLES` angles on each radius step
RHO_RADIUS_STEP = 0.1
RHO_ANGLES = 16

#: audit tolerances (raw log2 units) on the worst witness margin and on
#: the asserted corner gaps
CONTAINMENT_TOL = 1e-6
CORNER_TOL = 1e-6

#: default audit sweep: the audit's precision does not depend on sweep
#: density (witness rectangles are exact per swept corner), so it is
#: lighter than the region default
AUDIT_SWEEP = SweepConfig(grid_points=257, sagitta_tol=1e-6, refine=False)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of audit_inner_outer.

    Gaps are in unscaled log2 units (mode scaling cancels in the
    comparison). containment_worst is the most negative witness margin
    seen across the whole rho grid (>= -tol when the audit passes).
    """

    containment_ok: bool
    containment_worst: float
    rho_star: complex | None
    tightness_evaluated: bool
    min_gap_f1: float
    min_gap_f2: float
    corner_gaps: dict[str, float]
    rho_grid_size: int
    hull_size: int

    def to_dict(self) -> dict:
        return {
            "containment_ok": self.containment_ok,
            "containment_worst": self.containment_worst,
            "min_gap_f1": self.min_gap_f1,
            "min_gap_f2": self.min_gap_f2,
            "rho_star": (
                [self.rho_star.real, self.rho_star.imag]
                if self.rho_star is not None
                else None
            ),
            "tightness_evaluated": self.tightness_evaluated,
            "corner_gaps": dict(self.corner_gaps),
            "rho_grid_size": self.rho_grid_size,
            "hull_size": self.hull_size,
        }


def _check_rho(rho: complex, edge: float = RHO_EDGE) -> complex:
    r = complex(rho)
    if not cmath.isfinite(r):
        raise ValueError(f"rho must be finite, got {r}")
    if abs(r) > 1.0 - edge:
        raise RhoOnUnitCircle(f"|rho| = {abs(r):.12g} is too close to 1")
    return r


def _check_kx(ch: ChannelPair, k_x: np.ndarray) -> np.ndarray:
    k = linalg.hermitize(k_x)
    if k.shape[0] != ch.dim:
        raise CovarianceInvalid(
            f"K_X dimension {k.shape[0]} != channel dimension {ch.dim}"
        )
    trace = float(np.trace(k).real)
    low = float(np.linalg.eigvalsh(k)[0])
    if low < -PSD_TOL * max(1.0, trace):
        raise CovarianceInvalid(f"K_X has eigenvalue {low:.3e} < 0")
    if trace > ch.power + TRACE_TOL * max(1.0, ch.power):
        raise CovarianceInvalid(f"tr(K_X) = {trace:.12g} exceeds {ch.power}")
    return k


def _bound_values(forms: tuple, rho: complex):
    """Closed-form minimum over the combining coefficient, raw log2 units.

    forms = (own, other, cross), scalars or arrays, where for f1
    own = h^H K h, other = g^H K g and cross = g^H K h.
    """
    own, other, cross = forms
    j = own + 1.0 - np.abs(cross + rho) ** 2 / (other + 1.0)
    # j >= 1 - |rho|^2 analytically; clamp the last-ulp violations that
    # cancellation near |rho| -> 1 can produce (bounds are never negative)
    return np.maximum(np.log2(j / (1.0 - abs(rho) ** 2)), 0.0)


def _f_raw(
    forms: tuple[float, float, complex], rho: complex
) -> tuple[float, complex]:
    """One bound from its three quadratic forms, with its minimizer."""
    _, other, cross = forms
    return float(_bound_values(forms, rho)), (cross + rho) / (other + 1.0)


def _forms(ch: ChannelPair, k: np.ndarray) -> tuple[tuple, tuple]:
    """The forms of a checked K for f1 and f2, from K h and K g; for h = g
    the cross forms are the real self form, as in `linalg.quadratic_form`."""
    kh, kg = k @ ch.h, k @ ch.g
    hh = float(np.vdot(ch.h, kh).real)
    gg = float(np.vdot(ch.g, kg).real)
    if np.array_equal(ch.h, ch.g):
        return (hh, gg, complex(hh)), (gg, hh, complex(gg))
    return (hh, gg, complex(np.vdot(ch.g, kh))), (gg, hh, complex(np.vdot(ch.h, kg)))


def sato_f1(
    ch: ChannelPair, rho: complex, k_x: np.ndarray
) -> tuple[float, complex]:
    """User 1's outer bound (scaled to reported-rate units) and nu*."""
    r = _check_rho(rho)
    k = _check_kx(ch, k_x)
    value, nu = _f_raw(_forms(ch, k)[0], r)
    return rate_scale(ch) * value, nu


def sato_f2(
    ch: ChannelPair, rho: complex, k_x: np.ndarray
) -> tuple[float, complex]:
    """User 2's outer bound (scaled to reported-rate units) and mu*."""
    r = _check_rho(rho)
    k = _check_kx(ch, k_x)
    value, mu = _f_raw(_forms(ch, k)[1], r)
    return rate_scale(ch) * value, mu


def evaluate(ch: ChannelPair, rho: complex, k_x: np.ndarray) -> SatoEvaluation:
    """Both bounds for one (rho, K_X)."""
    r = _check_rho(rho)
    k = _check_kx(ch, k_x)
    scale = rate_scale(ch)
    forms1, forms2 = _forms(ch, k)
    f1, nu = _f_raw(forms1, r)
    f2, mu = _f_raw(forms2, r)
    return SatoEvaluation(r, k, scale * f1, scale * f2, nu, mu)


def tightness_rho(
    spec: ChannelSpectrum, h: np.ndarray, g: np.ndarray
) -> complex:
    """The coupling rho* = (g^H e1)/(h^H e1) that closes the bound.

    Raises DegeneratePivot when h^H e1 is numerically zero. |rho*| <= 1 is
    guaranteed by lambda1 >= 1; it is still verified before returning.
    """
    pivot = complex(np.vdot(h, spec.e1))
    if abs(pivot) <= 1e-12:
        raise DegeneratePivot(f"|h^H e1| = {abs(pivot):.3e} is too small")
    rho = complex(np.vdot(g, spec.e1)) / pivot
    if abs(rho) > 1.0 + 1e-9:
        raise NumericsError(f"|rho*| = {abs(rho):.12g} > 1; spectrum is inconsistent")
    return rho


def _rank_one_bounds(ch: ChannelPair, rho: complex) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (f1, f2) over the full-power rank-one family on
    span{h, g}, in raw log2 units.

    f1 and f2 see K_X only through h^H K h, g^H K g and g^H K h, and both
    grow with K_X in the positive-semidefinite order. A rank-one K = P u u^H
    therefore sees only the projection of u onto span{h, g}, and scaling
    that projection up to a unit vector at full power dominates it. So the
    search covers the unit sphere of C^2, in coordinates of an orthonormal
    basis of span{h, g}, on a `RANK_ONE_ANGLES` x `RANK_ONE_PHASES` grid of
    (cos th, sin th e^{i phi}), whatever the antenna count; its staircase
    depends only on the Gram data and P. This family is not the whole
    union: a rank-two K with tr K = P is dominated by no rank-one K of the
    same trace, and such inputs can reach beyond this staircase.
    """
    # columns: coordinates of h and g in the orthonormal basis (q1, q2) of
    # the channel's span plane, which depend only on the Gram data
    nu, nw, _, _, c, s, _ = ch.plane_hg
    r = np.array([[nu, nw * c], [0.0, nw * s]])
    theta = np.linspace(0.0, 0.5 * math.pi, RANK_ONE_ANGLES)
    phi = np.linspace(0.0, 2.0 * math.pi, RANK_ONE_PHASES, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    u = np.stack(
        [np.cos(th).ravel() + 0j, (np.sin(th) * np.exp(1j * ph)).ravel()], axis=1
    )
    # products summed elementwise here and in _kx_forms: `@` would call a
    # threaded BLAS matrix-vector kernel that costs more than the product
    uh = (u.conj() * r[:, 0]).sum(axis=1)
    ug = (u.conj() * r[:, 1]).sum(axis=1)
    hh = ch.power * np.abs(uh) ** 2
    gg = ch.power * np.abs(ug) ** 2
    gh = ch.power * np.conj(ug) * uh
    return _bound_values((hh, gg, gh), rho), _bound_values((gg, hh, np.conj(gh)), rho)


def _kx_forms(ch: ChannelPair, spec: ChannelSpectrum, alpha) -> tuple[tuple, tuple]:
    """Quadratic forms of K_X(alpha) = K_U1 + K_U2 for both bounds.

    Projections onto the rank-one factors, batched over an array of alpha:
    v^H K w = aP (v^H e1)(e1^H w) + (1-a)P (v^H c2)(c2^H w).
    """
    a = np.asarray(alpha, dtype=float)
    _, c2 = gamma2(ch, spec, a)
    w1 = a * ch.power
    w2 = (1.0 - a) * ch.power
    e1h, e1g = np.vdot(spec.e1, ch.h), np.vdot(spec.e1, ch.g)
    c2h, c2g = (c2.conj() * ch.h).sum(axis=1), (c2.conj() * ch.g).sum(axis=1)
    hh = w1 * np.abs(e1h) ** 2 + w2 * np.abs(c2h) ** 2
    gg = w1 * np.abs(e1g) ** 2 + w2 * np.abs(c2g) ** 2
    gh = w1 * np.conj(e1g) * e1h + w2 * np.conj(c2g) * c2h
    return (hh, gg, gh), (gg, hh, np.conj(gh))


def outer_region(ch: ChannelPair, rho: complex) -> RegionBoundary:
    """Pareto frontier of the searched union of outer rectangles: the
    rank-one family of `_rank_one_bounds` plus the boundary covariances
    K_X(alpha) on an `OUTER_SWEEP` parameter grid, refined until
    consecutive rectangle corners are `segment_tol` apart, which is what
    limits the staircase resolution.

    The frontier is a staircase (unions of rectangles are not convex);
    region_contains handles it with rectangle dominance. The capacity
    region is contained in the true union for every admissible rho, so
    this frontier must dominate the achievable hull.
    """
    r = _check_rho(rho, RHO_GRID_EDGE)
    scale = rate_scale(ch)
    spec = spectrum(ch)
    alphas = np.array(sorted(sweep_corners(ch, spec, OUTER_SWEEP, PARAM_ALPHA)))
    forms1, forms2 = _kx_forms(ch, spec, alphas)
    ones1, ones2 = _rank_one_bounds(ch, r)
    # rank-one candidates first, then the boundary covariances
    f1 = scale * np.concatenate([ones1, _bound_values(forms1, r)])
    f2 = scale * np.concatenate([ones2, _bound_values(forms2, r)])
    tags = np.concatenate([np.full(ones1.size, math.nan), alphas])
    pareto = geometry.pareto_corners(np.column_stack([f1, f2, tags]))
    n = ones1.size
    return RegionBoundary(
        params=alphas,
        points=np.column_stack([f1[n:], f2[n:]]),
        hull=pareto[:, :2],
        hull_params=pareto[:, 2],
        kind="outer",
    )


def _rho_grid() -> list[complex]:
    grid: list[complex] = [0j]
    radius = RHO_RADIUS_STEP
    while radius < 1.0 - RHO_GRID_EDGE:
        for k in range(RHO_ANGLES):
            ang = 2.0 * math.pi * k / RHO_ANGLES
            grid.append(radius * cmath.exp(1j * ang))
        radius += RHO_RADIUS_STEP
    return grid


def audit_inner_outer(ch: ChannelPair, sweep: SweepConfig | None = None) -> AuditReport:
    """Containment and tightness audit of the outer bound.

    Containment: every hull vertex of the achievable region must sit
    inside the outer region for every rho on a polar grid. Membership is
    certified with the vertex's own boundary covariance K_X(alpha) as the
    witness rectangle, which the converse guarantees must cover it; any
    violation is an implementation bug.

    Tightness: at rho* with K_X(alpha) = K_U1 + K_U2, report the per-alpha
    gaps between the bounds and the achievable rates (raw log2 units).
    Gaps are provably zero at the two corner points when rho* is real.
    The achievable region is swept on `sweep` (default `AUDIT_SWEEP`).
    """
    spec = spectrum(ch)
    scale = rate_scale(ch)
    boundary = capacity_region(ch, sweep or AUDIT_SWEEP)

    # quadratic forms of K_X(alpha) for every swept parameter, as arrays
    # (the audit loops are vectorized over the sweep)
    alphas = boundary.params
    forms1, forms2 = _kx_forms(ch, spec, alphas)

    def bounds_at(rho: complex, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            _bound_values(tuple(f[idx] for f in forms1), rho),
            _bound_values(tuple(f[idx] for f in forms2), rho),
        )

    # every hull vertex is a swept corner or an intercept (alpha 0 or 1),
    # and the sweep holds both ends
    hull_idx = np.searchsorted(alphas, boundary.hull_params)
    hull_r1, hull_r2 = boundary.hull[:, 0], boundary.hull[:, 1]

    rho_grid = _rho_grid()
    worst = math.inf
    for rho in rho_grid:
        f1, f2 = bounds_at(rho, hull_idx)
        m = min(float((scale * f1 - hull_r1).min()), float((scale * f2 - hull_r2).min()))
        worst = min(worst, m)
    containment_ok = worst >= -CONTAINMENT_TOL

    # tightness at rho*
    rho_star: complex | None
    try:
        rho_star = tightness_rho(spec, ch.h, ch.g)
    except DegeneratePivot:
        rho_star = None
    tight_ok = rho_star is not None and abs(rho_star) <= 1.0 - RHO_GRID_EDGE
    corner_gaps: dict[str, float] = {}
    if tight_ok:
        f1, f2 = bounds_at(rho_star, np.arange(alphas.size))
        gaps1 = f1 - boundary.points[:, 0] / scale
        gaps2 = f2 - boundary.points[:, 1] / scale
        min_gap_f1 = float(gaps1.min())
        min_gap_f2 = float(gaps2.min())
        for i, tag in ((0, "alpha0"), (-1, "alpha1")):
            corner_gaps[f"{tag}_f1"] = float(gaps1[i])
            corner_gaps[f"{tag}_f2"] = float(gaps2[i])
    else:
        min_gap_f1 = 0.0
        min_gap_f2 = 0.0

    return AuditReport(
        containment_ok=containment_ok,
        containment_worst=worst,
        rho_star=rho_star,
        tightness_evaluated=tight_ok,
        min_gap_f1=min_gap_f1,
        min_gap_f2=min_gap_f2,
        corner_gaps=corner_gaps,
        rho_grid_size=len(rho_grid),
        hull_size=len(boundary.hull),
    )
