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
from dataclasses import dataclass, field

import numpy as np

from . import geometry, linalg
from .channel import ChannelPair, ChannelSpectrum, rate_scale, spectrum
from .errors import CovarianceInvalid, DegeneratePivot, NumericsError, RhoOnUnitCircle
from .regions import (
    RatePair,
    RateRectangle,
    RegionBoundary,
    SweepConfig,
    capacity_region,
    gamma2,
)
from .sdpc import PSD_TOL, TRACE_TOL

#: evaluations require |rho| <= 1 - RHO_EDGE (the 1-|rho|^2 denominator)
RHO_EDGE = 1e-9

#: |rho| beyond which grid/tightness couplings are excluded from evaluation
RHO_GRID_EDGE = 1e-6


@dataclass(frozen=True)
class SatoEvaluation:
    """Both rate bounds for one (rho, K_X), with their minimizers."""

    rho: complex
    k_x: np.ndarray
    f1: float
    f2: float
    nu_star: complex
    mu_star: complex


@dataclass(frozen=True)
class CovSearchConfig:
    """Input-covariance family searched when tracing the outer region.

    Rank-one directions come from a deterministic sphere grid (t = 2) or
    a Sobol sequence (t > 2); full power only, since the bounds are
    monotone in the covariance and lower-power rectangles are dominated.
    The boundary-achieving rank-two family rides along on a parameter grid
    refined until consecutive rectangle corners are `sdpc_segment_tol`
    apart, which is what limits the staircase resolution.
    """

    angles: int = 256
    phases: int = 64
    quasi_points: int = 4096
    power_fractions: tuple[float, ...] = (1.0,)
    include_sdpc: bool = True
    sdpc_sweep: SweepConfig = field(
        default_factory=lambda: SweepConfig(
            grid_points=129, sagitta_tol=1e-5, segment_tol=2.5e-3, refine=False
        )
    )


@dataclass(frozen=True)
class AuditConfig:
    """Grids for the inner/outer consistency audit.

    The audit's precision does not depend on sweep density (witness
    rectangles are exact per swept corner), so the default sweep is
    lighter than the region default.
    """

    sweep: SweepConfig = field(
        default_factory=lambda: SweepConfig(
            grid_points=257, sagitta_tol=1e-6, refine=False
        )
    )
    rho_radius_step: float = 0.1
    rho_angles: int = 16
    containment_tol: float = 1e-6
    corner_tol: float = 1e-6


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


def _forms_f1(ch: ChannelPair, k: np.ndarray) -> tuple[float, float, complex]:
    return (
        linalg.quadratic_form(ch.h, k, ch.h).real,
        linalg.quadratic_form(ch.g, k, ch.g).real,
        complex(linalg.quadratic_form(ch.g, k, ch.h)),
    )


def _forms_f2(ch: ChannelPair, k: np.ndarray) -> tuple[float, float, complex]:
    return (
        linalg.quadratic_form(ch.g, k, ch.g).real,
        linalg.quadratic_form(ch.h, k, ch.h).real,
        complex(linalg.quadratic_form(ch.h, k, ch.g)),
    )


def sato_f1(
    ch: ChannelPair, rho: complex, k_x: np.ndarray
) -> tuple[float, complex]:
    """User 1's outer bound (scaled to reported-rate units) and nu*."""
    r = _check_rho(rho)
    k = _check_kx(ch, k_x)
    value, nu = _f_raw(_forms_f1(ch, k), r)
    return rate_scale(ch) * value, nu


def sato_f2(
    ch: ChannelPair, rho: complex, k_x: np.ndarray
) -> tuple[float, complex]:
    """User 2's outer bound (scaled to reported-rate units) and mu*."""
    r = _check_rho(rho)
    k = _check_kx(ch, k_x)
    value, mu = _f_raw(_forms_f2(ch, k), r)
    return rate_scale(ch) * value, mu


def evaluate(ch: ChannelPair, rho: complex, k_x: np.ndarray) -> SatoEvaluation:
    """Both bounds for one (rho, K_X)."""
    r = _check_rho(rho)
    k = _check_kx(ch, k_x)
    scale = rate_scale(ch)
    f1, nu = _f_raw(_forms_f1(ch, k), r)
    f2, mu = _f_raw(_forms_f2(ch, k), r)
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


def _rank_one_directions(t: int, cfg: CovSearchConfig) -> np.ndarray:
    """Deterministic unit-vector family spanning the complex sphere."""
    if t == 2:
        theta = np.linspace(0.0, 0.5 * math.pi, cfg.angles)
        phi = np.linspace(0.0, 2.0 * math.pi, cfg.phases, endpoint=False)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        u = np.stack(
            [np.cos(th).ravel() + 0j, (np.sin(th) * np.exp(1j * ph)).ravel()],
            axis=1,
        )
        return u
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=2 * t, scramble=False)
    raw = sampler.random(cfg.quasi_points)
    from scipy.special import ndtri

    z = ndtri(np.clip(raw, 1e-12, 1.0 - 1e-12))
    u = z[:, :t] + 1j * z[:, t:]
    norms = np.linalg.norm(u, axis=1)
    norms[norms == 0.0] = 1.0
    return u / norms[:, None]


def _rank_one_bounds(
    ch: ChannelPair, rho: complex, cfg: CovSearchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (f1, f2) over the rank-one K_X family, in raw log2 units."""
    u = _rank_one_directions(ch.dim, cfg)
    uh = u.conj() @ ch.h
    ug = u.conj() @ ch.g
    f1_parts = []
    f2_parts = []
    for frac in cfg.power_fractions:
        p = frac * ch.power
        hh = p * np.abs(uh) ** 2
        gg = p * np.abs(ug) ** 2
        gh = p * np.conj(ug) * uh
        f1_parts.append(_bound_values((hh, gg, gh), rho))
        f2_parts.append(_bound_values((gg, hh, np.conj(gh)), rho))
    return np.concatenate(f1_parts), np.concatenate(f2_parts)


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
    c2h, c2g = c2.conj() @ ch.h, c2.conj() @ ch.g
    hh = w1 * np.abs(e1h) ** 2 + w2 * np.abs(c2h) ** 2
    gg = w1 * np.abs(e1g) ** 2 + w2 * np.abs(c2g) ** 2
    gh = w1 * np.conj(e1g) * e1h + w2 * np.conj(c2g) * c2h
    return (hh, gg, gh), (gg, hh, np.conj(gh))


def outer_region(
    ch: ChannelPair, rho: complex, search: CovSearchConfig | None = None
) -> RegionBoundary:
    """Pareto frontier of the searched union of outer rectangles.

    The frontier is a staircase (unions of rectangles are not convex);
    region_contains handles it with rectangle dominance. The capacity
    region is contained in the true union for every admissible rho, so
    this frontier must dominate the achievable hull.
    """
    r = _check_rho(rho, RHO_GRID_EDGE)
    cfg = search or CovSearchConfig()
    scale = rate_scale(ch)
    f1s, f2s = _rank_one_bounds(ch, r, cfg)
    tagged = [
        (scale * float(a), scale * float(b), math.nan)
        for a, b in zip(f1s, f2s)
    ]
    rects: list[RateRectangle] = []
    if cfg.include_sdpc:
        spec = spectrum(ch)
        boundary = capacity_region(ch, cfg.sdpc_sweep)
        alphas = [rect.param for rect in boundary.points]
        forms1, forms2 = _kx_forms(ch, spec, alphas)
        bound1 = (scale * _bound_values(forms1, r)).tolist()
        bound2 = (scale * _bound_values(forms2, r)).tolist()
        for a, f1, f2 in zip(alphas, bound1, bound2):
            rects.append(RateRectangle(RatePair(f1, f2), a, "alpha"))
            tagged.append((f1, f2, a))
    pareto = geometry.pareto_corners(tagged)
    hull = tuple(RatePair(c[0], c[1]) for c in pareto)
    params = tuple(float(c[2]) for c in pareto)
    return RegionBoundary(
        points=tuple(rects),
        hull=hull,
        hull_params=params,
        kind="outer",
        hull_union_gap=0.0,
    )


def _rho_grid(radius_step: float, angles: int) -> list[complex]:
    grid: list[complex] = [0j]
    radius = radius_step
    while radius < 1.0 - RHO_GRID_EDGE:
        for k in range(angles):
            ang = 2.0 * math.pi * k / angles
            grid.append(radius * cmath.exp(1j * ang))
        radius += radius_step
    return grid


def audit_inner_outer(ch: ChannelPair, grids: AuditConfig | None = None) -> AuditReport:
    """Containment and tightness audit of the outer bound.

    Containment: every hull vertex of the achievable region must sit
    inside the outer region for every rho on a polar grid. Membership is
    certified with the vertex's own boundary covariance K_X(alpha) as the
    witness rectangle, which the converse guarantees must cover it; any
    violation is an implementation bug.

    Tightness: at rho* with K_X(alpha) = K_U1 + K_U2, report the per-alpha
    gaps between the bounds and the achievable rates (raw log2 units).
    Gaps are provably zero at the two corner points when rho* is real.
    """
    cfg = grids or AuditConfig()
    spec = spectrum(ch)
    scale = rate_scale(ch)
    boundary = capacity_region(ch, cfg.sweep)

    # quadratic forms of K_X(alpha) for every swept parameter, as arrays
    # (the audit loops are vectorized over the sweep)
    alphas = [rect.param for rect in boundary.points]
    forms1, forms2 = _kx_forms(ch, spec, alphas)
    index = {a: i for i, a in enumerate(alphas)}

    def bounds_at(rho: complex, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            _bound_values(tuple(f[idx] for f in forms1), rho),
            _bound_values(tuple(f[idx] for f in forms2), rho),
        )

    hull_idx = np.array(
        [index[a] for a in boundary.hull_params], dtype=int
    )
    hull_r1 = np.array([v.r1 for v in boundary.hull])
    hull_r2 = np.array([v.r2 for v in boundary.hull])

    rho_grid = _rho_grid(cfg.rho_radius_step, cfg.rho_angles)
    worst = math.inf
    for rho in rho_grid:
        f1, f2 = bounds_at(rho, hull_idx)
        m = min(float((scale * f1 - hull_r1).min()), float((scale * f2 - hull_r2).min()))
        worst = min(worst, m)
    if hull_idx.size == 0:
        worst = 0.0
    containment_ok = worst >= -cfg.containment_tol

    # tightness at rho*
    rho_star: complex | None
    try:
        rho_star = tightness_rho(spec, ch.h, ch.g)
    except DegeneratePivot:
        rho_star = None
    tight_ok = rho_star is not None and abs(rho_star) <= 1.0 - RHO_GRID_EDGE
    corner_gaps: dict[str, float] = {}
    if tight_ok:
        all_idx = np.arange(len(alphas))
        f1, f2 = bounds_at(rho_star, all_idx)
        r1 = np.array([rect.corner.r1 for rect in boundary.points]) / scale
        r2 = np.array([rect.corner.r2 for rect in boundary.points]) / scale
        gaps1 = f1 - r1
        gaps2 = f2 - r2
        min_gap_f1 = float(gaps1.min())
        min_gap_f2 = float(gaps2.min())
        for a, tag in ((0.0, "alpha0"), (1.0, "alpha1")):
            if a in index:
                i = index[a]
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
