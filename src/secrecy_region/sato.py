"""Correlated-noise outer bound on the secrecy capacity region.

Couple the two receiver noises with covariance rho (|rho| < 1). For an
input covariance K_X, each user's rate is bounded by a closed-form
minimization over a scalar combining coefficient:

    f1(rho, K_X) = min_nu  log2 [ (h-nu g)^H K_X (h-nu g)
                                  + 1 + |nu|^2 - nu* rho - rho* nu ] / (1-|rho|^2)

and symmetrically f2 with (g - mu h) and the coupling seen from user 2,
conj(rho): the noise cross-terms of Y1 - nu Y2 and of Y2 - mu Y1 are
complex conjugates. The objective is a positive-definite quadratic in
(Re nu, Im nu), so the minimizer is nu* = (g^H K_X h + rho)
/ (g^H K_X g + 1) and the minimum is available in closed form. The union
of the rectangles [0,f1] x [0,f2] over all trace-constrained K_X contains
the capacity region for every admissible rho; the specific coupling
rho* = (g^H e1)/(h^H e1) makes the bound tight against the achievable
boundary.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .channel import ChannelPair, ChannelSpectrum, rate_scale, spectrum
from .errors import DegeneratePivot, NumericsError, RhoOnUnitCircle
from .regions import RegionBoundary, SweepConfig, capacity_region, sweep_corners
from .sdpc import _check, _hermitian, boundary_forms

#: evaluations require |rho| <= 1 - RHO_EDGE (the 1-|rho|^2 denominator)
RHO_EDGE = 1e-9

#: |rho| beyond which `outer_region` and the tightness pass reject a coupling
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
OUTER_SWEEP = SweepConfig(grid_points=129, sagitta_tol=1e-5, segment_tol=2.5e-3)

#: audit tolerances (raw log2 units) on the worst witness margin and on
#: the asserted tightness gaps
CONTAINMENT_TOL = 1e-6
CORNER_TOL = 1e-6

#: default audit sweep: the audit's precision does not depend on sweep
#: density (witness rectangles are exact per swept corner), so it is
#: lighter than the region default
AUDIT_SWEEP = SweepConfig(grid_points=257, sagitta_tol=1e-6)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of audit_inner_outer.

    Gaps are in unscaled log2 units (mode scaling cancels in the
    comparison). containment_worst is the most negative witness margin
    over every coupling |rho| < 1 (>= -tol when the audit passes), and
    containment_worst_at = (rho, alpha, user 1 or 2) is where it first
    occurs (|rho| = 1 when h is parallel to g). minimizer_spread is the
    largest distance of the user-1 (user-2) minimizers from rho* (its
    conjugate) where witness forms are nonzero, or None without rho*.
    max_gap_f1 (f2) is the largest |gap| at rho* over the swept alphas.
    """

    containment_ok: bool
    containment_worst: float
    containment_worst_at: tuple[complex, float, int]
    min_gap_f1: float
    min_gap_f2: float
    max_gap_f1: float
    max_gap_f2: float
    rho_star: complex | None
    tightness_evaluated: bool
    tightness_skipped: str | None
    corner_gaps: dict[str, float]
    minimizer_spread: tuple[float, float] | None
    hull_size: int

    def to_dict(self) -> dict:
        """The fields in order, with the couplings as [re, im] pairs."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        rho, alpha, user = self.containment_worst_at
        out["containment_worst_at"] = {"rho": [rho.real, rho.imag], "alpha": alpha, "user": user}
        if self.rho_star is not None:
            out["rho_star"] = [self.rho_star.real, self.rho_star.imag]
        out["corner_gaps"] = dict(self.corner_gaps)
        return out


def _check_rho(rho: complex, edge: float = RHO_EDGE) -> complex:
    r = complex(rho)
    if not cmath.isfinite(r):
        raise ValueError(f"rho must be finite, got {r}")
    if abs(r) > 1.0 - edge:
        raise RhoOnUnitCircle(f"|rho| = {abs(r):.12g} is too close to 1")
    return r


def _check_kx(ch: ChannelPair, k_x: np.ndarray) -> np.ndarray:
    """K_X finite, hermitized, then checked by one eigvalsh and its trace."""
    k = _hermitian(k_x)
    low = float(np.linalg.eigvalsh(k)[0])
    _check(ch, ("K_X",), k.shape[0], (low,), (float(k.trace().real),))
    return k


def _bound_log(ratio):
    """A bound in raw log2 units from the argument of its log2, which is >= 1
    analytically; the clamp at 0 absorbs the last-ulp violations of
    cancellation near |rho| -> 1."""
    return np.maximum(np.log2(ratio), 0.0)


def _bound_values(forms: tuple, rho: complex):
    """The bound in raw log2 units from forms = (own, other, cross), where
    for f1 own = h^H K h, other = g^H K g and cross = g^H K h: the
    closed-form minimum over the combining coefficient, own + 1 -
    |cross + rho|^2 / (other + 1), over 1 - |rho|^2."""
    own, other, cross = forms
    j = own + 1.0 - np.abs(cross + rho) ** 2 / (other + 1.0)
    return _bound_log(j / (1.0 - abs(rho) ** 2))


def _f_raw(
    forms: tuple[float, float, complex], rho: complex
) -> tuple[float, complex]:
    """`_bound_values` of one K on Python floats, with its minimizer."""
    own, other, cross = forms
    x = abs(cross + rho)
    ratio = (own + 1.0 - x * x / (other + 1.0)) / (1.0 - abs(rho) ** 2)
    return (math.log2(ratio) if ratio > 1.0 else 0.0), (cross + rho) / (other + 1.0)


def _forms(ch: ChannelPair, k: np.ndarray, user: int | None = None) -> tuple:
    """The forms (h^H K h, g^H K g, g^H K h) of a checked K for user 1's
    bound, h and g exchanged for user 2's, both when user is None; for h = g
    the cross form is the real self form, as in `linalg.quadratic_form`."""
    if user is None:
        return _forms(ch, k, 1), _forms(ch, k, 2)
    u, v = (ch.h, ch.g) if user == 1 else (ch.g, ch.h)
    ku = k @ u
    own, other = float(np.vdot(u, ku).real), float(np.vdot(v, k @ v).real)
    return own, other, complex(own) if ch._h_is_g else complex(np.vdot(v, ku))


def sato_f1(
    ch: ChannelPair, rho: complex, k_x: np.ndarray
) -> tuple[float, complex]:
    """User 1's outer bound (scaled to reported-rate units) and nu*."""
    r = _check_rho(rho)
    value, nu = _f_raw(_forms(ch, _check_kx(ch, k_x), 1), r)
    return rate_scale(ch) * value, nu


def sato_f2(
    ch: ChannelPair, rho: complex, k_x: np.ndarray
) -> tuple[float, complex]:
    """User 2's outer bound (scaled to reported-rate units) and mu*, with
    rho the coupling as user 2 sees it (conj(rho) of a shared coupling)."""
    r = _check_rho(rho)
    value, mu = _f_raw(_forms(ch, _check_kx(ch, k_x), 2), r)
    return rate_scale(ch) * value, mu


def evaluate(ch: ChannelPair, rho: complex, k_x: np.ndarray) -> SatoEvaluation:
    """Both bounds for one shared coupling rho and K_X."""
    r = _check_rho(rho)
    k = _check_kx(ch, k_x)
    scale = rate_scale(ch)
    forms1, forms2 = _forms(ch, k)
    f1, nu = _f_raw(forms1, r)
    f2, mu = _f_raw(forms2, r.conjugate())
    return SatoEvaluation(r, k, scale * f1, scale * f2, nu, mu)


def tightness_rho(
    spec: ChannelSpectrum, h: np.ndarray, g: np.ndarray
) -> complex:
    """The coupling rho* = (g^H e1)/(h^H e1) that closes the bound.

    Raises DegeneratePivot when |h^H e1| <= 1e-12 |h|, a threshold that
    scales with the channel. |rho*| <= 1 is guaranteed by lambda1 >= 1;
    it is still verified before returning.
    """
    pivot = complex(np.vdot(h, spec.e1))
    if abs(pivot) <= 1e-12 * math.sqrt(np.vdot(h, h).real):
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
    nu, nw, _, _, c, s = ch.plane_hg
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
    f2 = _bound_values((gg, hh, np.conj(gh)), rho.conjugate())
    return _bound_values((hh, gg, gh), rho), f2


def _kx_forms(ch: ChannelPair, spec: ChannelSpectrum, alpha) -> tuple[tuple, tuple]:
    """Quadratic forms of K_X(alpha) = K_U1 + K_U2 for both bounds, batched
    over an array of alpha: `sdpc.boundary_forms`, with the cross form
    g^H K h = aP (g^H e1)(e1^H h) + g^H K_U2 h."""
    a = np.asarray(alpha, dtype=float)
    _, (_, hh, _, gg, gh2) = boundary_forms(ch, spec, a)
    gh = (a * ch.power) * (np.vdot(ch.g, spec.e1) * np.vdot(spec.e1, ch.h)) + gh2
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
    alphas, _ = sweep_corners(ch, spec, OUTER_SWEEP)
    forms1, forms2 = _kx_forms(ch, spec, alphas)
    ones1, ones2 = _rank_one_bounds(ch, r)
    # rank-one candidates first, then the boundary covariances
    f1 = scale * np.concatenate([ones1, _bound_values(forms1, r)])
    f2 = scale * np.concatenate([ones2, _bound_values(forms2, r.conjugate())])
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


def _least_ratio(forms: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per witness, the least argument of `_bound_values`' log2 over all
    |rho| < 1, and its coupling. For x = cross it is least along rho =
    r x/|x|, at the root r = 2|x|/s in [0, 1) of |x| r^2 - c r + |x| = 0,
    where c = own + other + (own other - |x|^2) >= 2|x| and s = c +
    sqrt(c^2 - 4|x|^2): rho = 2x/s (0 if all forms are 0, so s = 0), and
    the least argument is (2 + s)/(2 (other + 1)); for h = g it is 1, met
    only as |rho| -> 1."""
    own, other, cross = forms
    mag = np.abs(cross)
    c = own + other + (own * other - mag**2)
    s = c + np.sqrt(np.maximum(c - 2.0 * mag, 0.0) * (c + 2.0 * mag))
    rho = np.divide(2.0 * cross, s, out=np.zeros_like(cross), where=s > 0.0)
    return (2.0 + s) / (2.0 * (other + 1.0)), rho


def audit_inner_outer(ch: ChannelPair, sweep: SweepConfig | None = None) -> AuditReport:
    """Containment and tightness audit of the outer bound.

    Containment: every hull vertex of the achievable region must sit
    inside the outer region for every coupling |rho| < 1. Membership is
    certified with the vertex's own boundary covariance K_X(alpha) as the
    witness rectangle, which the converse guarantees must cover it; any
    violation is an implementation bug. The least witness bound over all
    couplings has a closed form (`_least_ratio`), so margins are exact.

    Tightness: at rho* with K_X(alpha) = K_U1 + K_U2, report the per-alpha
    gaps between the bounds and the achievable rates (raw log2 units).
    Gaps are provably zero at the two corner points.
    The achievable region is swept on `sweep` (default `AUDIT_SWEEP`).
    """
    spec = spectrum(ch)
    scale = rate_scale(ch)
    boundary = capacity_region(ch, sweep or AUDIT_SWEEP)

    # quadratic forms of K_X(alpha) for every swept parameter, as arrays
    # (the audit is vectorized over the sweep)
    alphas = boundary.params
    forms1, forms2 = _kx_forms(ch, spec, alphas)

    # every hull vertex is a swept corner or an intercept (alpha 0 or 1),
    # and the sweep holds both ends; log2, its clamp, the scale and the
    # subtracted rate are nondecreasing, so the least ratio is the least margin
    idx = np.searchsorted(alphas, boundary.hull_params)
    ratios, couplings = zip(*(
        _least_ratio(tuple(f[idx] for f in forms)) for forms in (forms1, forms2)
    ))
    margins = np.stack([
        scale * _bound_log(ratio) - boundary.hull[:, user]
        for user, ratio in enumerate(ratios)
    ])
    # where: the first worst (user, vertex) and its minimizing coupling
    user, vertex = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[user, vertex])
    alpha = float(boundary.hull_params[vertex])
    worst_at = complex(couplings[user][vertex]), alpha, int(user) + 1
    containment_ok = worst >= -CONTAINMENT_TOL

    # tightness at rho*
    try:
        rho_star = tightness_rho(spec, ch.h, ch.g)
    except DegeneratePivot:
        rho_star = None
    skipped = (
        "degenerate_pivot" if rho_star is None
        else "rho_star_near_unit_circle" if abs(rho_star) > 1.0 - RHO_GRID_EDGE
        else None
    )
    corner_gaps: dict[str, float] = {}
    min_gap_f1 = min_gap_f2 = max_gap_f1 = max_gap_f2 = 0.0
    if skipped is None:
        rates = boundary.points / scale
        gaps1 = _bound_values(forms1, rho_star) - rates[:, 0]
        gaps2 = _bound_values(forms2, rho_star.conjugate()) - rates[:, 1]
        min_gap_f1, min_gap_f2 = float(gaps1.min()), float(gaps2.min())
        max_gap_f1, max_gap_f2 = float(abs(gaps1).max()), float(abs(gaps2).max())
        for i, tag in ((0, "alpha0"), (-1, "alpha1")):
            corner_gaps[f"{tag}_f1"] = float(gaps1[i])
            corner_gaps[f"{tag}_f2"] = float(gaps2[i])
    # a witness with all forms zero is flat: it has no unique minimizer
    live = (forms1[0] + forms1[1])[idx] > 0.0
    spread = None if rho_star is None else tuple(
        float(np.abs(rho[live] - target).max(initial=0.0))
        for rho, target in zip(couplings, (rho_star, rho_star.conjugate()))
    )

    return AuditReport(
        containment_ok=containment_ok,
        containment_worst=worst,
        containment_worst_at=worst_at,
        rho_star=rho_star,
        tightness_evaluated=skipped is None,
        tightness_skipped=skipped,
        min_gap_f1=min_gap_f1,
        min_gap_f2=min_gap_f2,
        max_gap_f1=max_gap_f1,
        max_gap_f2=max_gap_f2,
        corner_gaps=corner_gaps,
        minimizer_spread=spread,
        hull_size=len(boundary.hull),
    )
