"""Linear algebra for the identity-plus-rank-one pencils of this package.

Every pencil here is (I + a u u^H, I + b w w^H) with u, w in {h, g}. On the
orthocomplement of span{u, w} it acts as (I, I), so its top eigenpair comes
from a 2x2 problem on that span and depends only on a, b and the Gram data
|u|, |w|, u^H w, whatever the antenna count. `span_plane` reduces (u, w) to
that data once. The coefficient kernel `plane_coeffs` solves the 2x2
problem in closed form, for one pair of weights (a, b) or vectorised over
arrays of them, and returns the top vector as coefficients (x0, x1) on the
plane's basis (q1, q2), so that projections need no t-vector; `lift`
builds the t-vector where one leaves the package.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NumericsError

#: absolute gap below which the top two eigenvalues count as degenerate
DEGENERACY_GAP = 1e-10

#: sine of the angle between u and w below which they count as parallel;
#: for exactly parallel inputs rounding leaves a computed sine below 1e-15
PARALLEL_TOL = 1e-14


#: top eigenpairs of rank-one pencils, shaped like the broadcast weights s:
#: largest eigenvalues lam (s), unit phase-fixed eigenvectors vec (s + (t,))
#: and the distance gap (s) from lam to the next eigenvalue
RankOneTop = namedtuple("RankOneTop", "lam vec gap")


def as_complex_vector(entries) -> np.ndarray:
    """Validate and convert to a 1-D complex ndarray with finite entries."""
    v = np.asarray(entries, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if not np.isfinite(v).all():  # a complex entry is finite iff both parts are
        raise ValueError("vector entries must be finite")
    return v


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^H)/2, forcing exact conjugate symmetry."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


def quadratic_form(v: np.ndarray, m: np.ndarray, w: np.ndarray) -> complex:
    """Return v^H M w.

    When v and w are the same vector and M is Hermitian the result is real
    up to rounding; the (tiny) imaginary part is clamped to exactly 0.
    """
    v = as_complex_vector(v)
    w = as_complex_vector(w)
    m = np.asarray(m, dtype=complex)
    if m.shape != (v.shape[0], w.shape[0]):
        raise DimensionMismatch(
            f"matrix shape {m.shape} incompatible with vectors "
            f"({v.shape[0]}, {w.shape[0]})"
        )
    out = complex(np.vdot(v, m @ w))
    if np.array_equal(v, w):
        out = complex(out.real, 0.0)
    return out


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first largest-magnitude entry is real >= 0.

    Deterministic: ties in magnitude resolve to the lowest index. A 2-D
    array is normalized row by row. Only correctly rounded operations are
    used, so a row comes out the same whatever the batch it sits in.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:  # one row on NumPy scalars, with the 2-D path's bits
        mag2 = v.real**2 + v.imag**2
        idx = int(mag2.argmax())
        mag = math.sqrt(mag2[idx])
        if mag > 0.0:
            out = v * (v[idx].conjugate() / mag)
            out[idx] = mag
            return out
    rows = np.atleast_2d(v)
    mag2 = rows.real**2 + rows.imag**2
    idx = np.argmax(mag2, axis=1)
    at = np.arange(rows.shape[0])
    pivot = rows[at, idx]
    mag = np.sqrt(mag2[at, idx])
    safe = np.where(mag > 0.0, mag, 1.0)
    rot = np.where(mag > 0.0, pivot.conj() / safe, 1.0)
    out = rows * rot[:, None]
    out[at, idx] = np.where(mag > 0.0, mag, pivot)  # exact, not up to rounding
    return out.reshape(v.shape)


def _direction(v: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(|v|, v/|v|), scaling by the largest entry first so that products of
    entries of order 1e+-150 neither overflow nor underflow."""
    top = float(abs(v).max())
    if top == 0.0:
        return 0.0, None
    scaled = v / top
    n = float(np.linalg.norm(scaled))
    return top * n, scaled / n


def _orthogonal_unit(q: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the unit vector q (t >= 2)."""
    k = int(np.argmin(q.real**2 + q.imag**2))
    p = -q * q[k].conjugate()
    p[k] += 1.0
    return p / np.linalg.norm(p)


class SpanPlane(NamedTuple):
    """span{u, w} as u = nu q1, w = nw (c q1 + s q2); (q1, q2) orthonormal, q2 = 0 if s = 0."""

    nu: float
    nw: float
    q1: np.ndarray
    q2: np.ndarray
    c: complex
    s: float


def span_plane(u, w) -> SpanPlane:
    """Validate the pencil vectors (length t >= 2) and orthonormalize them.

    s is the sine of the angle between u and w, exactly 0 below
    `PARALLEL_TOL`. A zero u takes q1 along w (e_0 when both are zero).
    """
    u, w = as_complex_vector(u), as_complex_vector(w)
    if w.shape[0] != u.shape[0] or u.shape[0] < 2:
        raise DimensionMismatch(f"pencil vectors of lengths {u.shape[0]} and {w.shape[0]}")
    return _plane(_direction(u), _direction(w), u.shape[0])


def _plane(du: tuple, dw: tuple, t: int) -> SpanPlane:
    """The plane of checked vectors from their `_direction` results."""
    (nu, q1), (nw, wd) = du, dw
    c, s = 1.0 + 0j, 0.0
    q2 = np.zeros(t, dtype=complex)
    if q1 is None:
        q1 = wd if wd is not None else np.eye(t, dtype=complex)[0]
    elif wd is not None:
        c = complex(np.vdot(q1, wd))
        rest = wd - c * q1
        s = float(np.linalg.norm(rest))
        if s > PARALLEL_TOL:
            q2 = rest / s
        else:
            s = 0.0
    for v in (q1, q2):  # the channel's two planes may share these
        v.flags.writeable = False
    return SpanPlane(nu, nw, q1, q2, c, s)


def top_rank_one_eig(u, w, a, b) -> RankOneTop:
    """Top eigenpairs of (I + a u u^H, I + b w w^H); see `plane_top`."""
    return plane_top(span_plane(u, w), a, b)


def plane_top(plane: SpanPlane, a, b) -> RankOneTop:
    """`plane_coeffs` with the vectors lifted; 0-d weights give NumPy scalars."""
    lam, x0, x1, gap = plane_coeffs(plane, a, b)
    if np.ndim(lam) == 0:
        lam, gap = np.float64(lam), np.float64(gap)
    return RankOneTop(lam, lift(plane, x0, x1), gap)


#: `RankOneTop` with the vector as coefficients x0 >= 0 and x1 on (q1, q2), up
#: to a phase (x0 = x1 = 0: orthogonal to the plane); floats for 0-d weights
PlaneTop = namedtuple("PlaneTop", "lam x0 x1 gap")


def plane_coeffs(plane: SpanPlane, a, b) -> PlaneTop:
    """The top eigenpair of (I + a u u^H, I + b w w^H) on the plane of (u, w).

    With pa = a|u|^2, pb = b|w|^2, sigma = max(pa, pb), ra = pa/sigma and
    rb = pb/sigma, mu = lambda - 1 of the top eigenvalue is sigma * m,
    where m is the top eigenvalue of the 2x2 Hermitian matrix

        N = ra q1 q1^H - lambda rb (c q1 + s q2)(c q1 + s q2)^H,

    i.e. the positive root of (1 + pb) m^2 - (ra - rb + sigma ra rb s^2) m
    - ra rb s^2 = 0, taken in whichever form avoids cancellation. Solving
    for mu rather than lambda keeps lambda - 1 and the eigenvector accurate
    as the weights go to 0, and dividing by sigma keeps the intermediates
    of order one. The eigenvector is the null vector of N - m I read off its
    second row, (m + lambda rb s^2) q1 - lambda rb conj(c) s q2, whose two
    coefficients carry no cancellation; they are scaled to unit norm.

    At a = b = 0 the pencil is (I, I); the vector is the limit along a = b
    -> 0+, the top eigenvector of u u^H - w w^H on span{u, w}. When the top
    eigenvalue is the orthocomplement's 1 (parallel u, w with pa < pb, or
    u = 0) the vector is orthogonal to the plane; a tie keeps q1.

    The weights a, b >= 0 are scalars or arrays, broadcast together. Two
    0-d weights run the same IEEE operations on Python floats, with the
    bits of an array of weights; x1 is formed from its two parts, scaled by
    reciprocals as NumPy divides a complex by a real.
    """
    # float weights, np.float64 among them, need no np.ndim call
    scalar = isinstance(a, float) and isinstance(b, float) or np.ndim(a) == np.ndim(b) == 0
    if scalar:
        a, b = float(a), float(b)
    else:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if (a < 0.0 or b < 0.0) if scalar else np.any((a < 0.0) | (b < 0.0)):
        raise ValueError("pencil weights must be nonnegative")
    nu, nw, q1, _, c, s = plane
    try:  # the square of a Python-float norm above ~1.3e154 overflows
        pa, pb = a * nu**2, b * nw**2
    except OverflowError:
        raise NumericsError("pencil weight overflows") from None
    if scalar:
        return _coeffs_float(plane, pa, pb)
    sigma = np.maximum(pa, pb)
    if not np.all(np.isfinite(sigma)):
        raise NumericsError("pencil weight overflows")
    live, top_norm = sigma > 0.0, max(nu, nw) ** 2 or 1.0
    safe = np.where(live, sigma, 1.0)
    # a = b = 0: the limit along a = b -> 0+ weighs the two sides |u|^2 : |w|^2
    ra = np.where(live, pa / safe, nu**2 / top_norm)
    rb = np.where(live, pb / safe, nw**2 / top_norm)
    s2 = s * s
    d = ra * rb * s2
    lin, quad = ra - rb + sigma * d, 1.0 + pb
    # root = sqrt(lin^2 + 4 quad d) without overflow, by correctly rounded
    # ops; squares as x * x, which Python's x ** 2 (C pow) is not always
    other = 2.0 * np.sqrt(quad) * np.sqrt(d)
    big = np.maximum(abs(lin), other)
    big_safe = np.where(big > 0.0, big, 1.0)
    x, y = lin / big_safe, other / big_safe
    root = big * np.sqrt(x * x + y * y)
    rest = 2.0 * d / np.where(root - lin > 0.0, root - lin, 1.0)
    m = np.where(lin >= 0.0, (lin + root) / (2.0 * quad), rest)
    lam, gap = 1.0 + sigma * m, sigma * (root / quad if q1.shape[0] == 2 else m)
    x0, k = m + lam * rb * s2, lam * rb * s
    x1r, x1i = -(k * c.real), k * c.imag
    scale = np.maximum(x0, np.maximum(abs(x1r), abs(x1i)))
    empty = scale == 0.0
    scale = np.where(empty, 1.0, scale)
    x0, x1r, x1i = x0 / scale, x1r * (1.0 / scale), x1i * (1.0 / scale)
    norm = np.where(empty, 1.0, np.sqrt(x0 * x0 + x1r * x1r + x1i * x1i))
    # no null vector on the span: a tie keeps q1, else the top leaves the plane
    x0 = np.where(empty, np.where(lin < 0.0, 0.0, 1.0), x0 / norm)
    x1 = (x1r * (1.0 / norm)).astype(complex)
    x1.imag = x1i * (1.0 / norm)
    return PlaneTop(lam, x0, x1, gap)


def _coeffs_float(plane: SpanPlane, pa: float, pb: float) -> PlaneTop:
    """`plane_coeffs` on one pair of float weights pa = a|u|^2, pb = b|w|^2."""
    nu, nw, q1, _, c, s = plane
    sigma = pa if pa >= pb or pa != pa else pb  # np.maximum, NaN included
    if not math.isfinite(sigma):
        raise NumericsError("pencil weight overflows")
    top_norm = sigma if sigma > 0.0 else max(nu, nw) ** 2 or 1.0
    ra, rb = (pa, pb) if sigma > 0.0 else (nu**2, nw**2)
    ra, rb, s2 = ra / top_norm, rb / top_norm, s * s
    d = ra * rb * s2
    lin, quad = ra - rb + sigma * d, 1.0 + pb
    other = 2.0 * math.sqrt(quad) * math.sqrt(d)
    big = max(abs(lin), other)
    x, y = (lin / big, other / big) if big > 0.0 else (lin, other)
    root = big * math.sqrt(x * x + y * y)
    rest = 2.0 * d / (root - lin if root - lin > 0.0 else 1.0)
    m = (lin + root) / (2.0 * quad) if lin >= 0.0 else rest
    lam, gap = 1.0 + sigma * m, sigma * (root / quad if q1.shape[0] == 2 else m)
    x0, k = m + lam * rb * s2, lam * rb * s
    x1r, x1i = -(k * c.real), k * c.imag
    scale = max(x0, abs(x1r), abs(x1i))
    if scale == 0.0:
        return PlaneTop(lam, 0.0 if lin < 0.0 else 1.0, complex(x1r, x1i), gap)
    x0, x1r, x1i = x0 / scale, x1r * (1.0 / scale), x1i * (1.0 / scale)
    norm = math.sqrt(x0 * x0 + x1r * x1r + x1i * x1i)
    return PlaneTop(lam, x0 / norm, complex(x1r * (1.0 / norm), x1i * (1.0 / norm)), gap)


def lift(plane: SpanPlane, x0, x1) -> np.ndarray:
    """The phase-normalized t-vector(s) x0 q1 + x1 q2 of `plane_coeffs`'
    coefficients; x0 = x1 = 0 lifts to a unit vector orthogonal to the plane."""
    q1, q2 = plane.q1, plane.q2
    if isinstance(x0, float) or np.ndim(x0) == 0:
        vec = _orthogonal_unit(q1) if x0 == 0.0 and x1 == 0.0 else x0 * q1 + x1 * q2
        return phase_normalize(vec)
    shape, x0, x1 = np.shape(x0), np.ravel(x0), np.ravel(x1)
    vec = x0[:, None] * q1 + x1[:, None] * q2
    empty = (x0 == 0.0) & (x1 == 0.0)
    if np.any(empty):
        vec = np.where(empty[:, None], _orthogonal_unit(q1), vec)
    return phase_normalize(vec).reshape(shape + q1.shape)


def rank_one_residual(u, w, a: float, b: float, lam: float, e: np.ndarray) -> float:
    """||(A - lam B) e|| for A = I + a u u^H, B = I + b w w^H, without
    forming either matrix."""
    r = (1.0 - lam) * e + (a * np.vdot(u, e)) * u - (lam * b * np.vdot(w, e)) * w
    return float(np.linalg.norm(r))
