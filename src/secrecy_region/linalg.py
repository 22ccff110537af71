"""Linear algebra for the identity-plus-rank-one pencils of this package.

Every pencil here is (I + a u u^H, I + b w w^H) with u, w in {h, g}. On the
orthocomplement of span{u, w} it acts as (I, I), so its top eigenpair comes
from a 2x2 problem on that span and depends only on a, b and the Gram data
|u|, |w|, u^H w, whatever the antenna count. `top_rank_one_eig` solves that
2x2 problem in closed form, vectorised over arrays of weights (a, b).
`largest_gen_eig` keeps a generic dense route for arbitrary definite pencils.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NumericsError

#: absolute gap below which the top two eigenvalues count as degenerate
DEGENERACY_GAP = 1e-10

#: sine of the angle between u and w below which they count as parallel;
#: for exactly parallel inputs rounding leaves a computed sine below 1e-15
PARALLEL_TOL = 1e-14


@dataclass(frozen=True)
class GenEigResult:
    """Largest generalized eigenpair of a Hermitian-definite pencil (A, B).

    eigenvalue   -- the maximum lambda with A e = lambda B e (real)
    eigenvector  -- unit-norm e, phase-fixed (see `phase_normalize`)
    residual     -- ||(A - lambda B) e||_2
    degenerate   -- True when the top two eigenvalues differ by < 1e-10
    """

    eigenvalue: float
    eigenvector: np.ndarray
    residual: float
    degenerate: bool


class RankOneTop(NamedTuple):
    """Top eigenpairs of rank-one pencils, shaped like the broadcast weights.

    lam -- largest eigenvalues, shape s
    vec -- unit eigenvectors, phase-fixed, shape s + (t,)
    gap -- distance from lam to the next eigenvalue, shape s
    """

    lam: np.ndarray
    vec: np.ndarray
    gap: np.ndarray


def as_complex_vector(entries) -> np.ndarray:
    """Validate and convert to a 1-D complex ndarray with finite entries."""
    v = np.asarray(entries, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return v


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^H)/2, forcing exact conjugate symmetry."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


def identity_plus_rank_one(t: int, scale: float, v: np.ndarray) -> np.ndarray:
    """Build I + scale * v v^H, the Gram matrix every pencil here is made of."""
    v = as_complex_vector(v)
    if v.shape[0] != t:
        raise DimensionMismatch(f"vector length {v.shape[0]} != dimension {t}")
    return np.eye(t, dtype=complex) + scale * np.outer(v, v.conj())


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
    top = float(np.max(np.abs(v)))
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


def top_rank_one_eig(u, w, a, b) -> RankOneTop:
    """Top eigenpairs of the pencils (I + a u u^H, I + b w w^H).

    u, w are vectors of length t >= 2; a, b are nonnegative weights (scalars
    or arrays, broadcast together). Write u = |u| q1 and w = |w| (c q1 + s q2)
    with (q1, q2) orthonormal and s >= 0 the sine of their angle, and let
    pa = a|u|^2, pb = b|w|^2, sigma = max(pa, pb), ra = pa/sigma and
    rb = pb/sigma. Then mu = lambda - 1 of the top eigenvalue is sigma * m,
    where m is the top eigenvalue of the 2x2 Hermitian matrix

        N = ra q1 q1^H - lambda rb (c q1 + s q2)(c q1 + s q2)^H,

    i.e. the positive root of (1 + pb) m^2 - (ra - rb + sigma ra rb s^2) m
    - ra rb s^2 = 0, taken in whichever form avoids cancellation. Solving
    for mu rather than lambda keeps lambda - 1 and the eigenvector accurate
    as the weights go to 0, and dividing by sigma keeps the intermediates
    of order one. The eigenvector is the null vector of N - m I read off its
    second row, (m + lambda rb s^2) q1 - lambda rb conj(c) s q2, whose two
    coefficients carry no cancellation.

    At a = b = 0 the pencil is (I, I) and every vector is an eigenvector; the
    returned one is the limit along a = b -> 0+, the top eigenvector of
    u u^H - w w^H on span{u, w}. When the top eigenvalue is the
    orthocomplement's 1 (parallel u, w with pa < pb, or u = 0) the returned
    vector is orthogonal to the common direction.
    """
    u = as_complex_vector(u)
    w = as_complex_vector(w)
    t = u.shape[0]
    if w.shape[0] != t or t < 2:
        raise DimensionMismatch(f"pencil vectors of lengths {t} and {w.shape[0]}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a = a.ravel()
    b = b.ravel()
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("pencil weights must be nonnegative")

    nu, q1 = _direction(u)
    nw, wd = _direction(w)
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

    pa = a * nu**2
    pb = b * nw**2
    sigma = np.maximum(pa, pb)
    if not np.all(np.isfinite(sigma)):
        raise NumericsError("pencil weight overflows")
    live = sigma > 0.0
    safe = np.where(live, sigma, 1.0)
    # a = b = 0: the limit along a = b -> 0+ weighs the two sides |u|^2 : |w|^2
    top_norm = max(nu, nw) ** 2 or 1.0
    ra = np.where(live, pa / safe, nu**2 / top_norm)
    rb = np.where(live, pb / safe, nw**2 / top_norm)

    s2 = s * s
    d = ra * rb * s2
    lin = ra - rb + sigma * d
    quad = 1.0 + pb
    # root = sqrt(lin^2 + 4 quad d) without overflow, by correctly rounded ops
    other = 2.0 * np.sqrt(quad) * np.sqrt(d)
    big = np.maximum(np.abs(lin), other)
    big_safe = np.where(big > 0.0, big, 1.0)
    root = big * np.sqrt((lin / big_safe) ** 2 + (other / big_safe) ** 2)
    m = np.where(
        lin >= 0.0,
        (lin + root) / (2.0 * quad),
        2.0 * d / np.where(root - lin > 0.0, root - lin, 1.0),
    )
    lam = 1.0 + sigma * m
    gap = sigma * (root / quad if t == 2 else m)

    x0 = m + lam * rb * s2
    x1 = -(lam * rb * s) * np.conj(c)
    scale = np.maximum(x0, np.maximum(np.abs(x1.real), np.abs(x1.imag)))
    scale_safe = np.where(scale > 0.0, scale, 1.0)
    x0 = x0 / scale_safe
    x1 = x1 / scale_safe
    norm = np.sqrt(x0 * x0 + x1.real**2 + x1.imag**2)
    norm = np.where(norm > 0.0, norm, 1.0)
    vec = (x0 / norm)[:, None] * q1 + (x1 / norm)[:, None] * q2
    # no null vector on the span: a tie keeps q1, else the top is orthogonal
    empty = scale == 0.0
    if np.any(empty):
        fallback = np.where((lin < 0.0)[:, None], _orthogonal_unit(q1), q1)
        vec = np.where(empty[:, None], fallback, vec)
    vec = phase_normalize(vec)
    return RankOneTop(lam.reshape(shape), vec.reshape(shape + (t,)), gap.reshape(shape))


def rank_one_residual(u, w, a: float, b: float, lam: float, e: np.ndarray) -> float:
    """||(A - lam B) e|| for A = I + a u u^H, B = I + b w w^H, without
    forming either matrix."""
    r = (1.0 - lam) * e + (a * np.vdot(u, e)) * u - (lam * b * np.vdot(w, e)) * w
    return float(np.linalg.norm(r))


def largest_gen_eig(a: np.ndarray, b: np.ndarray) -> GenEigResult:
    """Largest generalized eigenpair of the Hermitian-definite pencil (A, B).

    A generic dense route for arbitrary pencils: LAPACK's reduction of
    A e = lambda B e through the Cholesky factor of B. B must be Hermitian
    positive definite. The returned eigenvector has unit 2-norm and a
    deterministic phase. The package's own pencils use `top_rank_one_eig`.
    """
    import scipy.linalg  # deferred: importing SciPy costs more than the CLI start-up

    a = hermitize(a)
    b = hermitize(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"pencil shapes differ: {a.shape} vs {b.shape}")
    try:
        vals, vecs = scipy.linalg.eigh(a, b)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    lam = float(vals[-1])
    degenerate = bool(len(vals) > 1 and (vals[-1] - vals[-2]) < DEGENERACY_GAP)
    x = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
    x = phase_normalize(x)
    residual = float(np.linalg.norm(a @ x - lam * (b @ x)))
    return GenEigResult(lam, x, residual, degenerate)
