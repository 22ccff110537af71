"""Independent oracles used only by the tests.

These deliberately avoid the production code paths: the generalized
eigenvalue oracle restricts the pencil to span{v, w} and solves the 2x2
characteristic quadratic directly (no Cholesky reduction, no Jacobi), the
quadratic-form oracle expands scalar products explicitly, the
minimizer oracle is a dense grid search, and the polyline distance
measures each point against every segment that can be nearest to it.
"""
from __future__ import annotations

import numpy as np


def span_restricted_pencil(
    v: np.ndarray, w: np.ndarray, s_v: float, s_w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal basis Q of span{v, w} and the restricted pencil matrices
    for (I + s_v v v^H, I + s_w w w^H)."""
    nv = np.linalg.norm(v)
    if nv == 0.0 and np.linalg.norm(w) == 0.0:
        raise ValueError("span is empty")
    first = v if nv > 0 else w
    q1 = first / np.linalg.norm(first)
    resid = w - q1 * np.vdot(q1, w)
    if np.linalg.norm(resid) > 1e-13 * max(np.linalg.norm(w), 1.0):
        q2 = resid / np.linalg.norm(resid)
        q = np.stack([q1, q2], axis=1)
    else:
        q = q1.reshape(-1, 1)
    k = q.shape[1]
    vv = q.conj().T @ v
    ww = q.conj().T @ w
    a = np.eye(k, dtype=complex) + s_v * np.outer(vv, vv.conj())
    b = np.eye(k, dtype=complex) + s_w * np.outer(ww, ww.conj())
    return q, a, b


def quadratic_roots_max(a2: np.ndarray, b2: np.ndarray) -> float:
    """Largest root of det(A - lambda B) = 0 for 2x2 Hermitian A, B."""
    qa = (b2[0, 0] * b2[1, 1]).real - abs(b2[0, 1]) ** 2
    qb = -(
        a2[0, 0] * b2[1, 1]
        + a2[1, 1] * b2[0, 0]
        - a2[0, 1] * np.conj(b2[0, 1])
        - np.conj(a2[0, 1]) * b2[0, 1]
    ).real
    qc = (a2[0, 0] * a2[1, 1]).real - abs(a2[0, 1]) ** 2
    disc = max(qb * qb - 4.0 * qa * qc, 0.0)
    return (-qb + np.sqrt(disc)) / (2.0 * qa)


def top_gen_eig_oracle(
    v: np.ndarray, w: np.ndarray, s_v: float, s_w: float
) -> tuple[float, np.ndarray | None]:
    """Top generalized eigenpair of (I + s_v v v^H, I + s_w w w^H).

    On the orthocomplement of span{v, w} the pencil acts as (I, I), so the
    eigenvalue 1 has multiplicity t-2 there; the remaining two eigenvalues
    live on the restricted 2x2 problem. Returns (lambda_max, eigenvector)
    with eigenvector None when the top eigenvalue is the orthocomplement's
    (only possible for lambda_max == 1).
    """
    q, a2, b2 = span_restricted_pencil(v, w, s_v, s_w)
    if q.shape[1] == 1:
        lam = (a2[0, 0] / b2[0, 0]).real
        if lam >= 1.0:
            return lam, q[:, 0]
        return 1.0, None
    lam = quadratic_roots_max(a2, b2)
    if lam < 1.0:
        return 1.0, None
    n = a2 - lam * b2
    r0 = abs(n[0, 0]) + abs(n[0, 1])
    r1 = abs(n[1, 0]) + abs(n[1, 1])
    if max(r0, r1) == 0.0:
        return lam, None  # pencil proportional: any direction works
    x = (
        np.array([-n[0, 1], n[0, 0]])
        if r0 >= r1
        else np.array([-n[1, 1], n[1, 0]])
    )
    x = x / np.linalg.norm(x)
    return lam, q @ x


def channel_pencil_oracle(h: np.ndarray, g: np.ndarray, power: float):
    """(lambda1, e1, lambda2, e2) through the span-reduction route."""
    lam1, e1 = top_gen_eig_oracle(h, g, power, power)
    lam2, e2 = top_gen_eig_oracle(g, h, power, power)
    return lam1, e1, lam2, e2


def quadratic_form_expanded(v: np.ndarray, m: np.ndarray, w: np.ndarray) -> complex:
    """v^H M w by explicit scalar summation."""
    total = 0.0 + 0.0j
    for i in range(len(v)):
        for j in range(len(w)):
            total += np.conj(v[i]) * m[i, j] * w[j]
    return total


def sato_objective_grid_min(
    own_vec: np.ndarray,
    other_vec: np.ndarray,
    k: np.ndarray,
    rho: complex,
    half_width: float = 3.0,
    points: int = 201,
    stages: int = 3,
) -> float:
    """Grid search of the combining-coefficient minimization.

    Scans nu over [-half_width, half_width]^2 in the complex plane with a
    points x points grid, then zooms onto the best cell (stages times) so
    the resolution limit drops below the comparison tolerance. Returns the
    minimum of

      log2 [ (own - nu*other)^H K (own - nu*other)
             + 1 + |nu|^2 - nu* rho - rho* nu ] / (1 - |rho|^2).
    """
    a = np.vdot(other_vec, k @ other_vec).real
    c = np.vdot(other_vec, k @ own_vec)
    d = np.vdot(own_vec, k @ own_vec).real

    def objective(nu: np.ndarray) -> np.ndarray:
        quad = d - 2.0 * np.real(np.conj(nu) * c) + np.abs(nu) ** 2 * a
        psi = 1.0 + np.abs(nu) ** 2 - 2.0 * np.real(np.conj(nu) * rho)
        return (quad + psi) / (1.0 - abs(rho) ** 2)

    center = 0.0 + 0.0j
    width = half_width
    best = np.inf
    for _ in range(stages):
        re = center.real + np.linspace(-width, width, points)
        im = center.imag + np.linspace(-width, width, points)
        nu = re[:, None] + 1j * im[None, :]
        vals = objective(nu)
        flat = int(vals.argmin())
        best = min(best, float(vals.min()))
        center = complex(nu[flat // points, flat % points])
        step = 2.0 * width / (points - 1)
        width = 1.5 * step
    return float(np.log2(best))


def random_channel(rng: np.random.Generator, dim: int, power: float, mode: str):
    """Gaussian random channel in the requested mode."""
    if mode == "real":
        h = rng.standard_normal(dim) + 0j
        g = rng.standard_normal(dim) + 0j
    else:
        h = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2)
        g = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2)
    return h, g, power


def random_psd(rng: np.random.Generator, dim: int, trace: float) -> np.ndarray:
    """Random PSD matrix with the requested trace."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    k = x @ x.conj().T
    tr = np.trace(k).real
    if tr == 0.0:
        return np.zeros((dim, dim), dtype=complex)
    return k * (trace / tr)


def sato_coupling_grid_min(
    own_vec: np.ndarray,
    other_vec: np.ndarray,
    k: np.ndarray,
    radii: int = 200,
    angles: int = 256,
    points: int = 41,
    stages: int = 10,
) -> tuple[float, complex]:
    """Dense polar-grid search of the witness bound over the coupling.

    The bound at a coupling rho, with the combining coefficient already
    minimized, is log2 [ (d + 1 - |c + rho|^2 / (a + 1)) / (1 - |rho|^2) ]
    for d = own^H K own, a = other^H K other and c = other^H K own. Scans
    a radii x angles polar grid of the open unit disk, then zooms a
    points x points Cartesian box onto the best point (stages times,
    points outside the disk excluded). Returns (minimum, its coupling).
    """
    a = float(np.vdot(other_vec, k @ other_vec).real)
    c = complex(np.vdot(other_vec, k @ own_vec))
    d = float(np.vdot(own_vec, k @ own_vec).real)

    def objective(rho: np.ndarray) -> np.ndarray:
        gap = 1.0 - np.abs(rho) ** 2
        vals = (d + 1.0 - np.abs(c + rho) ** 2 / (a + 1.0)) / np.where(gap > 0, gap, 1.0)
        return np.where(gap > 0, vals, np.inf)

    r = np.arange(radii) / radii
    rho = (r[:, None] * np.exp(2j * np.pi * np.arange(angles) / angles)[None, :]).ravel()
    vals = objective(rho)
    best = int(vals.argmin())
    center, value = complex(rho[best]), float(vals[best])
    width = 2.0 / radii
    for _ in range(stages):
        axis = np.linspace(-width, width, points)
        box = (center.real + axis[:, None] + 1j * (center.imag + axis[None, :])).ravel()
        vals = objective(box)
        best = int(vals.argmin())
        if vals[best] < value:
            center, value = complex(box[best]), float(vals[best])
        width *= 3.0 / (points - 1)
    return float(np.log2(value)), center


def polyline_distance(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each of the (n, 2) points to a frontier or staircase
    polyline (x never decreasing, y never increasing): the least over its
    segments of the distance to their nearest point.

    The distance r to one of the two vertices nearest in x bounds the
    answer, and a segment whose x- or y-range stays farther than r from the
    point cannot come nearer. So each point is measured against every
    segment within r of it in both coordinates, in chunks of points.
    """
    x, y = poly[:, 0], poly[:, 1]
    if np.any(x[1:] < x[:-1]) or np.any(y[1:] > y[:-1]):
        raise ValueError("polyline must be monotone: x rising, y falling")
    line = poly if len(poly) > 1 else np.vstack([poly, poly])
    ax, ay = line[:-1, 0], line[:-1, 1]
    vx, vy = line[1:, 0] - ax, line[1:, 1] - ay
    ll = vx * vx + vy * vy
    ll[ll == 0.0] = 1.0
    px, py = points[:, 0], points[:, 1]
    k = np.minimum(np.searchsorted(x, px), len(x) - 1)
    # the padding covers the rounding of r below |px - x[k]| and |py - y[k]|
    r = np.hypot(px - x[k], py - y[k]) * (1.0 + 1e-9)
    # segment i spans x[i] to x[i + 1] and -y[i] to -y[i + 1]; both windows
    # hold a segment ending at vertex k
    lo, hi = 0, len(ax) - 1
    for q, pq in ((x, px), (-y, -py)):
        lo = np.maximum(lo, np.searchsorted(q, pq - r, side="left") - 1)
        hi = np.minimum(hi, np.searchsorted(q, pq + r, side="right") - 1)
    out = np.empty(len(points))
    for c in range(0, len(points), 256):
        w = hi[c : c + 256] - lo[c : c + 256] + 1
        first = np.cumsum(w) - w
        i = np.repeat(np.arange(c, c + len(w)), w)
        s = np.arange(w.sum()) - np.repeat(first - lo[c : c + 256], w)
        dx, dy = px[i] - ax[s], py[i] - ay[s]
        t = np.clip((dx * vx[s] + dy * vy[s]) / ll[s], 0.0, 1.0)
        out[c : c + 256] = np.minimum.reduceat(np.hypot(dx - t * vx[s], dy - t * vy[s]), first)
    return out


def resample_polyline(poly: np.ndarray, samples: int) -> np.ndarray:
    """The (n, 2) polyline's vertices, then `samples` points spread evenly
    over its arc length, both ends included."""
    d = np.diff(poly, axis=0)
    acc = np.concatenate([[0.0], np.cumsum(np.hypot(d[:, 0], d[:, 1]))])
    at = np.linspace(0.0, acc[-1], samples)
    return np.vstack([poly, np.column_stack([np.interp(at, acc, c) for c in poly.T])])


def sampled_distance(a: np.ndarray, b: np.ndarray, samples: int) -> float:
    """Largest distance from the (n, 2) polyline a, taken at the points of
    `resample_polyline(a, samples)`, to polyline b."""
    return float(polyline_distance(resample_polyline(a, samples), b).max())


def sampled_hausdorff(a: np.ndarray, b: np.ndarray, samples: int) -> float:
    """Symmetric Hausdorff distance between two (n, 2) polylines, each
    sampled as in `sampled_distance`."""
    return max(sampled_distance(a, b, samples), sampled_distance(b, a, samples))
