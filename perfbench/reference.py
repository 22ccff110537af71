"""High-precision references computed outside the package.

Every pencil the package solves is identity-plus-rank-one on span{h, g}:
(I + s_v v v^H, I + s_w w w^H) with v, w in {h, g}. On the orthocomplement
of that span it acts as (I, I), so its top eigenpair comes from the 2x2
restriction to an orthonormal basis of the span. Here the coordinates of h
and g in such a basis are built by Gram-Schmidt in 50-digit mpmath
arithmetic, and the characteristic quadratic det(A - lambda B) = 0 of each
restricted pencil is solved directly. Nothing here calls the package, so the
checks built on these values stay independent of its code paths.
"""
from __future__ import annotations

import mpmath as mp

DIGITS = 50


def _dot(u, v):
    """u^H v."""
    return mp.fsum(mp.conj(a) * b for a, b in zip(u, v))


def span_coordinates(h, g) -> tuple[list, list]:
    """Coordinates of h and g in an orthonormal basis of span{h, g}.

    Returns 2-vectors; the second coordinate of both is 0 when h and g are
    parallel, and the first basis vector is g's direction when h = 0.
    """
    h = [mp.mpc(float(z.real), float(z.imag)) for z in h]
    g = [mp.mpc(float(z.real), float(z.imag)) for z in g]
    nh = mp.sqrt(_dot(h, h).real)
    ng = mp.sqrt(_dot(g, g).real)
    if nh == 0:
        return [mp.mpc(0), mp.mpc(0)], [mp.mpc(ng), mp.mpc(0)]
    c = _dot(h, g) / nh  # first coordinate of g, along h / |h|
    perp = mp.sqrt(max(ng * ng - abs(c) ** 2, mp.mpf(0)))
    return [mp.mpc(nh), mp.mpc(0)], [c, mp.mpc(perp)]


def top_pencil(v: list, w: list, s_v, s_w) -> tuple:
    """(lambda_max, unit 2-vector or None) of (I + s_v vv^H, I + s_w ww^H).

    v and w are span coordinates. The eigenvector is None when the pencil
    is proportional to (I, I), where every direction is an eigenvector.
    """
    a = [[(1 if i == j else 0) + s_v * v[i] * mp.conj(v[j]) for j in range(2)]
         for i in range(2)]
    b = [[(1 if i == j else 0) + s_w * w[i] * mp.conj(w[j]) for j in range(2)]
         for i in range(2)]
    qa = mp.re(b[0][0] * b[1][1] - b[0][1] * b[1][0])
    qb = -mp.re(
        a[0][0] * b[1][1] + a[1][1] * b[0][0] - a[0][1] * b[1][0] - a[1][0] * b[0][1]
    )
    qc = mp.re(a[0][0] * a[1][1] - a[0][1] * a[1][0])
    disc = max(qb * qb - 4 * qa * qc, mp.mpf(0))
    lam = (-qb + mp.sqrt(disc)) / (2 * qa)
    n = [[a[i][j] - lam * b[i][j] for j in range(2)] for i in range(2)]
    r0 = abs(n[0][0]) + abs(n[0][1])
    r1 = abs(n[1][0]) + abs(n[1][1])
    scale = max(abs(x) for row in a + b for x in row)
    if max(r0, r1) <= mp.mpf(10) ** (-40) * scale:
        return lam, None
    x = [-n[0][1], n[0][0]] if r0 >= r1 else [-n[1][1], n[1][0]]
    nrm = mp.sqrt(abs(x[0]) ** 2 + abs(x[1]) ** 2)
    return lam, [x[0] / nrm, x[1] / nrm]


class ChannelReference:
    """Reference spectrum and boundary corners of one channel (h, g, P)."""

    def __init__(self, h, g, power: float):
        with mp.workdps(DIGITS):
            self.h, self.g = span_coordinates(h, g)
            self.p = mp.mpf(float(power))
            self.lambda1, self.e1 = top_pencil(self.h, self.g, self.p, self.p)
            self.lambda2, _ = top_pencil(self.g, self.h, self.p, self.p)

    def _gammas(self, alpha: float) -> tuple:
        if self.e1 is None:
            return mp.mpf(1), mp.mpf(1)  # P = 0: both pencils are (I, I)
        a = mp.mpf(float(alpha))
        hh = abs(_dot(self.h, self.e1)) ** 2
        gg = abs(_dot(self.g, self.e1)) ** 2
        g1 = (1 + a * self.p * hh) / (1 + a * self.p * gg)
        s_g = (1 - a) * self.p / (1 + a * self.p * gg)
        s_h = (1 - a) * self.p / (1 + a * self.p * hh)
        g2, _ = top_pencil(self.g, self.h, s_g, s_h)
        return g1, g2

    def gammas(self, alpha: float) -> tuple[float, float]:
        """(gamma1(alpha), gamma2(alpha)) of the direct parametrization."""
        with mp.workdps(DIGITS):
            g1, g2 = self._gammas(alpha)
            return float(g1), float(g2)

    def corner(self, alpha: float, scale: float) -> tuple[float, float]:
        """Rate corner (scale*log2 gamma1, scale*log2 gamma2) at alpha."""
        with mp.workdps(DIGITS):
            g1, g2 = self._gammas(alpha)
            return float(scale * mp.log(g1, 2)), float(scale * mp.log(g2, 2))

    def intercepts(self, scale: float) -> tuple[float, float]:
        """Axis intercepts (scale*log2 lambda1, scale*log2 lambda2)."""
        with mp.workdps(DIGITS):
            return (
                float(scale * mp.log(self.lambda1, 2)),
                float(scale * mp.log(self.lambda2, 2)),
            )
