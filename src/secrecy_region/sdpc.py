"""Secret dirty-paper coding rate evaluation.

For a pair of auxiliary covariances (K_U1, K_U2) with tr(K_U1 + K_U2) <= P
the scheme achieves the rectangle

    r1 <= log2  (1 + h^H K_U1 h) / (1 + g^H K_U1 g)
    r2 <= log2  (1 + g^H (K_U1+K_U2) g) / (1 + h^H (K_U1+K_U2) h)
        + log2  (1 + h^H K_U1 h) / (1 + g^H K_U1 g)

The boundary-achieving choice is rank-one: K_U1 = aP e1 e1^H along the
pencil eigenvector, K_U2 = (1-a)P c2 c2^H along the eigenvector returned
with gamma2(a). With that choice the r2 bound collapses to log2 gamma2(a)
(an algebraic identity this module can verify directly). Such a pair keeps
the two factors (weight, vector) and evaluates rates and checks from them;
its dense matrices are built only when asked for. Its forms with h and g
come from c2's span-plane coefficients (`boundary_forms`), not t-vectors.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .channel import ChannelPair, ChannelSpectrum, rate_scale, spectrum
from .errors import CovarianceInvalid
from .regions import RatePair, _check_param, _gamma2_top

#: PSD slack and trace slack for covariance validation, relative to
#: max(1, tr K) and max(1, P): rounding in a dense K grows with its trace
PSD_TOL = 1e-10
TRACE_TOL = 1e-10


def _hermitian(k) -> np.ndarray:
    """k hermitized, checked first to be finite: a NaN passes every PSD test."""
    k = np.asarray(k, dtype=complex)
    if not np.isfinite(k).all():
        raise CovarianceInvalid("covariance entries must be finite")
    return linalg.hermitize(k)


def _read_only(k: np.ndarray) -> np.ndarray:
    k.flags.writeable = False
    return k


class CovariancePair:
    """Hermitian PSD covariances for the two auxiliary codebooks.

    A pair built from two matrices hermitizes them and uses them as given.
    `optimal_covariances` builds its pairs from the rank-one factors
    (weight, unit v) of K = weight v v^H instead: their traces, PSD checks
    and quadratic forms x^H K x = weight |v^H x|^2 come from the factors,
    which stays exact at high power, where the rounding error of a dense
    entry, about eps * weight, swamps forms such as g^H K_U1 g that are
    small by design. `k_u1`, `k_u2` and `total` are read-only; a factored
    pair builds them on first access. Pairs compare by identity.
    """

    def __init__(self, k_u1: np.ndarray, k_u2: np.ndarray):
        k_u1, k_u2 = _hermitian(k_u1), _hermitian(k_u2)
        if k_u1.shape != k_u2.shape:
            raise CovarianceInvalid(
                f"covariance shapes differ: {k_u1.shape} vs {k_u2.shape}"
            )
        self.__dict__.update(k_u1=_read_only(k_u1), k_u2=_read_only(k_u2), _factors=None, _own=None)

    def __setattr__(self, name, value):
        raise AttributeError(f"CovariancePair is read-only: cannot set {name!r}")

    def __getattr__(self, name):
        # reached only for what __dict__ lacks: a factored pair's dense
        # matrices before their first access, and any pair's total
        if name == "total":
            k = self.k_u1 + self.k_u2
        elif name in ("k_u1", "k_u2") and self._factors is not None:
            k = self._dense(("k_u1", "k_u2").index(name))
        else:
            raise AttributeError(name)
        self.__dict__[name] = _read_only(k)
        return k

    def _dense(self, index: int) -> np.ndarray:
        weight, v = self._factors[index]
        return weight * (v[:, None] * v.conj())

    def _traces(self) -> tuple[float, float]:
        if self._factors is None:
            return float(np.trace(self.k_u1).real), float(np.trace(self.k_u2).real)
        return self._factors[0][0], self._factors[1][0]

    @property
    def trace(self) -> float:
        return sum(self._traces())

    def forms(self, x: np.ndarray) -> tuple[float, float]:
        """(x^H K_U1 x, x^H (K_U1 + K_U2) x)."""
        if self._factors is None:
            own = linalg.quadratic_form(x, self.k_u1, x).real
            return own, own + linalg.quadratic_form(x, self.k_u2, x).real
        (w1, v1), (w2, v2) = self._factors
        own = (w1 * complex(np.vdot(x, v1)) * complex(np.vdot(v1, x))).real
        return own, own + (w2 * complex(np.vdot(x, v2)) * complex(np.vdot(v2, x))).real


def _check(ch: ChannelPair, names, dim: int, lows, traces) -> None:
    """Dimension, PSD (least eigenvalues `lows`) and trace-budget checks."""
    if dim != ch.dim:
        raise CovarianceInvalid(
            f"{names[0]} dimension {dim} != channel dimension {ch.dim}"
        )
    for name, low, trace in zip(names, lows, traces):
        if low < -PSD_TOL * max(1.0, trace):
            raise CovarianceInvalid(f"{name} has eigenvalue {low:.3e} < 0")
    if sum(traces) > ch.power + TRACE_TOL * max(1.0, ch.power):
        total = " + ".join(names).upper()
        raise CovarianceInvalid(
            f"tr({total}) = {sum(traces):.12g} exceeds the power budget {ch.power}"
        )


def validate_covariances(ch: ChannelPair, cov: CovariancePair) -> None:
    """Check PSD-ness and the total trace budget against ch.power.

    A rank-one factor is PSD by construction when its weight is >= 0.
    """
    traces = cov._traces()
    if cov._factors is None:
        lows = [float(np.linalg.eigvalsh(k)[0]) for k in (cov.k_u1, cov.k_u2)]
        return _check(ch, ("k_u1", "k_u2"), cov.k_u1.shape[0], lows, traces)
    _check(ch, ("k_u1", "k_u2"), cov._factors[0][1].shape[0], traces, traces)


def rate_bounds_raw(ch: ChannelPair, cov: CovariancePair) -> tuple[float, float]:
    """Unclamped log2 bounds (r1, r2); negative values mean a vacuous bound."""
    own = cov._own  # an optimal pair's forms with its own channel's h and g
    (h1, ht), (g1, gt) = own[1:] if own and own[0] is ch else (cov.forms(ch.h), cov.forms(ch.g))
    b1 = np.log2((1.0 + h1) / (1.0 + g1))
    return float(b1), float(np.log2((1.0 + gt) / (1.0 + ht)) + b1)


def sdpc_rates(ch: ChannelPair, cov: CovariancePair) -> RatePair:
    """Rectangle corner achieved by a covariance pair, clamped at zero.

    A negative bound means the rectangle is degenerate on that axis (the
    bound is vacuous, not an error); use rate_bounds_raw to see it.
    """
    validate_covariances(ch, cov)
    b1, b2 = rate_bounds_raw(ch, cov)
    scale = rate_scale(ch)
    return RatePair(max(0.0, scale * b1), max(0.0, scale * b2))


def boundary_forms(ch: ChannelPair, spec: ChannelSpectrum, a) -> tuple:
    """gamma2's plane coefficients at the checked splits a, and the forms
    (h^H K_U1 h, h^H K h, g^H K_U1 g, g^H K g, g^H K_U2 h) of the optimal
    pair, scalars or arrays like a. c2 = x0 q1 + x1 q2 on `ch.plane_gh` up
    to a phase the forms do not see, so c2^H g = |g| x0 and c2^H h =
    |h| (x0 c + conj(x1) s); e1's projections come from the spectrum."""
    top = _gamma2_top(ch, spec, a)
    ng, nh, _, _, c, s = ch.plane_gh
    x0, x1, cg = top.x0, top.x1, ng * top.x0
    hr, hi = nh * (x0 * c.real + x1.real * s), nh * (x0 * c.imag - x1.imag * s)
    w1, w2 = a * ch.power, (1.0 - a) * ch.power
    h1, g1 = w1 * spec.proj1[0], w1 * spec.proj1[1]
    ht, gt = h1 + w2 * (hr * hr + hi * hi), g1 + w2 * (cg * cg)
    return top, (h1, ht, g1, gt, w2 * cg * (hr + 1j * hi))


def optimal_covariances(
    ch: ChannelPair, alpha: float, spec: ChannelSpectrum | None = None
) -> CovariancePair:
    """Boundary-achieving rank-one pair for a given split alpha.

    K_U1 = alpha P e1 e1^H and K_U2 = (1-alpha) P c2 c2^H, kept as their
    factors, so tr(K_U1) = alpha*P and tr(K_U2) = (1-alpha)*P exactly, and
    its forms with ch's h and g from `boundary_forms`; c2 is gamma2's vector.
    """
    a = _check_param(alpha, "alpha")
    spec = spec or spectrum(ch)
    top, (h1, ht, g1, gt, _) = boundary_forms(ch, spec, a)
    c2 = linalg.lift(ch.plane_gh, top.x0, top.x1)
    pair = CovariancePair.__new__(CovariancePair)
    pair.__dict__.update(
        _factors=((a * ch.power, spec.e1), ((1.0 - a) * ch.power, c2)),
        _own=(ch, (h1, ht), (g1, gt)),
    )
    return pair


def verify_identity_eq9(ch: ChannelPair, alpha, spec: ChannelSpectrum | None = None):
    """|direct quadratic-form ratio - gamma2(alpha)| for the optimal pair.

    The direct side evaluates
    [1 + g^H K g][1 + h^H K_U1 h] / ([1 + h^H K h][1 + g^H K_U1 g])
    with K = K_U1 + K_U2, from the pair's forms (`boundary_forms`); the
    pencil side is gamma2(alpha). The two agree analytically; the return
    value is the numerical gap, batched bit for bit over an array of alpha.
    """
    a = _check_param(alpha, "alpha")
    top, (h1, ht, g1, gt, _) = boundary_forms(ch, spec or spectrum(ch), a)
    lhs = ((1.0 + gt) * (1.0 + h1)) / ((1.0 + ht) * (1.0 + g1))
    return abs(lhs - top.lam)
