"""Secret dirty-paper coding rate evaluation.

For a pair of auxiliary covariances (K_U1, K_U2) with tr(K_U1 + K_U2) <= P
the scheme achieves the rectangle

    r1 <= log2  (1 + h^H K_U1 h) / (1 + g^H K_U1 g)
    r2 <= log2  (1 + g^H (K_U1+K_U2) g) / (1 + h^H (K_U1+K_U2) h)
        + log2  (1 + h^H K_U1 h) / (1 + g^H K_U1 g)

The boundary-achieving choice is rank-one: K_U1 = aP e1 e1^H along the
pencil eigenvector, K_U2 = (1-a)P c2 c2^H along the eigenvector returned
with gamma2(a). With that choice the r2 bound collapses to log2 gamma2(a)
(an algebraic identity this module can verify directly).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import ChannelPair, ChannelSpectrum, rate_scale, spectrum
from .errors import CovarianceInvalid
from .regions import RatePair, _check_param, gamma2

#: PSD slack and trace slack for covariance validation
PSD_TOL = 1e-10
TRACE_TOL = 1e-10


class RankOneCovariance(np.ndarray):
    """The matrix weight * v v^H (unit v) that keeps its factor (weight, v).

    The boundary-achieving covariances are rank one. Their quadratic forms
    x^H K y = weight (x^H v)(v^H y) are exact from the factor, while the
    rounded dense entries carry an error of about eps * weight |x| |y|: at
    high power that swamps forms such as g^H K_U1 g, which are small by
    design. The matrix is read-only, and arithmetic on it, views of it and
    copies of it are plain dense matrices.
    """

    def __new__(cls, weight: float, vector: np.ndarray):
        v = np.asarray(vector, dtype=complex)
        obj = (weight * np.outer(v, v.conj())).view(cls)
        obj.flags.writeable = False
        obj.factor = (float(weight), v)
        return obj

    def __array_finalize__(self, obj):
        self.factor = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [
            x.view(np.ndarray) if isinstance(x, RankOneCovariance) else x for x in inputs
        ]
        return getattr(ufunc, method)(*plain, **kwargs)


def _factor(k: np.ndarray) -> tuple[float, np.ndarray] | None:
    return getattr(k, "factor", None)


def _form(x: np.ndarray, k: np.ndarray, y: np.ndarray) -> complex:
    """x^H K y, from the factor when K keeps one."""
    factor = _factor(k)
    if factor is None:
        return linalg.quadratic_form(x, k, y)
    weight, v = factor
    return weight * complex(np.vdot(x, v)) * complex(np.vdot(v, y))


def _trace(k: np.ndarray) -> float:
    factor = _factor(k)
    return factor[0] if factor is not None else float(np.trace(k).real)


@dataclass(frozen=True)
class CovariancePair:
    """Hermitian PSD covariances for the two auxiliary codebooks.

    Either matrix may be a `RankOneCovariance` (as `optimal_covariances`
    builds them); rates and checks then use its factor. Dense matrices are
    hermitized and used as given.
    """

    k_u1: np.ndarray
    k_u2: np.ndarray

    def __post_init__(self):
        for name in ("k_u1", "k_u2"):
            k = getattr(self, name)
            if _factor(k) is None:
                object.__setattr__(self, name, linalg.hermitize(k))
        if self.k_u1.shape != self.k_u2.shape:
            raise CovarianceInvalid(
                f"covariance shapes differ: {self.k_u1.shape} vs {self.k_u2.shape}"
            )

    @property
    def total(self) -> np.ndarray:
        return self.k_u1 + self.k_u2

    @property
    def trace(self) -> float:
        return _trace(self.k_u1) + _trace(self.k_u2)

    def forms(self, x: np.ndarray) -> tuple[float, float]:
        """(x^H K_U1 x, x^H (K_U1 + K_U2) x)."""
        own = _form(x, self.k_u1, x).real
        return own, own + _form(x, self.k_u2, x).real


def validate_covariances(ch: ChannelPair, cov: CovariancePair) -> None:
    """Check PSD-ness and the total trace budget against ch.power.

    A rank-one factor is PSD by construction when its weight is >= 0.
    """
    if cov.k_u1.shape[0] != ch.dim:
        raise CovarianceInvalid(
            f"covariance dimension {cov.k_u1.shape[0]} != channel dimension {ch.dim}"
        )
    for name, k in (("k_u1", cov.k_u1), ("k_u2", cov.k_u2)):
        factor = _factor(k)
        low = factor[0] if factor is not None else float(np.linalg.eigvalsh(k)[0])
        if low < -PSD_TOL:
            raise CovarianceInvalid(f"{name} has eigenvalue {low:.3e} < 0")
    if cov.trace > ch.power + TRACE_TOL:
        raise CovarianceInvalid(
            f"tr(K_U1 + K_U2) = {cov.trace:.12g} exceeds the power budget {ch.power}"
        )


def rate_bounds_raw(ch: ChannelPair, cov: CovariancePair) -> tuple[float, float]:
    """Unclamped log2 bounds (r1, r2); negative values mean a vacuous bound."""
    h1, ht = cov.forms(ch.h)
    g1, gt = cov.forms(ch.g)
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


def _boundary_pair(
    ch: ChannelPair, a: float, e1: np.ndarray, c2: np.ndarray
) -> CovariancePair:
    return CovariancePair(
        RankOneCovariance(a * ch.power, e1), RankOneCovariance((1.0 - a) * ch.power, c2)
    )


def optimal_covariances(
    ch: ChannelPair, alpha: float, spec: ChannelSpectrum | None = None
) -> CovariancePair:
    """Boundary-achieving rank-one pair for a given split alpha.

    K_U1 = alpha P e1 e1^H and K_U2 = (1-alpha) P c2 c2^H, kept as
    `RankOneCovariance` factors, so tr(K_U1) = alpha*P and
    tr(K_U2) = (1-alpha)*P exactly.
    """
    a = _check_param(alpha, "alpha")
    spec = spec or spectrum(ch)
    _, c2 = gamma2(ch, spec, a)
    return _boundary_pair(ch, a, spec.e1, c2)


def verify_identity_eq9(
    ch: ChannelPair, alpha: float, spec: ChannelSpectrum | None = None
) -> float:
    """|direct quadratic-form ratio - gamma2(alpha)| for the optimal pair.

    The direct side evaluates
    [1 + g^H K g][1 + h^H K_U1 h] / ([1 + h^H K h][1 + g^H K_U1 g])
    with K = K_U1 + K_U2, by projections onto the pair's factors; the
    pencil side is gamma2(alpha). The two agree analytically; the return
    value is the numerical gap.
    """
    a = _check_param(alpha, "alpha")
    spec = spec or spectrum(ch)
    ratio2, c2 = gamma2(ch, spec, a)
    cov = _boundary_pair(ch, a, spec.e1, c2)
    h1, ht = cov.forms(ch.h)
    g1, gt = cov.forms(ch.g)
    lhs = ((1.0 + gt) * (1.0 + h1)) / ((1.0 + ht) * (1.0 + g1))
    return abs(lhs - ratio2)
