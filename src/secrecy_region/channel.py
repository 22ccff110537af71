"""Two-user broadcast channel instance and its pencil spectrum.

A channel is a pair of attenuation vectors (h for user 1, g for user 2), a
total transmit power P and a scalar-field mode. The per-user secrecy
behaviour is governed by the largest generalized eigenvalues of the two
identity-plus-rank-one pencils built from (h, g, P):

    (I + P h h^H, I + P g g^H)  ->  (lambda1, e1)
    (I + P g g^H, I + P h h^H)  ->  (lambda2, e2)

Both eigenvalues are >= 1, strictly when h and g are linearly independent,
and lambda_k > 1 is exactly the condition for user k to sustain a positive
secrecy rate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import BothZeroVectors

MODE_COMPLEX = "complex"
MODE_REAL = "real"

#: default slack for strict lambda > 1 comparisons
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChannelPair:
    """Channel attenuation vectors, power budget and scalar-field mode.

    In "real" mode the algebra still runs over the complex field; the mode
    only selects the 1/2 factor applied to reported rates (real-alphabet
    signalling carries half the degrees of freedom per channel use).

    h and g are validated once and kept as read-only copies, with their
    directions; both span planes are built from those on first use and
    cached, as is the spectrum. Channels compare by identity.
    """

    h: np.ndarray
    g: np.ndarray
    power: float
    mode: str = MODE_COMPLEX

    def __post_init__(self):
        h = linalg.as_complex_vector(self.h).copy()
        g = linalg.as_complex_vector(self.g).copy()
        if h.shape[0] != g.shape[0]:
            raise ValueError(
                f"h and g must have the same length, got {h.shape[0]} and {g.shape[0]}"
            )
        if h.shape[0] < 2:
            raise ValueError("channel vectors need at least 2 entries")
        power = float(self.power)
        if not math.isfinite(power) or power < 0:
            raise ValueError(f"power must be finite and >= 0, got {self.power}")
        if self.mode not in (MODE_COMPLEX, MODE_REAL):
            raise ValueError(f"mode must be 'complex' or 'real', got {self.mode!r}")
        if self.mode == MODE_REAL and (np.any(h.imag != 0) or np.any(g.imag != 0)):
            raise ValueError("real mode requires exactly zero imaginary parts")
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "power", power)
        # (|h|, h/|h|) and (|g|, g/|g|): the span planes are built from these
        object.__setattr__(self, "_directions", (linalg._direction(h), linalg._direction(g)))

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @cached_property
    def plane_hg(self) -> linalg.SpanPlane:
        """span{h, g} with h first: the plane of user 1's pencils."""
        return linalg._plane(*self._directions, self.dim)

    @cached_property
    def plane_gh(self) -> linalg.SpanPlane:
        """span{h, g} with g first: the plane of user 2's pencils."""
        return linalg._plane(*reversed(self._directions), self.dim)

    @cached_property
    def _h_is_g(self) -> bool:
        return bool(np.array_equal(self.h, self.g))

    @cached_property
    def spectrum(self) -> "ChannelSpectrum":
        """The pencil spectrum, solved on first use (see `spectrum`)."""
        p = self.power
        r1 = linalg.plane_top(self.plane_hg, p, p)
        r2 = linalg.plane_top(self.plane_gh, p, p)
        r1.vec.flags.writeable = False
        r2.vec.flags.writeable = False
        return ChannelSpectrum(
            lambda1=float(r1.lam),
            e1=r1.vec,
            lambda2=float(r2.lam),
            e2=r2.vec,
            proj1=tuple(float(abs(np.vdot(x, r1.vec)) ** 2) for x in (self.h, self.g)),
            proj2=tuple(float(abs(np.vdot(x, r2.vec)) ** 2) for x in (self.g, self.h)),
            degenerate1=bool(r1.gap < linalg.DEGENERACY_GAP),
            degenerate2=bool(r2.gap < linalg.DEGENERACY_GAP),
        )

    def swapped(self) -> "ChannelPair":
        """The same channel with the two users exchanged. The twin is built
        once, with its own caches, and its swap is this channel."""
        twin = self.__dict__.get("_twin")
        if twin is None:
            twin = ChannelPair(self.g, self.h, self.power, self.mode)
            twin.__dict__["_twin"] = self
            self.__dict__["_twin"] = twin
        return twin


@dataclass(frozen=True, eq=False)
class ChannelSpectrum:
    """Largest generalized eigenpairs of the two user pencils, with
    proj1 = (|h^H e1|^2, |g^H e1|^2) and proj2 = (|g^H e2|^2, |h^H e2|^2)."""

    lambda1: float
    e1: np.ndarray
    lambda2: float
    e2: np.ndarray
    proj1: tuple[float, float]
    proj2: tuple[float, float]
    degenerate1: bool = False
    degenerate2: bool = False

    def swapped(self) -> "ChannelSpectrum":
        """The spectrum of the swapped channel: the two pencils exchanged."""
        return ChannelSpectrum(
            self.lambda2, self.e2, self.lambda1, self.e1,
            self.proj2, self.proj1, self.degenerate2, self.degenerate1,
        )


def spectrum(ch: ChannelPair) -> ChannelSpectrum:
    """Both pencils' top eigenpairs, solved once per channel (read-only).

    At P = 0 both pencils are (I, I); e1 and e2 are then the limits as
    P -> 0+, the top eigenvectors of h h^H - g g^H and g g^H - h h^H.
    """
    return ch.spectrum


def is_secrecy_feasible(
    ch: ChannelPair, tol: float = FEASIBILITY_TOL
) -> tuple[bool, bool]:
    """Whether each user can sustain a strictly positive secrecy rate.

    User k is feasible iff lambda_k > 1 + tol.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    spec = spectrum(ch)
    return spec.lambda1 > 1.0 + tol, spec.lambda2 > 1.0 + tol


def linear_independence_margin(ch: ChannelPair) -> float:
    """Sine of the principal angle between span{h} and span{g}.

    0 iff the vectors are linearly dependent (a zero vector counts as
    dependent on anything, and a sine below `linalg.PARALLEL_TOL` reads 0);
    1 iff they are orthogonal. It is the sine s of `ch.plane_hg`.
    """
    plane = ch.plane_hg
    if plane.nu == 0.0 and plane.nw == 0.0:
        raise BothZeroVectors("both h and g are zero vectors")
    return min(plane.s, 1.0)


def rate_scale(ch: ChannelPair) -> float:
    """Factor applied to every reported rate: 1 (complex) or 1/2 (real)."""
    return 0.5 if ch.mode == MODE_REAL else 1.0


def _entry_to_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(float(entry[0]), float(entry[1]))
    raise ValueError(f"channel entry must be a number or [re, im], got {entry!r}")


def channel_from_dict(data: dict) -> ChannelPair:
    """Build a ChannelPair from the JSON channel schema.

    Schema: {"h": [[re, im], ...], "g": [[re, im], ...],
             "power": number, "mode": "complex"|"real"}.
    Real mode also accepts bare numbers for the entries.
    """
    if not isinstance(data, dict):
        raise ValueError("channel config must be a JSON object")
    missing = [k for k in ("h", "g", "power") if k not in data]
    if missing:
        raise ValueError(f"channel config missing keys: {', '.join(missing)}")
    mode = data.get("mode", MODE_COMPLEX)
    if mode not in (MODE_COMPLEX, MODE_REAL):
        raise ValueError(f"mode must be 'complex' or 'real', got {mode!r}")
    for key in ("h", "g"):
        if not isinstance(data[key], (list, tuple)) or len(data[key]) < 2:
            raise ValueError(f"'{key}' must be a list of at least 2 entries")
        if mode == MODE_COMPLEX:
            bad = [e for e in data[key] if isinstance(e, (int, float))]
            if bad:
                raise ValueError(
                    f"'{key}': complex mode requires [re, im] pairs, got {bad[0]!r}"
                )
    h = [_entry_to_complex(e) for e in data["h"]]
    g = [_entry_to_complex(e) for e in data["g"]]
    return ChannelPair(np.array(h), np.array(g), float(data["power"]), mode)


def channel_to_dict(ch: ChannelPair) -> dict:
    """Inverse of channel_from_dict."""
    return {
        "h": [[float(z.real), float(z.imag)] for z in ch.h],
        "g": [[float(z.real), float(z.imag)] for z in ch.g],
        "power": ch.power,
        "mode": ch.mode,
    }


def load_channel(path: str) -> ChannelPair:
    """Read a channel JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_dict(json.load(fh))
