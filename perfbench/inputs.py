"""Seeded workload inputs and their high-precision references.

Everything here runs in the benchmark's parent process before any timing.
The returned dictionaries are JSON-serialisable and are handed to the worker
process unchanged; the package itself is never imported here.
"""
from __future__ import annotations

import numpy as np

from reference import ChannelReference

WORKLOADS = ("fading-ensemble", "example-region", "multiantenna-audit")

#: power splits evaluated per fading-ensemble channel
ALPHAS = (0.25, 0.5, 0.75)

#: fading-ensemble size: 50 channels per antenna count 2..8
FADING_CHANNELS = 350
ANTENNAS = tuple(range(2, 9))
#: every tenth channel uses one of these powers (7 channels each)
FIXED_POWERS = (0.0, 1e-12, 1e8, 1e10, 1e12)
LOG10_POWER_RANGE = (-2.0, 3.0)

#: the bundled two-antenna example (real mode)
EXAMPLE = {"h": [1.5, 0.0], "g": [1.801, 0.872], "power": 10.0, "mode": "real"}
#: probe parameters for the sweep-density guard
PROBES = 48


def _gauss(rng: np.random.Generator, t: int) -> np.ndarray:
    return (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2.0)


def _pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def _complex_channel(h: np.ndarray, g: np.ndarray, power: float) -> dict:
    return {"h": _pairs(h), "g": _pairs(g), "power": float(power), "mode": "complex"}


def _rotated_pair(rng: np.random.Generator, t: int) -> tuple[np.ndarray, np.ndarray]:
    """A Haar-random rotation of a pair with fixed Gram data.

    |h| = |g| = 1 (normalised gains, so P is the SNR),
    |h^H g|^2 = 1/t (the mean for independent random directions) and
    arg(h^H g) = 1 rad, so rho* is genuinely complex. Every quantity the
    package computes depends only on these Gram data and the power, so the
    sweep sizes, and with them the work per run, do not change from seed to
    seed, while the vectors themselves do.
    """
    cos = np.sqrt(1.0 / t)
    h0 = np.zeros(t, dtype=complex)
    g0 = np.zeros(t, dtype=complex)
    h0[0] = 1.0
    g0[0] = cos * np.exp(1j)
    g0[1] = np.sqrt(1.0 - cos * cos)
    z = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return u @ h0, u @ g0


def _fading(rng: np.random.Generator) -> dict:
    n = FADING_CHANNELS
    dims = rng.permutation(np.resize(np.array(ANTENNAS), n))
    fixed_at = [i for i in range(n) if i % 10 == 9]
    fixed = rng.permutation(np.resize(np.array(FIXED_POWERS), len(fixed_at)))
    free = n - len(fixed_at)
    lo, hi = LOG10_POWER_RANGE
    # stratified log-uniform powers: one per stratum, in random order
    exps = lo + (hi - lo) * (rng.permutation(free) + rng.random(free)) / free
    powers = iter(10.0 ** exps)
    fixed_powers = dict(zip(fixed_at, fixed))
    channels = []
    for i in range(n):
        t = int(dims[i])
        p = float(fixed_powers[i]) if i in fixed_powers else float(next(powers))
        h, g = _gauss(rng, t), _gauss(rng, t)
        ref = ChannelReference(h, g, p)
        channel = _complex_channel(h, g, p)
        channel["ref"] = {
            "lambda1": float(ref.lambda1),
            "lambda2": float(ref.lambda2),
            "gammas": [ref.gammas(a) for a in ALPHAS],
        }
        channels.append(channel)
    return {"alphas": list(ALPHAS), "channels": channels}


def _example_reference(rng: np.random.Generator) -> dict:
    ref = ChannelReference(
        np.array(EXAMPLE["h"], dtype=complex),
        np.array(EXAMPLE["g"], dtype=complex),
        EXAMPLE["power"],
    )
    probes = np.sort(rng.random(PROBES))
    return {
        "intercepts": list(ref.intercepts(0.5)),
        "probe_corners": [ref.corner(float(a), 0.5) for a in probes],
    }


def _example_region(rng: np.random.Generator) -> dict:
    return {"example": dict(EXAMPLE), "ref": _example_reference(rng)}


def _multiantenna(rng: np.random.Generator) -> dict:
    h3, g3 = _rotated_pair(rng, 3)
    h8, g8 = _rotated_pair(rng, 8)
    ref3 = ChannelReference(h3, g3, 10.0)
    return {
        "outer": _complex_channel(h3, g3, 10.0),
        "outer_ref": {"intercepts": list(ref3.intercepts(1.0))},
        "audit": _complex_channel(h8, g8, 10.0),
        "audit_high_power": dict(EXAMPLE, power=1e10),
        "audit_zero_power": dict(EXAMPLE, power=0.0),
    }


_BUILDERS = {
    "fading-ensemble": _fading,
    "example-region": _example_region,
    "multiantenna-audit": _multiantenna,
}


def build(workload: str, seed: int) -> dict:
    """Inputs and references of one workload; the same seed gives the same
    inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"workload": workload, "seed": seed, **_BUILDERS[workload](rng)}
