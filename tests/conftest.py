import dataclasses

import numpy as np
import pytest

from secrecy_region import ChannelPair, RatePair, sato

import golden


@pytest.fixture(scope="session")
def example_channel() -> ChannelPair:
    """The bundled two-antenna example, text variant, real mode."""
    return ChannelPair(
        np.array(golden.EXAMPLE_H, dtype=complex),
        np.array(golden.EXAMPLE_G_TEXT, dtype=complex),
        golden.EXAMPLE_POWER,
        "real",
    )


@pytest.fixture(scope="session")
def matrix_variant_channel() -> ChannelPair:
    return ChannelPair(
        np.array(golden.EXAMPLE_H, dtype=complex),
        np.array(golden.EXAMPLE_G_MATRIX, dtype=complex),
        golden.EXAMPLE_POWER,
        "real",
    )


@pytest.fixture
def inflated_hull(monkeypatch):
    """Make the audit see every achievable hull vertex scaled by 1.1, a
    region no outer bound can contain."""
    sweep = sato.capacity_region

    def inflated(*args, **kwargs):
        b = sweep(*args, **kwargs)
        hull = tuple(RatePair(1.1 * v.r1, 1.1 * v.r2) for v in b.hull)
        return dataclasses.replace(b, hull=hull)

    monkeypatch.setattr(sato, "capacity_region", inflated)
