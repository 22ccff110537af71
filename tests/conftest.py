import dataclasses

import numpy as np
import pytest

from secrecy_region import ChannelPair, sato

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
        return dataclasses.replace(b, hull=1.1 * b.hull)

    monkeypatch.setattr(sato, "capacity_region", inflated)


@pytest.fixture
def lowered_corners(monkeypatch):
    """Make the audit see every swept corner strictly inside the two
    intercepts lowered by 1e-3 bits: the bounds at rho* then exceed those
    rates there, while the hull and the two corner gaps stay as they are."""
    sweep = sato.capacity_region

    def lowered(*args, **kwargs):
        b = sweep(*args, **kwargs)
        points = b.points.copy()
        points[1:-1] -= 1e-3
        return dataclasses.replace(b, points=points)

    monkeypatch.setattr(sato, "capacity_region", lowered)


@pytest.fixture
def lowered_end_corner(monkeypatch):
    """Make the audit see the alpha = 1 corner's r1 lowered by 1e-3 bits:
    its corner gap opens while the r1 intercept keeps the hull as it is."""
    sweep = sato.capacity_region

    def lowered(*args, **kwargs):
        b = sweep(*args, **kwargs)
        points = b.points.copy()
        points[-1, 0] -= 1e-3
        return dataclasses.replace(b, points=points)

    monkeypatch.setattr(sato, "capacity_region", lowered)
