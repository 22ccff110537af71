"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them live;
pytest -v shows the same verdict per test either way).
"""

import contextlib
import json
import time

import numpy as np
from secrecy_region import (
    ChannelPair,
    SweepConfig,
    audit_inner_outer,
    capacity_region,
    capacity_region_beta,
    cli,
    gamma1,
    gamma2,
    linear_independence_margin,
    max_rates,
    miso_wiretap_capacity,
    rate_scale,
    sato_f1,
    sato_f2,
    spectrum,
    verify_identity_eq9,
    xi1,
    xi2,
)
from secrecy_region.regions import RatePair

import _oracles
import golden


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {label}")


def make(h, g, power=10.0, mode="complex"):
    return ChannelPair(np.asarray(h, dtype=complex), np.asarray(g, dtype=complex), power, mode)


def random_channels(seed, count, dims=(2, 3), powers=(0.1, 1.0, 10.0), mode="complex"):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        dim = dims[i % len(dims)]
        power = powers[i % len(powers)]
        h, g, p = _oracles.random_channel(rng, dim, power, mode)
        out.append(make(h, g, p, mode))
    return out


def test_criterion_01_example_reproduction(tmp_path, monkeypatch, capsys):
    with criterion(1, "example reproduction: positive rates, time sharing beaten"):
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code = cli.main(["reproduce-fig2"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0
        assert payload["r1_max_bits"] > 0.0
        assert payload["r2_max_bits"] > 0.0
        assert abs(payload["r1_max_bits"] - golden.R1_MAX_TEXT) <= 1e-9
        assert abs(payload["r2_max_bits"] - golden.R2_MAX_TEXT) <= 1e-9
        assert payload["equal_rate_gap_bits"] > 0.0
        assert (tmp_path / "fig2.csv").exists()
        assert (tmp_path / "fig2.svg").exists()
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_corner_identities():
    with criterion(2, "corner identities on 200 random channels"):
        start = time.perf_counter()
        for ch in random_channels(seed=101, count=200):
            spec = spectrum(ch)
            g1 = gamma1(ch, spec, 1.0)
            assert abs(g1 - spec.lambda1) <= 1e-9 * spec.lambda1
            g2, _ = gamma2(ch, spec, 0.0)
            assert abs(g2 - spec.lambda2) <= 1e-9 * spec.lambda2
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_rate_identity(example_channel):
    with criterion(3, "covariance/pencil rate identity on a 101-point grid"):
        start = time.perf_counter()
        grid = np.linspace(0.0, 1.0, 101)
        spec = spectrum(example_channel)
        worst = max(verify_identity_eq9(example_channel, a, spec) for a in grid)
        assert worst <= 1e-9
        for ch in random_channels(seed=202, count=200):
            spec = spectrum(ch)
            worst = max(verify_identity_eq9(ch, a, spec) for a in grid)
            assert worst <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_04_parametrization_equivalence(example_channel):
    with criterion(4, "direct and role-exchanged sweeps trace the same hull"):
        # the specific corner instance, per coordinate
        spec = spectrum(example_channel)
        scale = rate_scale(example_channel)
        a_corner = RatePair(
            scale * np.log2(gamma1(example_channel, spec, 1.0)),
            scale * np.log2(gamma2(example_channel, spec, 1.0)[0]),
        )
        x1, _ = xi1(example_channel, spec, 0.0)
        b_corner = RatePair(
            scale * np.log2(x1), scale * np.log2(xi2(example_channel, spec, 0.0))
        )
        assert abs(a_corner.r1 - b_corner.r1) <= 1e-9
        assert abs(a_corner.r2 - b_corner.r2) <= 1e-9

        cfg = SweepConfig(grid_points=129, sagitta_tol=5e-7)
        hd = _oracles.sampled_hausdorff(
            capacity_region(example_channel, cfg).frontier(),
            capacity_region_beta(example_channel, cfg).frontier(),
            2048,
        )
        assert hd <= 1e-6
        worst = hd
        for ch in random_channels(seed=303, count=50):
            ba = capacity_region(ch, cfg)
            bb = capacity_region_beta(ch, cfg)
            hd = _oracles.sampled_hausdorff(ba.frontier(), bb.frontier(), 512)
            worst = max(worst, hd)
            assert hd <= 1e-6
        print(f"  worst hull disagreement: {worst:.3e} bits")


def test_criterion_05_eigenvalue_floor_properties():
    with criterion(5, "unit eigenvalue floor and strictness on 1000 channels"):
        rng = np.random.default_rng(404)
        for i in range(1000):
            dim = (2, 3)[i % 2]
            power = (0.1, 1.0, 10.0)[i % 3]
            mode = "real" if i % 5 == 0 else "complex"
            h, g, p = _oracles.random_channel(rng, dim, power, mode)
            ch = make(h, g, p, mode)
            spec = spectrum(ch)
            assert spec.lambda1 >= 1.0 - 1e-12
            assert spec.lambda2 >= 1.0 - 1e-12
            if linear_independence_margin(ch) > 1e-6:
                assert spec.lambda1 > 1.0 + 1e-9
                assert spec.lambda2 > 1.0 + 1e-9
        # zero power: exactly unit eigenvalues
        for ch in random_channels(seed=405, count=10, powers=(0.0,)):
            spec = spectrum(ch)
            assert abs(spec.lambda1 - 1.0) <= 1e-12
            assert abs(spec.lambda2 - 1.0) <= 1e-12
        # proportional vectors of equal norm (phase rotation): both pencils equal
        for i in range(10):
            h, _, _ = _oracles.random_channel(rng, 2 + i % 2, 10.0, "complex")
            g = h * np.exp(1j * rng.uniform(0, 2 * np.pi))
            spec = spectrum(make(h, g, 10.0))
            assert abs(spec.lambda1 - 1.0) <= 1e-12
            assert abs(spec.lambda2 - 1.0) <= 1e-12


def test_criterion_06_minimizer_closed_forms():
    with criterion(6, "closed-form noise-combining minimizers beat grid search"):
        rng = np.random.default_rng(505)
        for i in range(50):
            dim = (2, 3)[i % 2]
            h, g, _ = _oracles.random_channel(rng, dim, 10.0, "complex")
            h /= np.linalg.norm(h)
            g /= np.linalg.norm(g)
            ch = make(h, g, 10.0)
            k = _oracles.random_psd(rng, dim, 10.0 * rng.uniform(0.05, 1.0))
            rho = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            f1, _ = sato_f1(ch, rho, k)
            ref1 = _oracles.sato_objective_grid_min(h, g, k, rho)
            assert abs(f1 - ref1) <= 1e-6
            f2, _ = sato_f2(ch, rho, k)
            ref2 = _oracles.sato_objective_grid_min(g, h, k, rho)
            assert abs(f2 - ref2) <= 1e-6


def test_criterion_07_converse_containment_and_tightness(example_channel):
    with criterion(7, "outer bound contains the region for every coupling"):
        start = time.perf_counter()
        channels = [example_channel] + random_channels(
            seed=606, count=20, dims=(2,), powers=(0.1, 1.0, 10.0), mode="real"
        )
        interior_gaps = []
        for ch in channels:
            report = audit_inner_outer(ch)
            assert report.containment_ok, "converse containment is unconditional"
            assert report.containment_worst >= -1e-6
            if report.tightness_evaluated:
                assert report.min_gap_f1 >= -1e-9
                assert report.min_gap_f2 >= -1e-9
                interior_gaps.append((report.min_gap_f1, report.min_gap_f2))
                for key in ("alpha1_f1", "alpha0_f2"):
                    assert abs(report.corner_gaps[key]) <= 1e-6
        elapsed = time.perf_counter() - start
        g1 = min(g[0] for g in interior_gaps)
        g2 = min(g[1] for g in interior_gaps)
        print(f"  interior-gap minima across channels: f1 {g1:.3e}, f2 {g2:.3e}")
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_08_miso_intercept(example_channel):
    with criterion(8, "single-eavesdropper capacity equals the hull intercept"):
        light = SweepConfig(grid_points=33, sagitta_tol=1e-4)
        cases = [example_channel]
        cases += random_channels(seed=707, count=10)
        cases.append(make([1, 0], [0, 0], power=3.0))
        cases.append(make([1, 0], [1, 0]))
        for ch in cases:
            boundary = capacity_region(ch, light)
            cap = miso_wiretap_capacity(ch)
            assert cap == boundary.hull[-1, 0]  # bitwise
            assert cap == max_rates(ch).r1  # same formula, same bits
