"""End-to-end CLI runs: every subcommand and every exit-code path."""

import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from secrecy_region import capacity_region, capacity_region_beta, cli, sato, sdpc

import _oracles
import golden


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_error(err_text):
    payload = json.loads(err_text)
    jsonschema.validate(payload, cli.ERROR_JSON_SCHEMA)
    return payload["error"]


#: tight coupling of the example at P = 0, from the P -> 0+ limit of e1
ZERO_POWER_RHO_STAR = 0.5745686931

EXAMPLE_FLAGS = ["--h", "1.5,0", "--g", "1.801,0.872", "--power", "10", "--mode", "real"]


def scaled_example_flags(s):
    """The example with h, g -> s h, s g and P -> P / s^2: the same rates."""
    return ["--h", f"{1.5 * s!r},0", "--g", f"{1.801 * s!r},{0.872 * s!r}",
            "--power", repr(10.0 / s**2), "--mode", "real"]


class TestSpectrum:
    def test_example(self, capsys):
        code, out, err = run(capsys, "spectrum", *EXAMPLE_FLAGS)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["lambda1"] > 1.0 and payload["lambda2"] > 1.0
        assert abs(payload["lambda1"] - golden.LAMBDA1_TEXT) <= 1e-9 * golden.LAMBDA1_TEXT
        assert payload["feasible1"] and payload["feasible2"]
        assert payload["rate_scale"] == 0.5

    def test_identical_channels(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--h", "1,0", "--g", "1,0", "--power", "10"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lambda1"] - 1.0) <= 1e-9
        assert abs(payload["lambda2"] - 1.0) <= 1e-9
        assert not payload["feasible1"] and not payload["feasible2"]

    def test_malformed_vector(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--h", "1.5,,0", "--g", "1,0", "--power", "10"
        )
        assert code == 2
        assert out == ""  # no partial output
        assert parse_error(err)["code"] == "config"

    def test_complex_entries(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--h", "1+2j,0", "--g", "0,1-1j", "--power", "5"
        )
        assert code == 0
        assert json.loads(out)["lambda1"] > 1.0

    def test_missing_power(self, capsys):
        code, _, err = run(capsys, "spectrum", "--h", "1,0", "--g", "0,1")
        assert code == 2
        assert "power" in parse_error(err)["message"]

    def test_channel_file(self, capsys, tmp_path):
        cfg = tmp_path / "chan.json"
        cfg.write_text(
            json.dumps(
                {"h": [1.5, 0.0], "g": [1.801, 0.872], "power": 10, "mode": "real"}
            )
        )
        code, out, _ = run(capsys, "spectrum", "--channel", str(cfg))
        assert code == 0
        assert abs(json.loads(out)["lambda1"] - golden.LAMBDA1_TEXT) <= 1e-6

    def test_channel_file_bad_json(self, capsys, tmp_path):
        cfg = tmp_path / "chan.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "spectrum", "--channel", str(cfg))
        assert code == 2
        assert parse_error(err)["code"] == "config"

    def test_channel_file_missing(self, capsys, tmp_path):
        code, _, err = run(capsys, "spectrum", "--channel", str(tmp_path / "nope.json"))
        assert code == 2

    def test_out_csv_is_rejected(self, capsys, tmp_path):
        # spectrum has no table to write: the flag is a parser error
        csv_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "spectrum", *EXAMPLE_FLAGS, "--out-csv", str(csv_path))
        assert code == 2 and out == ""
        assert parse_error(err)["code"] == "config"
        assert not csv_path.exists()

    def test_unknown_command_is_config_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert parse_error(err)["code"] == "config"


class TestRegion:
    def test_csv_intercepts_match_spectrum(self, capsys, tmp_path):
        csv_path = tmp_path / "region.csv"
        code, _, _ = run(
            capsys, "region", *EXAMPLE_FLAGS, "--grid", "65", "--out-csv", str(csv_path)
        )
        assert code == 0
        code, out, _ = run(capsys, "spectrum", *EXAMPLE_FLAGS)
        spec = json.loads(out)
        lines = csv_path.read_text().strip().split("\n")
        sentinel = lines.index("# hull")
        hull = [tuple(map(float, row.split(","))) for row in lines[sentinel + 1 :]]
        assert abs(hull[0][1] - spec["r2_max_bits"]) <= 1e-9
        assert abs(hull[-1][0] - spec["r1_max_bits"]) <= 1e-9

    def test_grid_two_rectangles(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "region", *EXAMPLE_FLAGS, "--grid", "2", "--out-csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        sentinel = lines.index("# hull")
        assert sentinel == 3  # header + exactly two swept rows
        assert len(lines) - sentinel - 1 >= 2

    def test_beta_check_default_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "region", *EXAMPLE_FLAGS, "--beta-check", "--out-csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "param,r1_bits,r2_bits,beta_dist"
        tail = lines[-1]
        assert tail.startswith("# beta_hausdorff,")
        assert float(tail.split(",")[1]) <= 1e-6
        dists = [
            float(row.split(",")[3]) for row in lines[1 : lines.index("# hull")]
        ]
        assert max(dists) <= 1e-6

    def test_beta_check_outputs_agree(self, capsys, tmp_path, example_channel):
        # the JSON, the CSV column and its comment carry the same bounds, and
        # each is at least the oracle's distance for the same frontiers
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        code, _, _ = run(
            capsys, "region", *EXAMPLE_FLAGS, "--beta-check",
            "--out-csv", str(csv_path), "--out-json", str(json_path),
        )
        assert code == 0
        check = json.loads(json_path.read_text())["beta_check"]
        lines = csv_path.read_text().strip().split("\n")
        dists = np.array([float(row.split(",")[3]) for row in lines[1 : lines.index("# hull")]])
        assert dists.max() == check["max_corner_dist_bits"]
        name, value = lines[-1].split(",")
        assert name == "# beta_hausdorff" and float(value) == check["hausdorff_bits"]
        ba, bb = capacity_region(example_channel), capacity_region_beta(example_channel)
        assert len(dists) == len(ba.points)
        rounding = 1e-11 * dists + 8 * np.spacing(ba.r1_max)  # 12 digits, and ulps
        assert np.all(dists >= _oracles.polyline_distance(ba.points, bb.frontier()) - rounding)
        sampled = _oracles.sampled_hausdorff(ba.frontier(), bb.frontier(), 2048)
        assert check["hausdorff_bits"] >= sampled

    def test_stdout_json_when_no_sink(self, capsys):
        code, out, _ = run(capsys, "region", *EXAMPLE_FLAGS, "--grid", "17")
        assert code == 0
        payload = json.loads(out)
        assert payload["hull"][0][0] == 0.0
        assert payload["hull_union_gap_bits"] <= 1e-3

    def test_svg_output(self, capsys, tmp_path):
        svg_path = tmp_path / "r.svg"
        code, _, _ = run(
            capsys, "region", *EXAMPLE_FLAGS, "--grid", "33", "--out-svg", str(svg_path)
        )
        assert code == 0
        text = svg_path.read_text()
        assert text.startswith("<svg") and "stroke-dasharray" in text

    def test_unwritable_output_path(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        bad = blocker / "sub" / "out.csv"
        code, _, err = run(
            capsys, "region", *EXAMPLE_FLAGS, "--grid", "17", "--out-csv", str(bad)
        )
        assert code == 4
        assert parse_error(err)["code"] == "io"

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "region", *EXAMPLE_FLAGS, "--grid", "33", "--out-csv", str(a))
        run(capsys, "region", *EXAMPLE_FLAGS, "--grid", "33", "--out-csv", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSdpc:
    def test_single_alpha(self, capsys):
        code, out, _ = run(capsys, "sdpc", *EXAMPLE_FLAGS, "--alpha", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["trace_k_u1"] - 5.0) <= 1e-9
        assert abs(payload["trace_k_u2"] - 5.0) <= 1e-9
        assert payload["identity_gap"] <= 1e-9
        want_r1 = 0.5 * np.log2(golden.GAMMA1_HALF_TEXT)
        assert abs(payload["r1_bits"] - want_r1) <= 1e-9

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run(capsys, "sdpc", *EXAMPLE_FLAGS, "--alpha", "1.5")
        assert code == 2

    def test_out_csv_needs_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "y.csv"
        code, out, err = run(
            capsys, "sdpc", *EXAMPLE_FLAGS, "--alpha", "0.3", "--out-csv", str(csv_path)
        )
        assert code == 2 and out == ""
        assert "--grid" in parse_error(err)["message"]
        assert not csv_path.exists()

    def test_grid_identity_gap_is_the_largest_scalar_gap(self, capsys, example_channel):
        code, out, _ = run(capsys, "sdpc", *EXAMPLE_FLAGS, "--grid", "65")
        assert code == 0
        params = np.linspace(0.0, 1.0, 65).tolist()
        want = max(sdpc.verify_identity_eq9(example_channel, a) for a in params)
        assert json.loads(out)["max_identity_gap"] == float(f"{want:.12g}")

    def test_sweep_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sdpc.csv"
        code, _, _ = run(
            capsys, "sdpc", *EXAMPLE_FLAGS, "--grid", "17", "--out-csv", str(csv_path)
        )
        assert code == 0
        assert csv_path.read_text().startswith("param,r1_bits,r2_bits")


class TestOuter:
    def test_default_rho_star(self, capsys):
        code, out, _ = run(capsys, "outer", *EXAMPLE_FLAGS)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rho"][0] - golden.RHO_STAR_TEXT) <= 1e-9
        assert payload["n_corners"] >= 100

    def test_explicit_rho(self, capsys):
        code, out, _ = run(capsys, "outer", *EXAMPLE_FLAGS, "--rho", "0.3")
        assert code == 0
        assert json.loads(out)["rho"] == [0.3, 0.0]

    def test_zero_power_default_rho_is_the_limit(self, capsys):
        # at P = 0, e1 is the P -> 0+ limit, so rho* is defined with |rho*| < 1
        flags = ["--h", "1.5,0", "--g", "1.801,0.872", "--power", "0", "--mode", "real"]
        code, out, _ = run(capsys, "outer", *flags)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rho"][0] - ZERO_POWER_RHO_STAR) <= 1e-9
        assert payload["frontier"] == [[0.0, 0.0]]

    @pytest.mark.parametrize("s", [1e-13, 1e-12, 1e-6, 1e6])
    def test_scaled_example_default_rho_star(self, capsys, s):
        code, out, _ = run(capsys, "outer", *scaled_example_flags(s))
        assert code == 0
        assert abs(json.loads(out)["rho"][0] - golden.RHO_STAR_TEXT) <= 1e-9

    def test_rho_parse_failure(self, capsys):
        code, _, err = run(capsys, "outer", *EXAMPLE_FLAGS, "--rho", "zzz")
        assert code == 2

    @pytest.mark.parametrize("rho", ["nan", "0.3+nanj"])
    def test_non_finite_rho_is_config(self, capsys, rho):
        code, out, err = run(capsys, "outer", *EXAMPLE_FLAGS, "--rho", rho)
        assert code == 2 and out == ""
        assert parse_error(err)["code"] == "config"

    def test_rho_on_unit_circle_is_numerics(self, capsys):
        code, _, err = run(capsys, "outer", *EXAMPLE_FLAGS, "--rho", "1.0")
        assert code == 3
        assert parse_error(err)["code"] == "numerics"


class TestAudit:
    def test_example_passes(self, capsys):
        code, out, _ = run(capsys, "audit", *EXAMPLE_FLAGS, "--grid", "65")
        assert code == 0
        payload = json.loads(out)
        assert payload["containment_ok"] is True
        assert abs(payload["corner_gaps"]["alpha1_f1"]) <= 1e-6
        assert abs(payload["corner_gaps"]["alpha0_f2"]) <= 1e-6
        assert payload["rho_star"] is not None

    def test_identical_channels_vacuous(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--h", "1,0", "--g", "1,0", "--power", "10"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["containment_ok"] is True
        assert payload["tightness_evaluated"] is False

    def test_identical_channels_say_why_tightness_is_skipped(self, capsys):
        code, out, _ = run(capsys, "audit", "--h", "1,0", "--g", "1,0", "--power", "10")
        assert code == 0
        assert json.loads(out)["tightness_skipped"] == "rho_star_near_unit_circle"

    def test_zero_h_has_no_pivot(self, capsys):
        code, out, _ = run(capsys, "audit", "--h", "0,0", "--g", "1,1", "--power", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["tightness_skipped"] == "degenerate_pivot"
        assert payload["rho_star"] is None and payload["minimizer_spread"] is None

    @pytest.mark.parametrize("s", [1e-13, 1e-12, 1e-6, 1e6])
    def test_scaled_example_evaluates_tightness(self, capsys, s):
        code, out, _ = run(capsys, "audit", *scaled_example_flags(s), "--grid", "65")
        assert code == 0
        payload = json.loads(out)
        assert payload["tightness_evaluated"] is True
        assert payload["tightness_skipped"] is None
        assert abs(payload["rho_star"][0] - golden.RHO_STAR_TEXT) <= 1e-9

    def test_zero_power_passes(self, capsys):
        flags = ["--h", "1.5,0", "--g", "1.801,0.872", "--power", "0", "--mode", "real"]
        code, out, _ = run(capsys, "audit", *flags, "--grid", "17")
        assert code == 0
        payload = json.loads(out)
        assert payload["tightness_evaluated"] is True
        assert abs(payload["rho_star"][0] - ZERO_POWER_RHO_STAR) <= 1e-9
        assert all(gap == 0.0 for gap in payload["corner_gaps"].values())

    def test_high_power_corner_gaps_within_tolerance(self, capsys):
        # alpha1_f1 closes only when lambda1 is forward-accurate at this power
        flags = ["--h", "1.5,0", "--g", "1.801,0.872", "--power", "1e10", "--mode", "real"]
        code, out, _ = run(capsys, "audit", *flags, "--grid", "65")
        assert code == 0
        gaps = json.loads(out)["corner_gaps"]
        assert abs(gaps["alpha1_f1"]) <= 1e-6 and abs(gaps["alpha0_f2"]) <= 1e-6

    def test_complex_rho_user2_gap_closes(self, capsys):
        # user 2's bound takes the coupling as user 2 sees it, conj(rho*),
        # so its corner is tight under a complex rho* too
        code, out, _ = run(
            capsys, "audit", "--h", "1,0.5j", "--g", "0.6+0.3j,0.5-0.4j",
            "--power", "10", "--grid", "65",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rho_star"][1]) > 1e-12
        assert abs(payload["corner_gaps"]["alpha0_f2"]) <= 1e-12
        assert abs(payload["corner_gaps"]["alpha1_f1"]) <= 1e-6

    def test_default_sweep_is_the_audit_default(self, capsys, example_channel):
        # without --grid the CLI audits on sato.AUDIT_SWEEP, not the
        # region's default sweep
        code, out, _ = run(capsys, "audit", *EXAMPLE_FLAGS)
        assert code == 0
        report = sato.audit_inner_outer(example_channel)
        assert json.loads(out)["hull_size"] == report.hull_size

    def test_fault_injection_exits_5(self, capsys, inflated_hull):
        code, out, err = run(capsys, "audit", *EXAMPLE_FLAGS, "--grid", "33")
        assert code == 5
        assert json.loads(out)["containment_ok"] is False
        assert parse_error(err)["code"] == "audit"

    def test_tightness_keys_and_tolerances(self, capsys):
        # the largest |gap| at rho* over every swept alpha, per user, and the
        # minimizer spread sit at rounding level on the example
        code, out, _ = run(capsys, "audit", *EXAMPLE_FLAGS, "--grid", "65")
        payload = json.loads(out)
        assert code == 0
        assert 0.0 <= payload["max_gap_f1"] <= 1e-12 and 0.0 <= payload["max_gap_f2"] <= 1e-12
        assert payload["max_gap_f1"] >= abs(payload["min_gap_f1"])
        assert max(payload["minimizer_spread"]) <= 1e-12

    def test_gap_injection_exits_5_and_names_the_key(self, capsys, lowered_corners):
        code, out, err = run(capsys, "audit", *EXAMPLE_FLAGS, "--grid", "33")
        payload = json.loads(out)
        assert code == 5
        assert payload["containment_ok"] is True
        assert payload["max_gap_f1"] > sato.CORNER_TOL
        error = parse_error(err)
        assert error["code"] == "audit"
        assert error["message"].startswith("max_gap_f1 = ")

    def test_corner_gap_injection_fails_as_the_max_gap(self, capsys, lowered_end_corner):
        # the max gap covers the corner gap, so the failure names max_gap_f1
        code, out, err = run(capsys, "audit", *EXAMPLE_FLAGS, "--grid", "33")
        payload = json.loads(out)
        assert code == 5
        assert payload["containment_ok"] is True
        assert payload["corner_gaps"]["alpha1_f1"] > sato.CORNER_TOL
        assert payload["max_gap_f1"] == abs(payload["corner_gaps"]["alpha1_f1"])
        assert parse_error(err)["message"].startswith("max_gap_f1 = ")

    def test_violation_message_names_the_location(self, capsys, inflated_hull):
        code, out, err = run(capsys, "audit", *EXAMPLE_FLAGS, "--grid", "33")
        where = json.loads(out)["containment_worst_at"]
        rho = complex(*where["rho"])
        assert code == 5
        assert parse_error(err)["message"].endswith(
            f"at rho = {rho:.6g}, alpha = {where['alpha']:.6g}, user {where['user']}"
        )


class TestHugeChannel:
    @pytest.mark.parametrize(
        "command",
        [["spectrum"], ["region"], ["outer"], ["sdpc", "--alpha", "0.3"], ["audit"]],
        ids=lambda c: c[0],
    )
    def test_overflowing_norm_exits_3(self, capsys, command):
        flags = ["--h", "1e200,0", "--g", "1e200,1e199", "--power", "1e-300", "--mode", "real"]
        code, out, err = run(capsys, *command, *flags)
        assert code == 3 and out == ""
        error = parse_error(err)  # the whole of stderr is the error JSON
        assert error["code"] == "numerics" and error["exit_code"] == 3
        assert "Traceback" not in err


class TestReproduceFig2:
    def test_default_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "reproduce-fig2", "--grid", "129")
        assert code == 0
        payload = json.loads(out)
        assert payload["r1_max_bits"] > 0 and payload["r2_max_bits"] > 0
        assert payload["equal_rate_gap_bits"] > 0
        assert (tmp_path / "fig2.csv").exists()
        assert (tmp_path / "fig2.svg").exists()

    def test_matrix_variant(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, "reproduce-fig2", "--variant", "matrix-g", "--grid", "65"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["r1_max_bits"] - golden.R1_MAX_MATRIX) <= 1e-9
        assert payload["equal_rate_gap_bits"] > 0

    def test_zero_power_collapses(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "reproduce-fig2", "--power", "0", "--grid", "17")
        assert code == 0
        payload = json.loads(out)
        assert payload["r1_max_bits"] == 0.0 and payload["r2_max_bits"] == 0.0
        assert payload["equal_rate_gap_bits"] == 0.0


#: runs `outer` on a 3-antenna complex channel and an exact-grid `audit`,
#: then prints the SciPy modules they left imported
IMPORT_PROBE = """
import contextlib, io, sys
from secrecy_region import cli
flags = ["--h", "1+0.5j,0.3,-0.2j", "--g", "0.4,0.9-0.1j,0.5", "--power", "10"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["outer", *flags]), cli.main(["audit", *flags, "--grid", "65"])]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


class TestImports:
    def test_outer_and_audit_leave_scipy_unimported(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "[0, 0] []"


#: one command in a fresh interpreter: whether importing the CLI built its
#: parser, then the command's exit code, stdout and stderr
FRESH_RUN = """
import contextlib, io, json, sys
from secrecy_region import cli
built_at_import = cli._PARSER is not None
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([built_at_import, code, out.getvalue(), err.getvalue()]))
"""


class TestParserReuse:
    @pytest.mark.parametrize(
        "first, second",
        [
            # a leaked --grid would switch the audit to an exact grid
            (["region", *EXAMPLE_FLAGS, "--grid", "9"], ["audit", *EXAMPLE_FLAGS]),
            # a leaked --power default (10) would make the spectrum succeed
            (
                ["reproduce-fig2", "--grid", "9"],
                ["spectrum", "--h", "1.5,0", "--g", "1.801,0.872"],
            ),
        ],
    )
    def test_second_call_matches_fresh_process(
        self, capsys, tmp_path, monkeypatch, first, second
    ):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *first)[0] == 0
        parser = cli._PARSER
        got = run(capsys, *second)
        assert cli._PARSER is parser  # built once, by the first call
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run(
            [sys.executable, "-c", FRESH_RUN, json.dumps(second)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True,
        )
        built_at_import, *fresh = json.loads(done.stdout)
        assert not built_at_import
        assert list(got) == fresh
