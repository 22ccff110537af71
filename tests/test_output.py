"""Serialization: number formatting, CSV layout, SVG, atomic writes."""

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from secrecy_region import RatePair, SweepConfig, capacity_region
from secrecy_region import cli, output


@pytest.fixture(scope="module")
def boundary(example_channel):
    return capacity_region(example_channel, SweepConfig(grid_points=17, sagitta_tol=1e-4))


def tables(boundary):
    return output.points_table(boundary), output.table(boundary.hull)


class TestNumberFormat:
    def test_twelve_significant_digits(self):
        assert output.fmt(1.2478311716202364) == "1.24783117162"
        assert output.fmt(0.5) == "0.5"
        assert output.fmt(123456789012345.0) == "1.23456789012e+14"

    def test_round12_recursive(self):
        data = {"a": [1.0000000000001, {"b": 2.5}], "c": True, "d": None}
        rounded = output.round12(data)
        assert rounded["a"][0] == 1.0
        assert rounded["a"][1]["b"] == 2.5
        assert rounded["c"] is True and rounded["d"] is None


class TestDumpJson:
    @pytest.mark.parametrize(
        "data",
        [
            {"a": [1.0000000000001, {"b": 2.5}], "c": True, "d": None, "e": "x%s"},
            {"frontier": [[0.1, 1.0 / 3.0], [2.0, math.inf], [1e-300, -0.0]]},
            {"hull": (RatePair(1.5, 2.0), RatePair(math.nan, -math.inf))},
            {"ragged": [[1.0, 2.0], [3.0]], "mixed": [[1.0, 2], [3.0, 4.0]]},
            {"empty": [], "nested": [[]], "d": {}, "rows": [[1.0], [2.0]]},
            {"numpy": [np.float64(0.1), np.int64(3), np.bool_(True)], "n": 12},
            {1: 1.5, 2.5: "v", False: None, "\u00e9\"%": [0.2, 0.30000000000000004]},
            [[123456789012345.0, 1e16], [7.0, -2.5e-7]],
            [0.5],
            math.nan,
        ],
    )
    def test_matches_stdlib_encoder(self, data):
        # the writer must give the text of the stdlib encoder on rounded data
        ref = json.dumps(output.round12(data), indent=2) + "\n"
        assert output.dump_json(data) == ref

    def test_matches_stdlib_across_magnitudes(self):
        # every decade of the float range, subnormals and integers included
        rng = np.random.default_rng(4)
        scale = 10.0 ** rng.integers(-323, 308, 4000)
        values = rng.standard_normal(4000) * scale
        rows = np.stack([values, np.trunc(values)], axis=1).tolist()
        rows += [[0.0, -0.0], [1e12, 123456789012.0], [1e16, 5e-324]]
        ref = json.dumps(output.round12(rows), indent=2) + "\n"
        assert output.dump_json(rows) == ref

    def test_matches_stdlib_on_a_sweep(self, boundary):
        data = {
            "points": [
                {"param": a, "r1_bits": r1, "r2_bits": r2}
                for a, (r1, r2) in zip(boundary.params.tolist(), boundary.points.tolist())
            ],
            "hull": boundary.hull.tolist(),
        }
        ref = json.dumps(output.round12(data), indent=2) + "\n"
        assert output.dump_json(data) == ref


    def test_cli_payload_matches_stdlib(self, boundary):
        # the CLI payload holds a keyed points table and a hull table; their
        # text equals that of the same values as plain lists
        payload = cli._boundary_payload(boundary)
        rows = np.column_stack([boundary.params, boundary.points]).tolist()
        plain = dict(
            payload,
            points=[dict(zip(output.POINT_KEYS, row)) for row in rows],
            hull=boundary.hull.tolist(),
        )
        ref = json.dumps(output.round12(plain), indent=2) + "\n"
        assert output.dump_json(payload) == ref

    @pytest.mark.parametrize(
        "array",
        [
            np.array([[0.1, 1.0 / 3.0], [2.0, math.inf], [1e-300, -0.0]]),
            np.array([[1.5]]),
            np.zeros((0, 2)),
            np.zeros((2, 0)),
            np.arange(6).reshape(3, 2),
            np.array([0.25, 3.0]),
            np.rec.fromarrays([[0.5, 1e16], [math.nan, 2.0]], names="a%s,b"),
            np.array(
                [
                    [0.0, -0.0, 3.0, 2.9999999999999],
                    [1e12, 1e16, 1e-300, 5e-324],
                    [math.nan, math.inf, -math.inf, 0.1],
                ]
            ),
        ],
    )
    def test_arrays_match_stdlib(self, array):
        plain = array.tolist()
        keys = array.dtype.names
        if keys:
            plain = [dict(zip(keys, row)) for row in plain]
        ref = json.dumps(output.round12({"x": plain}), indent=2) + "\n"
        if not keys and (array.dtype.kind == "i" or array.ndim == 1):
            assert output.dump_json({"x": array}) == ref
            return
        # a float table is formatted once and read by both writers
        values = np.column_stack([array[k] for k in keys]) if keys else array
        table = output.table(values, keys)
        assert output.dump_json({"x": table}) == ref
        csv = "".join(",".join("%.12g" % v for v in row) + "\n" for row in values)
        assert output._csv_rows(table) == csv


class TestBoundaryCsv:
    def test_rows_match_fmt(self, boundary):
        # reference: one fmt call per number, row by row
        fmt = output.fmt
        dists = np.arange(len(boundary.points)) * 0.25
        ref = ["param,r1_bits,r2_bits,beta_dist"]
        ref += [
            f"{fmt(a)},{fmt(r1)},{fmt(r2)},{fmt(d)}"
            for a, (r1, r2), d in zip(boundary.params, boundary.points, dists)
        ]
        ref += ["# hull"] + [f"{fmt(r1)},{fmt(r2)}" for r1, r2 in boundary.hull]
        ref += [f"# beta_hausdorff,{fmt(3e-9)}"]
        text = output.boundary_csv(*tables(boundary), dists, 3e-9)
        assert text == "\n".join(ref) + "\n"

    def test_layout(self, boundary):
        text = output.boundary_csv(*tables(boundary))
        lines = text.strip().split("\n")
        assert lines[0] == "param,r1_bits,r2_bits"
        sentinel = lines.index("# hull")
        assert sentinel == 1 + len(boundary.points)
        data_rows = lines[1:sentinel]
        assert all(len(row.split(",")) == 3 for row in data_rows)
        hull_rows = lines[sentinel + 1 :]
        assert len(hull_rows) == len(boundary.hull)
        assert all(len(row.split(",")) == 2 for row in hull_rows)

    def test_beta_columns(self, boundary):
        dists = np.zeros(len(boundary.points))
        text = output.boundary_csv(*tables(boundary), dists, 1.5e-7)
        lines = text.strip().split("\n")
        assert lines[0] == "param,r1_bits,r2_bits,beta_dist"
        assert lines[1].count(",") == 3
        assert lines[-1] == "# beta_hausdorff,1.5e-07"


class TestAtomicWrite:
    def test_write_and_no_temp_leftovers(self, tmp_path):
        target = tmp_path / "out" / "file.csv"
        output.atomic_write_text(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(target.parent) if p.startswith(".tmp-")]
        assert leftovers == []

    def test_overwrite_is_atomic(self, tmp_path):
        target = tmp_path / "file.txt"
        output.atomic_write_text(str(target), "one\n")
        output.atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"


class TestSvg:
    def test_well_formed_and_deterministic(self, boundary, example_channel):
        curves = [
            ("capacity region", boundary.frontier(), "solid"),
            ("time sharing", [(0.0, 1.0), (1.0, 0.0)], "dashdot"),
        ]
        svg1 = output.region_svg(curves)
        svg2 = output.region_svg(curves)
        assert svg1 == svg2  # no timestamps, no randomness
        root = ET.fromstring(svg1)
        assert root.tag.endswith("svg")
        assert "stroke-dasharray" in svg1
        assert "<path" in svg1

    def test_path_matches_pointwise(self):
        # reference: each vertex mapped and formatted on its own
        rng = np.random.default_rng(3)
        pts = [(float(x), float(y)) for x, y in 3.0 * rng.random((50, 2))] + [(0, 2)]

        def to_px(x, y):
            return 60 + (x / 3.15) * 440, 400 - (y / 3.15) * 340

        pixels = [to_px(x, y) for x, y in pts]
        ref = " ".join(
            f"{'M' if i == 0 else 'L'} {output.fmt(px)} {output.fmt(py)}"
            for i, (px, py) in enumerate(pixels)
        )
        assert output._svg_path(pts, to_px) == ref

    def test_axes_ticks_and_legend(self):
        # x reaches 2.8 and y 6, plus 5% headroom: 11.76 ticks of 0.25 bits
        # fit the x axis; the y axis would take 25.2, then 12.6, so its step
        # is doubled twice, to 1 bit
        curves = [
            ("region", [(0.0, 6.0), (1.0, 5.0), (2.8, 0.0)], "solid"),
            ("sharing", [(0.0, 1.0), (1.0, 0.0)], "dashdot"),
        ]
        root = ET.fromstring(output.region_svg(curves))
        ns = "{http://www.w3.org/2000/svg}"
        x_max, y_max = 2.8 * 1.05, 6.0 * 1.05

        def to_px(x, y):
            return 60 + x / x_max * 440, 400 - y / y_max * 340

        def at(el, *keys):
            return [float(el.get(k)) for k in keys or ("x1", "y1", "x2", "y2")]

        lines = list(root.iter(ns + "line"))
        axis = [el for el in lines if el.get("stroke") == "#333333"]
        legend = [el for el in lines if el.get("stroke") != "#333333"]
        x0, y0 = to_px(0.0, 0.0)
        x1, y1 = to_px(x_max, y_max)
        np.testing.assert_allclose(at(axis[0]), [x0, y0, x1, y0])
        np.testing.assert_allclose(at(axis[1]), [x0, y0, x0, y1])

        labels = [el for el in root.iter(ns + "text") if el.get("font-size") == "11"]
        x_ticks = [0.25 * k for k in range(1, 12)]
        y_ticks = [1.0 * k for k in range(1, 7)]
        assert len(axis) == 2 + len(x_ticks) + len(y_ticks)
        assert [el.text for el in labels] == [output.fmt(t) for t in x_ticks + y_ticks]
        for t, tick, label in zip(x_ticks, axis[2:], labels):
            px, py = to_px(t, 0.0)
            np.testing.assert_allclose(at(tick), [px, py, px, py + 5])
            assert label.get("text-anchor") == "middle"
            np.testing.assert_allclose(at(label, "x", "y"), [px, py + 18])
        for t, tick, label in zip(y_ticks, axis[2 + len(x_ticks) :], labels[len(x_ticks) :]):
            px, py = to_px(0.0, t)
            np.testing.assert_allclose(at(tick), [px - 5, py, px, py])
            assert label.get("text-anchor") == "end"
            np.testing.assert_allclose(at(label, "x", "y"), [px - 8, py + 4])

        assert [el.get("stroke") for el in legend] == ["#1f77b4", "#d62728"]
        assert [el.get("stroke-dasharray") for el in legend] == [None, "10 4 2 4"]
        for i, el in enumerate(legend):
            np.testing.assert_allclose(at(el), [70, 30 + 16 * i, 100, 30 + 16 * i])
        names = [el.text for el in root.iter(ns + "text") if el.get("font-size") == "12"]
        assert names == ["region", "sharing"]
        titles = [el.text for el in root.iter(ns + "text") if el.get("font-size") == "13"]
        assert titles == [f"user-{k} rate (bits/channel use)" for k in (1, 2)]

    def test_narrow_region_keeps_distinct_ticks(self, tmp_path, capsys):
        # at P = 1e-6 the example's region is under 2e-6 bits wide: the tick
        # step halves from 0.25 until two ticks fit, and labels keep 6 digits
        svg_path = tmp_path / "fig2.svg"
        code = cli.main([
            "reproduce-fig2", "--power", "1e-6", "--out-csv", str(tmp_path / "fig2.csv"),
            "--out-svg", str(svg_path),
        ])
        capsys.readouterr()
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        texts = root.iter("{http://www.w3.org/2000/svg}text")
        labels = [el for el in texts if el.get("font-size") == "11"]
        for anchor in ("middle", "end"):
            values = [float(el.text) for el in labels if el.get("text-anchor") == anchor]
            assert len(values) >= 2
            assert all(0.0 < a < b for a, b in zip(values, values[1:]))

    def test_single_point_curve(self):
        svg = output.region_svg([("point", [(0.0, 0.0)], "solid")])
        assert "<circle" in svg
