"""Deterministic CSV / JSON / SVG serialization.

All numbers are printed with 12 significant digits through repr-stable,
locale-independent formatting, and files are written atomically
(temp file + rename) so interrupted runs never leave partial output.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .regions import RegionBoundary


def fmt(x: float) -> str:
    """12-significant-digit, locale-independent number formatting."""
    return format(float(x), ".12g")


def round12(value):
    """Round floats (recursively) to 12 significant digits for JSON.

    Also coerces numpy scalars to their Python equivalents.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return float(fmt(value)) if math.isfinite(value) else value
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def atomic_write_text(path: str, text: str) -> None:
    """Write text through a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: the columns of a swept-points table: JSON object keys and CSV header
POINT_KEYS = ("param", "r1_bits", "r2_bits")


@dataclass(frozen=True, eq=False)
class Table:
    """A float table formatted once, for every writer that prints it.

    texts -- the "%.12g" text of every entry, row by row
    shape -- (rows, columns)
    keys  -- with keys, the JSON writer gives each row as an object with
             these keys, else as a list
    """

    texts: list[str]
    shape: tuple[int, int]
    keys: tuple[str, ...] | None = None


def table(values: np.ndarray, keys: tuple[str, ...] | None = None) -> Table:
    """An (n, k) float array formatted by one %-format call ("%.12g"
    formats as fmt)."""
    flat = values.ravel().tolist()
    return Table(("%.12g " * len(flat) % tuple(flat)).split(), values.shape, keys)


def points_table(boundary: RegionBoundary) -> Table:
    """A boundary's swept parameters and corners, keyed by `POINT_KEYS`."""
    return table(np.column_stack([boundary.params, boundary.points]), POINT_KEYS)


def dump_json(data) -> str:
    """The text of json.dumps(round12(data), indent=2) plus a newline; a
    `Table` is written as its list of rows."""
    return _json_text(data, "") + "\n"


def _json_numbers(texts: list[str]) -> list[str]:
    """json.dumps(round12(x)) for each float x, from its "%.12g" text.

    "%.12g" keeps at most 12 significant digits, which a normal float reads
    back exactly, so its text is already the repr of round12(x) but for
    the ".0" repr gives integers. Positive exponents (repr writes up to
    1e16 in full), exponents starting "e-3" (these hold the subnormals)
    and non-finite values are written from the float instead. A plain
    decimal, the common case, is tested first.
    """
    return [
        t if "." in t and "e" not in t
        else _json_float(float(t)) if "e+" in t or "e-3" in t or "n" in t
        else t if "e" in t
        else t + ".0"
        for t in texts
    ]


def _json_float(v: float) -> str:
    """A float as json.dumps writes it."""
    if math.isfinite(v):
        return repr(v)
    return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")


def _json_text(value, pad: str) -> str:
    """One value indented as json.dumps(..., indent=2) would at depth `pad`.

    Dispatches on type: floats, tables and containers (the bulk of every
    payload) are written here; other scalars go through round12 and
    json.dumps.
    """
    inner = pad + "  "
    sep = "\n" + inner
    if type(value) is float:
        return _json_numbers(["%.12g" % value])[0]
    if isinstance(value, Table):
        return _json_table(value, pad)
    if isinstance(value, np.ndarray):
        return _json_text(value.tolist(), pad)
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_json_text(v, inner) for v in value]
    elif isinstance(value, dict):
        brackets = "{}"
        items = [
            # json.dumps turns non-string keys into strings
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
            f"{_json_text(v, inner)}"
            for k, v in value.items()
        ]
    else:
        return json.dumps(round12(value))
    if not items:
        return brackets
    return brackets[0] + sep + ("," + sep).join(items) + "\n" + pad + brackets[1]


def _json_table(t: Table, pad: str) -> str:
    """A table as a list of rows (objects with keys) at depth `pad`: one
    row template, one %-format call."""
    rows, cols = t.shape
    if not t.texts:
        return _json_text([[]] * rows, pad)
    inner = pad + "  "
    sep = ",\n" + inner + "  "
    if t.keys is None:
        slots, brackets = ["%s"] * cols, "[]"
    else:
        slots = [json.dumps(k).replace("%", "%%") + ": %s" for k in t.keys]
        brackets = "{}"
    row = brackets[0] + sep[1:] + sep.join(slots) + "\n" + inner + brackets[1]
    body = (",\n" + inner).join([row] * rows)
    return "[\n" + inner + body % tuple(_json_numbers(t.texts)) + "\n" + pad + "]"


def boundary_csv(
    points: Table,
    hull: Table,
    beta_dists: np.ndarray | None = None,
    beta_hausdorff: float | None = None,
) -> str:
    """Swept rows, then a `# hull` sentinel section with the frontier.

    With a cross-parametrization check, each swept row gains an upper
    bound on the distance of its corner to the dual-sweep hull, and a
    trailing comment carries an upper bound on the Hausdorff distance
    between the two hulls.
    """
    header = ",".join(points.keys)
    tables = [points]
    if beta_dists is not None:
        header += ",beta_dist"
        tables.append(table(beta_dists[:, None]))
    text = f"{header}\n{_csv_rows(*tables)}# hull\n{_csv_rows(hull)}"
    if beta_hausdorff is not None:
        text += f"# beta_hausdorff,{fmt(beta_hausdorff)}\n"
    return text


def _csv_rows(*tables: Table) -> str:
    """The rows of equally long tables side by side, one comma-separated
    line each, by a single %-format call."""
    columns = [t.texts[j :: t.shape[1]] for t in tables for j in range(t.shape[1])]
    width, rows = len(columns), tables[0].shape[0]
    flat = [""] * (rows * width)
    for j, column in enumerate(columns):
        flat[j::width] = column
    return (",".join(["%s"] * width) + "\n") * rows % tuple(flat)


def _svg_path(points, to_px) -> str:
    """Path data `M x y L x y ...` in pixels; to_px maps coordinate arrays."""
    if len(points) == 0:
        return ""
    xy = np.asarray(points, dtype=float)
    px, py = to_px(xy[:, 0], xy[:, 1])
    cmds = "M %.12g %.12g" + " L %.12g %.12g" * (len(xy) - 1)
    return cmds % tuple(np.column_stack([px, py]).ravel().tolist())


def region_svg(curves: list[tuple[str, np.ndarray, str]]) -> str:
    """Self-contained SVG with inline polylines, no timestamps or assets.

    curves: (name, polyline, style) with style "solid" or "dashdot"; a
    polyline is an (n, 2) array or a sequence of (x, y) pairs.
    """
    width, height, margin = 560, 460, 60
    ax_color = "#333333"
    xy = [np.asarray(pts, dtype=float).reshape(-1, 2) for _, pts, _ in curves]
    x_max = max((float(a[:, 0].max()) for a in xy if len(a)), default=1.0)
    y_max = max((float(a[:, 1].max()) for a in xy if len(a)), default=1.0)
    x_max = max(x_max * 1.05, 1e-9)
    y_max = max(y_max * 1.05, 1e-9)

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = margin + (x / x_max) * (width - 2 * margin)
        py = height - margin - (y / y_max) * (height - 2 * margin)
        return px, py

    def line(x1, y1, x2, y2, color=ax_color, stroke="1", dash="") -> str:
        return (
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{color}" stroke-width="{stroke}"{dash}/>'
        )

    def text(x, y, size, body, anchor="", tail="") -> str:
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        return (
            f'<text x="{fmt(x)}" y="{fmt(y)}" font-size="{size}"{anchor} '
            f'fill="{ax_color}"{tail}>{body}</text>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    x0, y0 = to_px(0.0, 0.0)
    x1, y1 = to_px(x_max, y_max)
    parts += [line(x0, y0, x1, y0), line(x0, y0, x0, y1)]
    # ticks every 0.25 bits, the step doubled until at most 12 fit an axis
    # (halved until 2 fit one shorter than 0.25), labelled to 6 digits; a
    # tick reaches `left` px left of and `down` px below its axis point
    for span, at, (left, down), (dx, dy, anchor) in (
        (x_max, lambda t: to_px(t, 0.0), (0, 5), (0, 18, "middle")),
        (y_max, lambda t: to_px(0.0, t), (5, 0), (-8, 4, "end")),
    ):
        step = 0.25
        while span / step > 12:
            step *= 2
        while span < min(0.25, 2 * step):
            step /= 2
        t = step
        while t <= span + 1e-12:
            px, py = at(t)
            parts.append(line(px - left, py, px, py + down))
            parts.append(text(px + dx, py + dy, 11, format(t, ".6g"), anchor))
            t += step
    label = "user-{} rate (bits/channel use)"
    parts.append(text(width / 2, height - 15, 13, label.format(1), "middle"))
    rotate = f' transform="rotate(-90 18 {fmt(height / 2)})"'
    parts.append(text(18, height / 2, 13, label.format(2), "middle", rotate))
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for i, (name, pts, style) in enumerate(curves):
        color = palette[i % len(palette)]
        dash = ' stroke-dasharray="10 4 2 4"' if style == "dashdot" else ""
        if len(pts) == 1:
            px, py = to_px(*pts[0])
            parts.append(f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<path d="{_svg_path(pts, to_px)}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"{dash}/>'
            )
        lx, ly = margin + 10, margin - 30 + 16 * i
        parts += [line(lx, ly, lx + 30, ly, color, "1.8", dash), text(lx + 36, ly + 4, 12, name)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
