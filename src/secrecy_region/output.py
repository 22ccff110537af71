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

    With a cross-parametrization check, each swept row gains the distance
    of its corner to the dual-sweep hull and a trailing comment carries
    the symmetric Hausdorff deviation.
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


def region_svg(
    curves: list[tuple[str, np.ndarray, str]],
    x_label: str = "user-1 rate (bits/channel use)",
    y_label: str = "user-2 rate (bits/channel use)",
) -> str:
    """Self-contained SVG with inline polylines, no timestamps or assets.

    curves: (name, polyline, style) with style "solid" or "dashdot"; a
    polyline is an (n, 2) array or a sequence of (x, y) pairs.
    """
    width, height = 560, 460
    margin = 60
    xy = [np.asarray(pts, dtype=float).reshape(-1, 2) for _, pts, _ in curves]
    x_max = max((float(a[:, 0].max()) for a in xy if len(a)), default=1.0)
    y_max = max((float(a[:, 1].max()) for a in xy if len(a)), default=1.0)
    x_max = max(x_max * 1.05, 1e-9)
    y_max = max(y_max * 1.05, 1e-9)

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = margin + (x / x_max) * (width - 2 * margin)
        py = height - margin - (y / y_max) * (height - 2 * margin)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    ax_color = "#333333"
    x0, y0 = to_px(0.0, 0.0)
    x1, _ = to_px(x_max, 0.0)
    _, y1 = to_px(0.0, y_max)
    parts.append(
        f'<line x1="{fmt(x0)}" y1="{fmt(y0)}" x2="{fmt(x1)}" y2="{fmt(y0)}" '
        f'stroke="{ax_color}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{fmt(x0)}" y1="{fmt(y0)}" x2="{fmt(x0)}" y2="{fmt(y1)}" '
        f'stroke="{ax_color}" stroke-width="1"/>'
    )
    # ticks every ~0.25 bits, never more than 12 per axis
    def tick_step(span: float) -> float:
        step = 0.25
        while span / step > 12:
            step *= 2
        return step

    step = tick_step(x_max)
    t = step
    while t <= x_max + 1e-12:
        px, py = to_px(t, 0.0)
        parts.append(
            f'<line x1="{fmt(px)}" y1="{fmt(py)}" x2="{fmt(px)}" y2="{fmt(py + 5)}" '
            f'stroke="{ax_color}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{fmt(px)}" y="{fmt(py + 18)}" font-size="11" '
            f'text-anchor="middle" fill="{ax_color}">{fmt(round(t, 6))}</text>'
        )
        t += step
    step = tick_step(y_max)
    t = step
    while t <= y_max + 1e-12:
        px, py = to_px(0.0, t)
        parts.append(
            f'<line x1="{fmt(px - 5)}" y1="{fmt(py)}" x2="{fmt(px)}" y2="{fmt(py)}" '
            f'stroke="{ax_color}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{fmt(px - 8)}" y="{fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" fill="{ax_color}">{fmt(round(t, 6))}</text>'
        )
        t += step
    parts.append(
        f'<text x="{fmt(width / 2)}" y="{fmt(height - 15)}" font-size="13" '
        f'text-anchor="middle" fill="{ax_color}">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{fmt(height / 2)}" font-size="13" text-anchor="middle" '
        f'fill="{ax_color}" transform="rotate(-90 18 {fmt(height / 2)})">{y_label}</text>'
    )
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    legend_y = margin - 30
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
        lx = margin + 10
        ly = legend_y + 16 * i
        parts.append(
            f'<line x1="{fmt(lx)}" y1="{fmt(ly)}" x2="{fmt(lx + 30)}" y2="{fmt(ly)}" '
            f'stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        parts.append(
            f'<text x="{fmt(lx + 36)}" y="{fmt(ly + 4)}" font-size="12" '
            f'fill="{ax_color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
