"""Figure tables and their CSV and SVG serializers.

A `SweepTable` holds named columns, rows of cells and a metadata dict;
cells and metadata values are numbers or text.
Serialization is byte-stable: identical inputs always produce identical
files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .quantities import ValidationError


@dataclass(frozen=True)
class SweepTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[float | str, ...], ...]
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValidationError(
                    f"row arity {len(row)} != {len(self.columns)} columns"
                )


def _format_number(value) -> str:
    """Shortest decimal that round-trips; integers without exponent noise;
    text as it is."""
    if isinstance(value, (int, str)):
        return str(value)
    f = float(value)
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def render_csv(table: SweepTable) -> str:
    """CSV text: '#'-prefixed metadata, header, then rows. LF endings."""
    lines = []
    for key in sorted(table.metadata):
        lines.append(f"# {key} = {_format_number(table.metadata[key])}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(table: SweepTable, destination) -> None:
    """Write the table to a path or text stream."""
    text = render_csv(table)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {destination}: {exc}") from exc


_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class PlotOptions:
    x_col: str
    y_col: str
    series_cols: tuple[str, ...] = ()
    log_x: bool = False
    log_y: bool = False
    title: str = ""
    width: int = 800
    height: int = 600


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float, log: bool) -> float:
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        first = math.ceil(math.log10(lo) - 1e-9)
        last = math.floor(math.log10(hi) + 1e-9)
        ticks = [10.0**e for e in range(first, last + 1)]
        return ticks or [lo, hi]
    return np.linspace(lo, hi, 5).tolist()


def render_svg(table: SweepTable, options: PlotOptions) -> str:
    """Self-contained SVG line plot, one polyline per series."""
    if not table.rows:
        raise ValidationError("cannot plot an empty table")
    xi = table.columns.index(options.x_col)
    yi = table.columns.index(options.y_col)
    si = [table.columns.index(c) for c in options.series_cols]

    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in table.rows:
        key = tuple(row[i] for i in si)
        series.setdefault(key, []).append((row[xi], row[yi]))

    xs = [row[xi] for row in table.rows]
    ys = [row[yi] for row in table.rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if options.log_x and x_lo <= 0:
        raise ValidationError("log x scale requires positive x values")
    if options.log_y and y_lo <= 0:
        raise ValidationError("log y scale requires positive y values")
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    w, h = options.width, options.height
    left, right, top, bottom = 70, w - 170, 50, h - 60

    def sx(v):
        return _scale(v, x_lo, x_hi, left, right, options.log_x)

    def sy(v):
        return _scale(v, y_lo, y_hi, bottom, top, options.log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
    if options.title:
        parts.append(
            f'<text x="{(left + right) / 2:.1f}" y="30" text-anchor="middle" '
            f'font-size="16">{options.title}</text>'
        )
    for t in _ticks(x_lo, x_hi, options.log_x):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" y2="{bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{bottom + 20}" text-anchor="middle" font-size="11">'
            f"{t:.4g}</text>"
        )
    for t in _ticks(y_lo, y_hi, options.log_y):
        py = sy(t)
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="11">'
            f"{t:.4g}</text>"
        )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{h - 15}" text-anchor="middle" '
        f'font-size="13">{options.x_col}</text>'
    )
    parts.append(
        f'<text x="20" y="{(top + bottom) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.1f})">{options.y_col}</text>'
    )
    for n, (key, pts) in enumerate(sorted(series.items())):
        color = _SERIES_COLORS[n % len(_SERIES_COLORS)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        label = ", ".join(f"{c}={_format_number(v)}" for c, v in zip(options.series_cols, key)) or options.y_col
        ly = top + 18 * n
        parts.append(
            f'<line x1="{right + 10}" y1="{ly + 10}" x2="{right + 30}" y2="{ly + 10}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{right + 35}" y="{ly + 14}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg_plot(table: SweepTable, options: PlotOptions, destination) -> None:
    """Write an SVG rendering of the table to a path or text stream."""
    text = render_svg(table, options)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write SVG to {destination}: {exc}") from exc
