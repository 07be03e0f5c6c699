"""Figure tables and their CSV and SVG serializers.

A `SweepTable` holds named columns, one sequence of cells per column and
a metadata dict; cells and metadata values are numbers or text.
Serialization is byte-stable: identical inputs always produce identical
files. Every cell is written as `_format_number` writes it: a table of
numpy numeric or bytes columns, masked cells empty, through the byte
matrices of `byte_columns` a block of rows at a time, others cell by cell.

A byte-matrix table of more than `_SERIAL_BLOCKS` blocks is formatted on
two threads: the calling thread formats the even blocks and one worker
thread the odd ones (numpy releases the interpreter lock in its loops),
a pair of blocks at a time, and the blocks are written in order. At
most two blocks are formatted and not yet written, whatever the table's
length or the core count, so the writer's memory stays bounded by the
block.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field

from .quantities import ValidationError

_BLOCK = 1 << 14  # rows formatted and written at a time: bounds the writer's memory
# byte-matrix tables of more blocks take two threads, a pair of blocks at
# a time: 131,072 rows, far above every design-point table and the
# 37,631-line interference.csv of ~12,600 overlapping sources, which keep
# one
_SERIAL_BLOCKS = 8


@dataclass(frozen=True)
class SweepTable:
    columns: tuple[str, ...]
    data: tuple  # one 1-D numpy array or Python sequence per column
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if len(self.data) != len(self.columns) or len({len(c) for c in self.data}) > 1:
            raise ValidationError(f"need {len(self.columns)} columns of one length")

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.data))


def _format_number(value) -> str:
    """Shortest round-trip decimal; integral values as integers; text as it is."""
    if isinstance(value, str):
        return value
    if hasattr(value, "__index__"):  # int, bool, numpy integers; faster than numbers.Integral
        return str(int(value))
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _text_rows(columns) -> bytes:
    """CSV lines of equal-length columns, one `_format_number` call per cell."""
    texts = [[_format_number(v) for v in column] for column in columns]
    return ("\n".join(map(",".join, zip(*texts))) + "\n").encode()


def _csv_blocks(table: SweepTable):
    """Metadata lines and header, then the rows `_BLOCK` at a time, as UTF-8 bytes."""
    meta = "".join(f"# {k} = {_format_number(v)}\n" for k, v in sorted(table.metadata.items()))
    yield (meta + ",".join(table.columns) + "\n").encode()
    n = len(table.data[0]) if table.data else 0
    rows, threads = _text_rows, False
    if table.data and all(hasattr(c, "dtype") and c.dtype.kind in "bifS" for c in table.data):
        from .byte_columns import rows_bytes as rows  # numpy arrays: numpy is loaded

        threads = n > _SERIAL_BLOCKS * _BLOCK and (os.cpu_count() or 1) > 1
    blocks = ([column[lo : lo + _BLOCK] for column in table.data] for lo in range(0, n, _BLOCK))
    yield from _on_two_threads(rows, blocks) if threads else map(rows, blocks)


def _on_two_threads(rows, blocks):
    """rows(block) of each block, in order, a pair at a time: one worker
    thread formats each odd block while this thread formats the even
    block before it and yields it, then the odd block's bytes are yielded.

    At most two blocks are formatted and not yet written. The trade: the
    worker idles while the odd block is written, so on storage slower
    than formatting a worker kept one block ahead would hide more of the
    formatting behind the writes, for a third block held. No benchmark
    workload measures that case. However the generator ends (exhausted,
    closed, or raising, here or in the worker), leaving the `with` joins
    the worker, which finishes at most the one block it holds.
    """
    from concurrent.futures import ThreadPoolExecutor

    blocks = iter(blocks)
    with ThreadPoolExecutor(max_workers=1) as pool:
        for even in blocks:
            odd = next(blocks, None)
            future = pool.submit(rows, odd) if odd is not None else None
            yield rows(even)
            if future is not None:
                yield future.result()


def render_csv(table: SweepTable) -> str:
    """CSV text: '#'-prefixed metadata, header, then rows. LF endings."""
    return b"".join(_csv_blocks(table)).decode()


def write_csv(table: SweepTable, destination) -> None:
    """Write the table to the file at path `destination`, one block of rows at a time."""
    blocks = _csv_blocks(table)
    try:
        _write_bytes(blocks, destination, "CSV")
    finally:
        blocks.close()  # a failed write stops the formatting thread before the error surfaces


def _write_bytes(pieces, destination, what: str) -> None:
    try:
        with open(destination, "wb") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {destination}: {exc}") from exc


_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class PlotOptions:
    x_col: str
    y_col: str
    series_cols: tuple[str, ...] = ()
    log_x: bool = False
    title: str = ""


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float, log: bool) -> float:
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def linspace(start: float, stop: float, n: int) -> list[float]:
    """`n` >= 2 evenly spaced values from start to stop.

    Bit for bit `np.linspace(start, stop, n).tolist()`: the same IEEE
    operations, `start + i * step` with the last value set to `stop`.
    """
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        first = math.ceil(math.log10(lo) - 1e-9)
        last = math.floor(math.log10(hi) + 1e-9)
        ticks = [10.0**e for e in range(first, last + 1)]
        return ticks or [lo, hi]
    return linspace(lo, hi, 5)


def render_svg(table: SweepTable, options: PlotOptions) -> str:
    """Self-contained SVG line plot, one polyline per series."""
    if not table.rows:
        raise ValidationError("cannot plot an empty table")
    xi = table.columns.index(options.x_col)
    yi = table.columns.index(options.y_col)
    si = [table.columns.index(c) for c in options.series_cols]

    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in table.rows:
        series.setdefault(tuple(row[i] for i in si), []).append((row[xi], row[yi]))

    xs, ys = table.data[xi], table.data[yi]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if options.log_x and x_lo <= 0:
        raise ValidationError("log x scale requires positive x values")
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    w, h = 800, 600
    left, right, top, bottom = 70, w - 170, 50, h - 60

    def sx(v):
        return _scale(v, x_lo, x_hi, left, right, options.log_x)

    def sy(v):
        return _scale(v, y_lo, y_hi, bottom, top, False)

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
    for t in _ticks(y_lo, y_hi, False):
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
        parts.append(f'<text x="{right + 35}" y="{ly + 14}" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg_plot(table: SweepTable, options: PlotOptions, destination) -> None:
    """Write an SVG rendering of the table to the file at path `destination`."""
    _write_bytes((render_svg(table, options).encode(),), destination, "SVG")
