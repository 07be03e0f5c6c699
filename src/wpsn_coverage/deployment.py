"""Disc placement over a rectangular field, node scattering, coverage
measurement and interference detection.

Grid placements guarantee pairwise source separation >= 2r (disjoint
ranges); explicit placements may violate it, which is exactly what the
interference checker reports.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coverage import EventField, Strategy, _strategy
from .quantities import ValidationError, _integer, _positive

# Most sources place_sources lays on a grid. The count follows the user's
# radius with no other bound (1e-300 m on the design field asks for ~1e604),
# and building, storing and querying the grid grow with it: placing 10^6,
# far past any real deployment, takes ~24 ms and a 48 MiB tracemalloc peak
# (2-core Xeon).
MAX_GRID_SOURCES = 10**6

# Most nodes scatter_nodes draws: 10^7 take ~1.4 s and a 610 MiB tracemalloc peak (2-core Xeon).
MAX_NODES = 10**7


def _point_array(points, field: EventField, what: str) -> np.ndarray:
    """Read-only (N, 2) float64 copy of (x, y) pairs that lie in the field."""
    try:
        arr = np.array(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise ValidationError(f"{what} positions must be (x, y) number pairs") from exc
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"{what} positions must have shape (N, 2), got {arr.shape}")
    outside = ~field.contains(arr[:, 0], arr[:, 1])
    if outside.any():
        x, y = arr[outside.argmax()].tolist()
        raise ValidationError(
            f"{what} ({x}, {y}) lies outside the {field.width} x {field.height} m field"
        )
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Deployment:
    field: EventField
    sources: np.ndarray  # (S, 2) float64, read-only
    r_rf: float  # m
    strategy: Strategy  # or its name, converted

    def __post_init__(self):
        object.__setattr__(self, "r_rf", _positive(self.r_rf, "source range [m]"))
        object.__setattr__(self, "sources", _point_array(self.sources, self.field, "source"))
        object.__setattr__(self, "strategy", _strategy(self.strategy))


@dataclass(frozen=True, eq=False)
class NodeField:
    field: EventField
    positions: np.ndarray  # (N, 2) float64, read-only
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "positions", _point_array(self.positions, self.field, "node"))


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Per node i: first_source[i], the lowest index of a source whose
    closed disc holds it (-1 if none), and fed_by[i], how many discs hold it."""

    first_source: np.ndarray  # (N,) int64
    fed_by: np.ndarray  # (N,) int64

    @property
    def total_count(self) -> int:
        return len(self.fed_by)

    @property
    def covered_count(self) -> int:
        return int(np.count_nonzero(self.fed_by))

    @property
    def coverage_fraction(self) -> float:
        total = self.total_count
        return self.covered_count / total if total else 0.0


@dataclass(frozen=True, eq=False)
class InterferenceReport:
    pair_i: np.ndarray  # (P,) int64: overlapping pair k is sources pair_i[k] < pair_j[k]
    pair_j: np.ndarray  # (P,) int64
    distance: np.ndarray  # (P,) float64: their distance, m (math.hypot)
    multi_fed: np.ndarray  # (M,) int64: the nodes inside two or more discs

    @property
    def source_pairs(self) -> tuple[tuple[int, int, float], ...]:
        """(i, j, distance) tuples, built on each read."""
        return tuple(zip(self.pair_i.tolist(), self.pair_j.tolist(), self.distance.tolist()))

    @property
    def multi_fed_nodes(self) -> tuple[int, ...]:
        return tuple(self.multi_fed.tolist())

    @property
    def clean(self) -> bool:
        return not len(self.pair_i) and not len(self.multi_fed)


def place_sources(
    field: EventField, r_rf: float, strategy: Strategy | str
) -> Deployment:
    """Place non-overlapping source discs of radius r_rf on a grid."""
    strategy = _strategy(strategy)
    r = _positive(r_rf, "source range [m]")
    if strategy is Strategy.EXPLICIT:
        raise ValidationError("explicit strategy requires a source list; use Deployment directly")
    if 2.0 * r > min(field.width, field.height):
        raise ValidationError(
            f"no disc of radius {r} m fits in a {field.width} x {field.height} m field"
        )

    step = 2.0 * r
    if strategy is Strategy.SQUARE_GRID:
        nx, ny = field.width // step, field.height // step
    else:  # hex grid: row pitch r*sqrt(3), alternate rows shifted by r
        # tiny inflation keeps adjacent-row spacing >= 2r under fp rounding
        pitch = r * math.sqrt(3.0) * (1.0 + 1e-9)
        # candidate columns of the unshifted rows, the longest, and rows:
        # one spare of each holds what rounding admits past the closed form
        nx = (field.width - step + 1e-12) // step + 2
        ny = (field.height - step + 1e-12) // pitch + 2
    if nx * ny > MAX_GRID_SOURCES:  # floats: an absurd grid is inf, not a huge array
        raise ValidationError(
            f"a {strategy.value} of radius {r} m on the {field.width} x {field.height} m field"
            f" needs up to {nx * ny:.7g} sources, over the cap of {MAX_GRID_SOURCES}"
        )
    nx, ny = int(nx), int(ny)

    if strategy is Strategy.SQUARE_GRID:
        x, y = np.meshgrid((2 * np.arange(nx) + 1) * r, (2 * np.arange(ny) + 1) * r)
        return Deployment(field, np.column_stack((x.ravel(), y.ravel())), r, strategy)
    # x advances by repeated addition of 2r from r (even rows) or 2r (odd
    # rows): an in-order cumulative sum, which x0 + k * 2r does not round as
    cols = np.full((2, nx), step)
    cols[0, 0] = r
    x = np.cumsum(cols, axis=1)[np.arange(ny) % 2]
    y = r + np.arange(ny) * pitch
    keep = (x <= field.width - r + 1e-12) & (y <= field.height - r + 1e-12)[:, None]
    y = np.broadcast_to(y[:, None], x.shape)
    return Deployment(field, np.column_stack((x[keep], y[keep])), r, strategy)


def scatter_nodes(field: EventField, n: int, seed: int) -> NodeField:
    """Scatter n uniform node positions; deterministic per (field, n, seed)."""
    n = _integer(n, "node count")
    if n < 0:
        raise ValidationError(f"node count must be >= 0, got {n}")
    if n > MAX_NODES:
        raise ValidationError(f"node count must be <= {MAX_NODES}, got {n}")
    # xs and ys die once stacked, before NodeField copies the stack
    positions = np.column_stack(kernels.points_block(seed, 0, n, field.width, field.height))
    return NodeField(field=field, positions=positions, seed=seed)


def _membership(dep: Deployment, nodes: NodeField) -> tuple[np.ndarray, np.ndarray]:
    """(first_source, fed_by) of each node: the lowest index of a closed
    source disc it lies in (-1 if none), and how many it lies in."""
    px, py = nodes.positions.T
    sx, sy = dep.sources.T
    w, h = dep.field.width, dep.field.height
    return kernels.disc_index(len(px), w, h, sx, sy, dep.r_rf).membership(px, py)


def _check_fields(dep: Deployment, nodes: NodeField) -> None:
    if nodes.field != dep.field:
        raise ValidationError("node field does not match deployment field")


def coverage_report(dep: Deployment, nodes: NodeField) -> CoverageReport:
    """Exact membership coverage: a node is covered iff its distance to
    some source is <= r_rf (closed disc)."""
    _check_fields(dep, nodes)
    return CoverageReport(*_membership(dep, nodes))


def monte_carlo_coverage(
    dep: Deployment, samples: int, seed: int, workers: int = 1
) -> float:
    """Fraction of uniformly sampled field points inside >=1 source disc.

    The counter-based generator makes the result identical for any worker
    count: each worker evaluates a contiguous block of sample indices and
    the per-index streams never depend on the partition. At most
    os.cpu_count() threads run, and no more than there are kernel chunks
    of samples.
    """
    samples = _integer(samples, "sample count")
    workers = _integer(workers, "worker count")
    if samples < 1:
        raise ValidationError(f"sample count must be >= 1, got {samples}")
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    w, h = dep.field.width, dep.field.height
    workers = min(workers, os.cpu_count() or 1, -(-samples // kernels._CHUNK))
    block = -(-samples // workers)
    index = kernels.disc_index(samples, w, h, *dep.sources.T, dep.r_rf)  # one map for every span

    def span(lo: int) -> int:
        return kernels.covered_count(seed, lo, min(block, samples - lo), w, h, index)

    starts = range(0, samples, block)
    if workers == 1:
        return sum(map(span, starts)) / samples
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(span, starts)) / samples


def detect_interference(dep: Deployment, nodes: NodeField) -> InterferenceReport:
    """Overlapping-range source pairs and nodes inside >=2 discs."""
    _check_fields(dep, nodes)
    # relative slack keeps exactly-touching grid discs (spacing 2r up to
    # fp rounding) out of the overlap list
    threshold = 2.0 * dep.r_rf * (1.0 - 1e-12)
    # the index only prunes, with a slightly wider bound: the decision and
    # the reported distance come from math.hypot, which np.hypot is not,
    # over array differences, the same IEEE ones as Python floats give
    sx, sy = dep.sources.T
    w, h = dep.field.width, dep.field.height
    i, j = kernels.CellIndex(sx, sy, threshold * (1.0 + 1e-9), w, h).pairs()
    d = np.empty(len(i))
    for lo in range(0, len(i), 1 << 16):  # slices bound the Python floats alive at once
        a, b = i[lo : lo + (1 << 16)], j[lo : lo + (1 << 16)]
        dx, dy = (sx[a] - sx[b]).tolist(), (sy[a] - sy[b]).tolist()
        d[lo : lo + len(a)] = np.fromiter(map(math.hypot, dx, dy), np.float64, len(a))
    close = d < threshold
    _, fed_by = _membership(dep, nodes)
    return InterferenceReport(i[close], j[close], d[close], np.flatnonzero(fed_by >= 2))
