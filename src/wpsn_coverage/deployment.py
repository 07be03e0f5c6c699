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
from .coverage import EventField, Strategy
from .quantities import ValidationError, _positive

# Most sources place_sources lays on a grid. The count follows the user's
# radius with no other bound (1e-300 m on the design field asks for ~1e604),
# and building, storing and querying the grid grow with it: placing 10^6
# already takes ~0.7 s and ~200 MB, far past any real deployment.
MAX_GRID_SOURCES = 10**6


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
    strategy: Strategy

    def __post_init__(self):
        object.__setattr__(self, "r_rf", _positive(self.r_rf, "source range [m]"))
        object.__setattr__(self, "sources", _point_array(self.sources, self.field, "source"))


@dataclass(frozen=True, eq=False)
class NodeField:
    field: EventField
    positions: np.ndarray  # (N, 2) float64, read-only
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "positions", _point_array(self.positions, self.field, "node"))


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """CSR membership: node i lies in sources indices[indptr[i]:indptr[i + 1]], in index order."""

    covered_count: int
    total_count: int
    coverage_fraction: float
    indptr: np.ndarray  # (N + 1,) int64
    indices: np.ndarray  # source indices


@dataclass(frozen=True)
class InterferenceReport:
    source_pairs: tuple[tuple[int, int, float], ...]
    multi_fed_nodes: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not self.source_pairs and not self.multi_fed_nodes


def place_sources(
    field: EventField, r_rf: float, strategy: Strategy | str
) -> Deployment:
    """Place non-overlapping source discs of radius r_rf on a grid."""
    strategy = Strategy(strategy)
    r = _positive(r_rf, "source range [m]")
    if strategy is Strategy.EXPLICIT:
        raise ValidationError("explicit strategy requires a source list; use Deployment directly")
    if 2.0 * r > min(field.width, field.height):
        raise ValidationError(
            f"no disc of radius {r} m fits in a {field.width} x {field.height} m field"
        )

    if strategy is Strategy.SQUARE_GRID:
        nx, ny = field.width // (2.0 * r), field.height // (2.0 * r)
    else:  # hex grid: row pitch r*sqrt(3), alternate rows shifted by r
        # tiny inflation keeps adjacent-row spacing >= 2r under fp rounding
        pitch = r * math.sqrt(3.0) * (1.0 + 1e-9)
        # the loops' own bounds: the unshifted rows are the longest
        nx = (field.width - 2.0 * r + 1e-12) // (2.0 * r) + 1
        ny = (field.height - 2.0 * r + 1e-12) // pitch + 1
    if nx * ny > MAX_GRID_SOURCES:  # floats: an absurd grid is inf, not a long loop
        raise ValidationError(
            f"a {strategy.value} of radius {r} m on the {field.width} x {field.height} m field"
            f" needs up to {nx * ny:.7g} sources, over the cap of {MAX_GRID_SOURCES}"
        )

    positions: list[tuple[float, float]] = []
    if strategy is Strategy.SQUARE_GRID:
        for j in range(int(ny)):
            for i in range(int(nx)):
                positions.append(((2 * i + 1) * r, (2 * j + 1) * r))
    else:
        j = 0
        y = r
        while y <= field.height - r + 1e-12:
            x = r + (r if j % 2 else 0.0)
            while x <= field.width - r + 1e-12:
                positions.append((x, y))
                x += 2.0 * r
            j += 1
            y = r + j * pitch
    return Deployment(field=field, sources=positions, r_rf=r, strategy=strategy)


def scatter_nodes(field: EventField, n: int, seed: int) -> NodeField:
    """Scatter n uniform node positions; deterministic per (field, n, seed)."""
    if n < 0:
        raise ValidationError(f"node count must be >= 0, got {n}")
    xs, ys = kernels.points_block(seed, 0, n, field.width, field.height)
    return NodeField(field=field, positions=np.column_stack((xs, ys)), seed=seed)


def _index(dep: Deployment, radius: float) -> kernels.CellIndex:
    sx, sy = dep.sources.T
    return kernels.CellIndex(sx, sy, radius, dep.field.width, dep.field.height)


def _membership(dep: Deployment, nodes: NodeField) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the closed source discs each node lies in."""
    if nodes.field != dep.field:
        raise ValidationError("node field does not match deployment field")
    px, py = nodes.positions.T
    rows, cols = _index(dep, dep.r_rf).hits(px, py)
    counts = np.bincount(rows, minlength=len(nodes.positions))
    return np.concatenate(([0], np.cumsum(counts))), cols


def coverage_report(dep: Deployment, nodes: NodeField) -> CoverageReport:
    """Exact membership coverage: a node is covered iff its distance to
    some source is <= r_rf (closed disc)."""
    indptr, indices = _membership(dep, nodes)
    covered = int(np.count_nonzero(np.diff(indptr)))
    total = len(nodes.positions)
    return CoverageReport(
        covered_count=covered,
        total_count=total,
        coverage_fraction=covered / total if total else 0.0,
        indptr=indptr,
        indices=indices,
    )


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
    if samples < 1:
        raise ValidationError(f"sample count must be >= 1, got {samples}")
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    if len(dep.sources) == 0:
        return 0.0
    sx, sy = dep.sources[:, 0], dep.sources[:, 1]
    w, h = dep.field.width, dep.field.height
    workers = min(workers, os.cpu_count() or 1, -(-samples // kernels._CHUNK))
    block = -(-samples // workers)

    def span(lo: int) -> int:
        return kernels.covered_count(seed, lo, min(block, samples - lo), w, h, sx, sy, dep.r_rf)

    starts = range(0, samples, block)
    if workers == 1:
        return sum(map(span, starts)) / samples
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(span, starts)) / samples


def detect_interference(dep: Deployment, nodes: NodeField) -> InterferenceReport:
    """Overlapping-range source pairs and nodes inside >=2 discs."""
    if nodes.field != dep.field:
        raise ValidationError("node field does not match deployment field")
    pairs: list[tuple[int, int, float]] = []
    # relative slack keeps exactly-touching grid discs (spacing 2r up to
    # fp rounding) out of the overlap list
    threshold = 2.0 * dep.r_rf * (1.0 - 1e-12)
    # the index only prunes, with a slightly wider bound: the decision and
    # the reported distance come from math.hypot, which np.hypot is not
    sx, sy = dep.sources.T
    rows, cols = _index(dep, threshold * (1.0 + 1e-9)).hits(sx, sy)
    sources = dep.sources.tolist()
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i < j:
            (xi, yi), (xj, yj) = sources[i], sources[j]
            d = math.hypot(xi - xj, yi - yj)
            if d < threshold:
                pairs.append((i, j, d))
    indptr, _ = _membership(dep, nodes)
    multi = np.flatnonzero(np.diff(indptr) >= 2)
    return InterferenceReport(source_pairs=tuple(pairs), multi_fed_nodes=tuple(multi.tolist()))
