"""Sampling kernels and the cell index behind every disc query.

The generator is counter-based (splitmix64 finalizer over seed +
counter), so any contiguous block of sample indices can be evaluated
independently and merged without changing the result.

`CellIndex` bins source centres into square cells (spatial hashing:
Teschner et al., "Optimized Spatial Hashing for Collision Detection of
Deformable Objects", VMV 2003; the cell lists of molecular dynamics). A
query point tests only the sources in the cells around its own, with the
same closed-disc test `dx*dx + dy*dy <= r*r` as a test against every
source: the index only prunes, so every answer is bit-identical to the
brute-force one.
"""

from __future__ import annotations

import math

import numpy as np

from .quantities import ValidationError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

IMPL = "python"
HAVE_COMPILED = False  # read by the benchmark (bench/child.py), which records it

_CHUNK = 65536  # samples drawn per points_block call
_CANDIDATES = 1 << 18  # (point, source) tests per block: bounds the temporaries


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) doubles for counters start .. start+count-1."""
    if not 0 <= seed < 1 << 64:  # one stream per seed: no two seeds alias modulo 2**64
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    ctr = np.arange(start, start + count, dtype=np.uint64)
    z = _finalize(np.uint64(seed) + (ctr + np.uint64(1)) * _GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def points_block(
    seed: int, start: int, count: int, width: float, height: float
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points over the rectangle for sample indices start .. start+count-1.

    Sample i consumes counters 2i and 2i+1 (x then y), so blocks partition
    cleanly by sample index.
    """
    u = uniform_block(seed, 2 * start, 2 * count)
    return u[0::2] * width, u[1::2] * height


class CellIndex:
    """Sources in square cells, sorted by cell key, with per-cell offsets.

    Answers "which sources lie within `radius` of each point" for one
    radius. Cells are wider than `radius`, so a point's candidates are the
    sources in the 3 x 3 cells around its own; each of the 3 rows of cells
    is one contiguous run of the sorted sources, read padded to the
    longest run. Where that padded width is no smaller than the source
    count the index cannot prune, and every point tests every source in
    index order, exactly as without an index.
    """

    def __init__(self, sources_x, sources_y, radius: float, width: float, height: float):
        x = np.ascontiguousarray(sources_x, dtype=np.float64)
        y = np.ascontiguousarray(sources_y, dtype=np.float64)
        self.size = n = x.size
        self.r_sq = radius * radius
        s = max(n, 1)
        # at most ~8 cells per source whatever the radius; the 1e-6 margin
        # over the radius dwarfs the rounding of cell coordinates, so no
        # source within the radius of a point lies outside its 3 x 3 cells
        self.side = max(
            radius * (1.0 + 1e-6), math.sqrt(width * height / (4 * s)), (width + height) / (4 * s)
        )
        self.nx = int(width / self.side) + 1
        self.ny = int(height / self.side) + 1

        cx, cy = self._cells(x, y)
        key = cy * self.nx + cx
        self.order = np.argsort(key, kind="stable")
        offsets = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=self.nx * self.ny), out=offsets[1:])
        # run of 3 cells centred on each cell, with an empty row of cells
        # above and below so that queries need no bounds test
        col = np.arange(self.nx)
        row = np.arange(self.ny)[:, None] * self.nx
        first = offsets[row + np.maximum(col - 1, 0)]
        last = offsets[row + np.minimum(col + 1, self.nx - 1) + 1]
        pad = np.zeros((1, self.nx), dtype=np.int64)
        self.start = np.concatenate((pad, first, pad)).ravel()
        self.length = np.concatenate((pad, last - first, pad)).ravel()
        self.run = int(self.length.max())
        self.pruned = 3 * self.run < n
        if self.pruned:  # sorted centres, then a far sentinel for padded slots
            self.x = np.append(x[self.order], np.inf)
            self.y = np.append(y[self.order], np.inf)
        else:
            self.x, self.y = x, y

    def _cells(self, x, y):
        cx = np.clip(np.floor(x / self.side), 0, self.nx - 1).astype(np.int64)
        cy = np.clip(np.floor(y / self.side), 0, self.ny - 1).astype(np.int64)
        return cx, cy

    def _blocks(self, chunks):
        """Yield (lo, ok, pos) per block of each (x, y) chunk of points:
        ok[p, c] is the disc test of the chunk's point lo + p against
        candidate c, which is source c when pos is None and source
        order[pos[p, c]] otherwise.

        A block's temporaries are still held when the next chunk is
        drawn, so the allocator reuses their pages: freeing them first
        made 2.5x as many page faults on a 2*10^6-sample run.
        """
        width = 3 * self.run if self.pruned else self.size
        block = max(1, _CANDIDATES // max(width, 1))
        slots = np.arange(self.run)
        for px, py in chunks:
            for lo in range(0, len(px), block):
                x = px[lo : lo + block, None]
                y = py[lo : lo + block, None]
                if self.pruned:
                    cx, cy = self._cells(x, y)
                    keys = (cy + np.arange(3)) * self.nx + cx
                    pos = self.start[keys][:, :, None] + slots
                    pos = np.where(slots < self.length[keys][:, :, None], pos, self.size)
                    pos = pos.reshape(len(x), width)
                    sx, sy = self.x[pos], self.y[pos]
                else:
                    pos = None
                    sx, sy = self.x, self.y
                d2 = x - sx  # dx*dx + dy*dy, in place
                d2 *= d2
                dy = y - sy
                dy *= dy
                d2 += dy
                yield lo, d2 <= self.r_sq, pos

    def count(self, chunks) -> int:
        """Number of points, over (x, y) chunks, within the radius of at
        least one source."""
        if self.size == 0:
            return 0
        return sum(int(ok.any(axis=1).sum()) for _, ok, _ in self._blocks(chunks))

    def hits(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point, source) index pairs within the radius, sorted by point
        and then by source."""
        keys = [np.empty(0, dtype=np.int64)]
        for lo, ok, pos in self._blocks([(px, py)]):
            p, c = np.nonzero(ok)
            src = c if pos is None else self.order[pos[p, c]]
            keys.append(np.sort((p + lo) * self.size + src))
        return np.divmod(np.concatenate(keys), max(self.size, 1))


def covered_count(
    seed: int,
    start: int,
    count: int,
    width: float,
    height: float,
    sources_x: np.ndarray,
    sources_y: np.ndarray,
    radius: float,
) -> int:
    """Number of samples in [start, start+count) that fall inside >=1 disc."""
    index = CellIndex(sources_x, sources_y, radius, width, height)
    return index.count(
        points_block(seed, lo, min(_CHUNK, start + count - lo), width, height)
        for lo in range(start, start + count, _CHUNK)
    )
