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

`disc_index` first tries `CellClasses`, region classification at one
level (Samet, "The Design and Analysis of Spatial Data Structures",
1990): a grid of side r/16 to r/8 whose cells hold a code and a source
index. A cell is empty (no source within r(1 + 1e-9) of it), near one
source, covered by its one near source (all four corners within
r(1 - 1e-9) of it), or near two or more. A point in an empty or covered
cell is answered by one lookup, and one in a one-source cell by one
closed-disc test against that source; the same margins make the lookup
and that single test agree with a test against every source. Only points
in cells near two or more sources reach the cell index. The same map
answers Monte Carlo counts (`covered_count`) and per-node membership
(lowest covering source and number of covering discs). The grid is used
only where it has at most one cell per two points and at most 2048 cells
per axis, decided from the arguments before anything is allocated;
otherwise every point goes through the cell index.
"""

from __future__ import annotations

import math

import numpy as np

from .quantities import ValidationError, _integer

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

IMPL = "python"
HAVE_COMPILED = False  # read by the benchmark (bench/child.py), which records it

_CHUNK = 65536  # samples drawn per points_block call
_CANDIDATES = 1 << 18  # (point, source) tests per block: bounds the temporaries
_MAX_CELL_AXIS = 2048  # classification cells per axis: at most 2**22 cells in all
_FIELD_PER_RADIUS = 256  # a map needs r > max(width, height) / this: see CellClasses
_CELLS_PER_SAMPLE = 0.5  # map cells only where they are this few per point (sample or node)


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) doubles for counters start .. start+count-1."""
    seed = _integer(seed, "seed")  # 2.5 would otherwise draw seed 2's stream
    if not 0 <= seed < 1 << 64:  # one stream per seed: no two seeds alias modulo 2**64
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    # seed + (counter + 1) * golden, then the splitmix64 finalizer, all in
    # one buffer: every step wraps modulo 2**64 as the formula does
    z = np.arange(start, start + count, dtype=np.uint64)
    z += np.uint64(1)
    z *= _GOLDEN
    z += np.uint64(seed)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if mix is not None:
            z *= mix
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


def points_block(
    seed: int, start: int, count: int, width: float, height: float
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points over the rectangle for sample indices start .. start+count-1.

    Sample i consumes counters 2i and 2i+1 (x then y), so blocks partition
    cleanly by sample index.
    """
    u = uniform_block(seed, 2 * start, 2 * count)
    return u[0::2] * width, u[1::2] * height


def _in_disc(x, y, sx, sy, r_sq: float, d2=None, dy=None) -> np.ndarray:
    """dx*dx + dy*dy <= r*r elementwise, in place (in buffers d2 and dy if
    given): every disc answer comes from this one expression, bit for bit."""
    d2 = np.subtract(x, sx, out=d2)
    d2 *= d2
    dy = np.subtract(y, sy, out=dy)
    dy *= dy
    d2 += dy
    return d2 <= r_sq


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
        # the centres in index order; self.x, self.y below are the candidates
        self.sx = x = np.ascontiguousarray(sources_x, dtype=np.float64)
        self.sy = y = np.ascontiguousarray(sources_y, dtype=np.float64)
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
            self.order = np.append(self.order, n)  # above every index: no padded slot is a first
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

        The disc test reuses two buffers per chunk and a block's other
        temporaries live until the next chunk is drawn, so the allocator
        reuses their pages: freeing them made 1.5-2.5x the page faults.
        """
        width = 3 * self.run if self.pruned else self.size
        block = max(1, _CANDIDATES // max(width, 1))
        slots = np.arange(self.run)
        for px, py in chunks:
            d2, dy = np.empty((2, min(block, len(px)), width))
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
                yield lo, _in_disc(x, y, sx, sy, self.r_sq, d2[: len(x)], dy[: len(x)]), pos

    def count(self, chunks) -> int:
        """Number of points, over (x, y) chunks, within the radius of at
        least one source."""
        return sum(int(ok.any(axis=1).sum()) for _, ok, _ in self._blocks(chunks))

    def membership(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: the lowest index of a source within the radius (-1
        if none) and the number of such sources. Memory is bounded by the
        points and one block, whatever the discs over each point.

        Candidates come in cell order, and the three rows of cells are not
        sorted against each other, so the lowest index is the minimum over
        the hits, not the first hit."""
        first = np.full(len(px), -1, dtype=np.int64)
        fed = np.zeros(len(px), dtype=np.int64)
        if self.size == 0:
            return first, fed
        for lo, ok, pos in self._blocks([(px, py)]):
            rows = slice(lo, lo + len(ok))
            fed[rows] = np.count_nonzero(ok, axis=1)
            if pos is None:  # candidates in index order: the first hit is the lowest
                low = ok.argmax(axis=1)
            else:
                low = np.where(ok, self.order[pos], self.size).min(axis=1)
            first[rows] = np.where(fed[rows] > 0, low, -1)
        return first, fed

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Self-join over the indexed sources: the (i, j) index pairs with
        i < j within the radius, sorted by i and then by j."""
        keys = [np.empty(0, dtype=np.int64)]
        for lo, ok, pos in self._blocks([(self.sx, self.sy)]):
            i, c = np.nonzero(ok)
            j = c if pos is None else self.order[pos[i, c]]
            i += lo
            keys.append(np.sort((i * self.size + j)[i < j]))
        return np.divmod(np.concatenate(keys), max(self.size, 1))


# Codes of a CellClasses cell. Bit 0: some source is near the cell; bit 1:
# some source covers it; bit 2: two or more sources are near it.
EMPTY, ONE, COVERED, MANY, MANY_COVERED = 0, 1, 3, 5, 7


class CellClasses:
    """A grid of side r / per_radius over the field: each cell holds a
    code (empty, one near source, covered by its one near source, two or
    more near sources, with or without one covering the cell) and the
    index of its one near source. "Near" is within r(1 + 1e-9) of some
    point of the cell, "covered" is all four corners within r(1 - 1e-9);
    a disc is convex, so a cell whose four corners lie in it lies in it
    whole. A point in an empty cell lies in no disc and one in a covered
    cell in its source's disc alone. A point in a one-source cell takes
    the closed-disc test against that source alone, the same expression
    as `CellIndex`. Only points in cells near two or more sources go
    through the cell index, and for a count only those whose cell no
    source covers. So every answer is the brute-force one.

    `code` (uint8) and `sole` lie on the grid padded by per_radius + 1
    cells a side, and each class bit is ORed into `code` in place: one
    `code[keys] |= bit` writes one value to every copy of a repeated key.

    Why the margins absorb the rounding: `_cells_per_radius` allows no
    grid unless r > max(width, height) / _FIELD_PER_RADIUS (256), whatever
    the cells per radius or per axis. Rounding x * per_m to find a
    point's cell, c * side to place a corner, or the squared distances,
    moves a point, a corner or a distance by a few units of
    2**-53 max(width, height), under 1e-12 r. So a point looked up in a
    covered cell lies within r(1 - 1e-10) of its source, and one in an
    empty or one-source cell farther than r(1 + 1e-10) from every other
    source: there the float test dx*dx + dy*dy <= r*r, off by a few ulps
    of r*r, cannot disagree with the lookup. Points must lie in the field.
    """

    def __init__(self, sources_x, sources_y, radius: float, width: float, height: float,
                 per_radius: int):
        self.index = CellIndex(sources_x, sources_y, radius, width, height)
        self.x, self.y = x, y = self.index.sx, self.index.sy
        self.r_sq = self.index.r_sq
        self.per_m = per_m = per_radius / radius
        side = radius / per_radius
        nx, ny = int(width * per_m) + 1, int(height * per_m) + 1
        # cells within r(1 + 1e-9) of a source lie at most per_radius + 1
        # cells from its own along each axis, inside the padding: no bounds test
        self.reach = reach = per_radius + 1
        offsets = np.arange(-reach, reach + 1)
        self.stride = stride = nx + 2 * reach
        index_type = np.int32 if x.size < 2**31 else np.int64
        self.sole = sole = np.full((ny + 2 * reach) * stride, -1, dtype=index_type)
        self.code = code = np.zeros(sole.size, dtype=np.uint8)
        r_in, r_out = (radius * (1.0 - 1e-9)) ** 2, (radius * (1.0 + 1e-9)) ** 2
        block = max(1, _CANDIDATES // offsets.size**2)
        for lo in range(0, x.size, block):
            cx, far_x, near_x = self._spans(x[lo : lo + block], offsets, per_m, side)
            cy, far_y, near_y = self._spans(y[lo : lo + block], offsets, per_m, side)
            keys = (cy + reach)[:, :, None] * stride + (cx + reach)[:, None, :]
            code[keys[far_y[:, :, None] + far_x[:, None, :] <= r_in]] |= 2  # covered
            near = near_y[:, :, None] + near_x[:, None, :] <= r_out
            src = np.nonzero(near)[0] + lo
            keys = keys[near]
            # a cell is near two sources if an earlier block stamped it, or
            # if another source of this block wrote it last
            code[keys[sole[keys] >= 0]] |= 4  # near two or more
            sole[keys] = src
            code[keys[sole[keys] != src]] |= 4
        code |= sole >= 0  # every covered cell is near its coverer, so it has a sole source

    @staticmethod
    def _spans(v, offsets, per_m, side):
        """Along one axis, for each source coordinate in v: the cells
        around its own, and the squared largest and smallest distances
        from it to each cell's span."""
        cell = (v * per_m).astype(np.int64)[:, None] + offsets
        lo = cell * side - v[:, None]
        hi = lo + side
        near = np.maximum(np.maximum(lo, -hi), 0.0)
        return cell, np.maximum(lo * lo, hi * hi), near * near

    def _lookup(self, px, py):
        """Per point: its cell's code, and for points in one-source cells
        their indices into px and whether their sole source's disc holds
        them."""
        key = (py * self.per_m).astype(np.intp)
        key *= self.stride
        key += (px * self.per_m).astype(np.intp)
        key += self.reach * (self.stride + 1)  # the padding on both axes
        code = self.code[key]
        one = np.flatnonzero(code == ONE)
        src = self.sole[key[one]]
        return key, code, one, _in_disc(px[one], py[one], self.x[src], self.y[src], self.r_sq)

    def count(self, chunks) -> int:
        """Number of points, over (x, y) chunks, within the radius of at
        least one source."""
        inside = 0

        def many():
            nonlocal inside
            for px, py in chunks:
                _, code, _, hit = self._lookup(px, py)
                counts = np.bincount(code, minlength=8)
                inside += int(counts[COVERED] + counts[MANY_COVERED]) + int(np.count_nonzero(hit))
                on = code == MANY
                yield px[on], py[on]

        return self.index.count(many()) + inside

    def membership(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: the lowest index of a source within the radius (-1
        if none) and the number of such sources. Points go _CHUNK at a
        time, so only the two results are per-point arrays."""
        first = np.empty(len(px), dtype=np.int64)
        fed = np.empty(len(px), dtype=np.int64)
        for lo in range(0, len(px), _CHUNK):
            x, y = px[lo : lo + _CHUNK], py[lo : lo + _CHUNK]
            key, code, one, hit = self._lookup(x, y)
            low, count = first[lo : lo + _CHUNK], fed[lo : lo + _CHUNK]  # views into the results
            low[:] = self.sole[key]  # -1 in empty cells
            low[one[~hit]] = -1
            np.greater_equal(low, 0, out=count)
            many = np.flatnonzero(code >= MANY)
            low[many], count[many] = self.index.membership(x[many], y[many])
        return first, fed


def _cells_per_radius(count: int, width: float, height: float, radius: float) -> int | None:
    """Cells per radius, 16 down to 8, of the finest classification grid
    with at most count * _CELLS_PER_SAMPLE cells and _MAX_CELL_AXIS per
    axis; None, from scalars alone, where no such grid fits."""
    if not (radius * _FIELD_PER_RADIUS > max(width, height) and 2.0 * radius * radius < math.inf):
        return None  # the rounding bound of CellClasses, or overflowing squares; or r 0 or NaN
    for per_radius in range(16, 7, -1):
        nx = int(width * (per_radius / radius)) + 1
        ny = int(height * (per_radius / radius)) + 1
        if max(nx, ny) <= _MAX_CELL_AXIS and nx * ny <= count * _CELLS_PER_SAMPLE:
            return per_radius
    return None


def disc_index(count: int, width: float, height: float, sources_x, sources_y,
               radius: float) -> CellIndex | CellClasses:
    """The structure that answers disc queries for `count` points: a
    `CellClasses` where a fine grid fits that many, decided from scalars
    before anything is allocated, otherwise a `CellIndex`. Both give
    `count(chunks)` and `membership(px, py)`."""
    per_radius = _cells_per_radius(count, width, height, radius)
    if per_radius is None:
        return CellIndex(sources_x, sources_y, radius, width, height)
    return CellClasses(sources_x, sources_y, radius, width, height, per_radius)


def covered_count(
    seed: int, start: int, count: int, width: float, height: float,
    index: CellIndex | CellClasses,
) -> int:
    """Number of samples in [start, start+count) that fall inside >=1 disc
    of `index`, a `disc_index` of the sources built by the caller: once
    for all the spans into which a caller splits one call's samples."""
    return index.count(
        points_block(seed, lo, min(_CHUNK, start + count - lo), width, height)
        for lo in range(start, start + count, _CHUNK)
    )
