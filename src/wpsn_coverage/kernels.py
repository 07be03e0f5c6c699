"""Sampling kernels and the cell index behind every disc query.

The generator is counter-based (splitmix64 finalizer over seed +
counter), so any contiguous block of sample indices can be evaluated
independently, into any buffer, and merged without changing the result
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
Monte Carlo and node scattering draw _CHUNK samples per `points_block`
call into one `Workspace` (counters, shifts, x and y for one chunk), and
the map's lookups and the index's walk reuse their buffers the same way,
so no chunk after the first allocates or faults in fresh pages.

`CellIndex` sorts source centres by square cell under one offsets table
(cell lists: Bentley, Stanat & Williams, "The complexity of finding
fixed-radius near neighbors", IPL 1977; Teschner et al., "Optimized
Spatial Hashing for Collision Detection of Deformable Objects", VMV
2003). A query walks its points' three runs of candidates one slot at a
time, with the same closed-disc test `dx*dx + dy*dy <= r*r` as a test
against every source: the index only prunes, so every answer is
bit-identical to the brute-force one.

`disc_index` first tries `CellClasses`, region classification at one
level (Samet, "The Design and Analysis of Spatial Data Structures",
1990): a grid of side r/16 to r/8 whose cells are empty, near one
source, covered by that source, or near two or more, with margins that
make one lookup, or one closed-disc test against the one near source,
agree with a test against every source. Only points in cells near two
or more sources reach the cell index. The same map answers Monte Carlo
counts (`covered_count`) and per-node membership (lowest covering source
and number of covering discs). The grid is used only where it has at
most one cell per two points and at most 2048 cells per axis, decided
from the arguments before anything is allocated; otherwise every point
goes through the cell index.
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

_CHUNK = 65536  # samples per points_block call of the Monte Carlo and scatter paths
_CANDIDATES = 1 << 18  # (source, cell) tests per CellClasses stamp block: bounds its temporaries
_MAX_CELL_AXIS = 2048  # classification cells per axis: at most 2**22 cells in all
_FIELD_PER_RADIUS = 256  # a map needs r > max(width, height) / this: see CellClasses
_CELLS_PER_SAMPLE = 0.5  # map cells only where they are this few per point (sample or node)
_EVEN = np.arange(0, 2 * _CHUNK, 2, dtype=np.uint64)  # 2i: the counter ramp every chunk reads
_EVEN.flags.writeable = False


def _seed(seed) -> int:
    seed = _integer(seed, "seed")  # 2.5 would otherwise draw seed 2's stream
    if not 0 <= seed < 1 << 64:  # one stream per seed: no two seeds alias modulo 2**64
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _splitmix(z: np.ndarray, seed: int, shifted: np.ndarray) -> None:
    """In place, counter + 1 in z becomes the top 53 bits of the splitmix64
    finalizer of seed + (counter + 1) * golden: every step wraps modulo
    2**64 as the formula does. `shifted` is scratch of z's length."""
    z *= _GOLDEN
    z += np.uint64(seed)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if mix is not None:
            z *= mix
    z >>= np.uint64(11)


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) doubles for counters start .. start+count-1."""
    seed = _seed(seed)
    z = np.arange(start, start + count, dtype=np.uint64)
    z += np.uint64(1)
    _splitmix(z, seed, np.empty_like(z))
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


class Workspace:
    """Buffers for `points_block` calls of up to `count` samples: x and y
    for `count` points, and counters and shifts for one chunk of them.
    A workspace of min(_CHUNK, count) samples draws any number of samples
    a chunk per call with no allocation; each call overwrites the x and y
    that the last one returned."""

    def __init__(self, count: int):
        self.x = np.empty(count)
        self.y = np.empty(count)
        self.z, self.shifted = np.empty((2, min(_CHUNK, count)), dtype=np.uint64)


def points_block(
    seed: int, start: int, count: int, width: float, height: float,
    *, workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points over the rectangle for sample indices start .. start+count-1.

    Sample i takes x from counter 2i and y from counter 2i+1, so blocks
    partition cleanly by sample index; each coordinate is
    (z >> 11) * 2**-53, then * width (or * height), as from `uniform_block`.
    The points are written into `workspace`, which must hold `count`, and
    returned as views of it; without one, into a fresh one.
    """
    seed = _seed(seed)
    if workspace is None:
        workspace = Workspace(count)
    x, y = workspace.x[:count], workspace.y[:count]
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        z, shifted = workspace.z[:n], workspace.shifted[:n]
        for coords, odd, scale in ((x, 0, width), (y, 1, height)):
            # counter + 1 for counters 2i + odd of samples start + lo ..
            np.add(_EVEN[:n], np.uint64(2 * (start + lo) + odd + 1), out=z)
            _splitmix(z, seed, shifted)
            out = coords[lo : lo + n]
            np.multiply(z, _INV_2_53, out=out)  # z < 2**53 converts exactly
            out *= scale
    return x, y


def _in_disc(x, y, sx, sy, r_sq: float, d2=None, dy=None, ok=None) -> np.ndarray:
    """dx*dx + dy*dy <= r*r elementwise, in place (in buffers d2, dy and ok
    if given; d2 and dy may be sx and sy): every disc answer comes from
    this one expression, bit for bit."""
    d2 = np.subtract(x, sx, out=d2)
    d2 *= d2
    dy = np.subtract(y, sy, out=dy)
    dy *= dy
    d2 += dy
    return np.less_equal(d2, r_sq, out=ok)


class CellIndex:
    """Sources in square cells, sorted by cell key, with one offsets table.

    Answers "which sources lie within `radius` of each point" for one
    radius. Cells are wider than `radius`, so a point's candidates are the
    sources in the 3 x 3 cells around its own. The grid is padded by one
    empty cell on each side, so for each cell k the cells k - 1 .. k + 1
    of its row hold the sorted sources offsets[k - 1] : offsets[k + 2],
    with no bounds test; `run` is the longest such run. A query walks
    3 * run slots, slot s of a row testing the s-th source of each point's
    run there (False past its end), on chunk-length vectors in buffers
    that every slot and chunk reuses. Where 3 * run is no smaller than the
    source count the index cannot prune (`pruned` is False), and every
    point walks all the sources.
    """

    def __init__(self, sources_x, sources_y, radius: float, width: float, height: float):
        # the centres in index order; self.x, self.y below are sorted by cell
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
        self.stride = self.nx + 2
        key = self._keys(x, y, np.empty(n, np.int64), np.empty(n))
        self.order = np.argsort(key, kind="stable")
        self.offsets = offsets = np.zeros((self.ny + 2) * self.stride + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=offsets.size - 1), out=offsets[1:])
        self.run = int((offsets[3:] - offsets[:-3]).max())  # padding adds no longer window
        self.pruned = 3 * self.run < n
        self.x, self.y = x[self.order], y[self.order]

    def _keys(self, x, y, key, cell):
        """Each point's padded cell key, (cy + 1) * stride + cx + 1, written
        into `key`, with `cell` as float scratch."""
        key.fill(self.stride + 1)
        for v, cells, scale in ((y, self.ny, self.stride), (x, self.nx, 1)):
            np.clip(np.floor(np.divide(v, self.side, out=cell), out=cell), 0, cells - 1, out=cell)
            cell *= scale  # whole numbers: exact, and exact when cast
            np.add(key, cell, out=key, casting="unsafe")
        return key

    @staticmethod
    def _buffers(count: int):
        """Int, float and bool buffers for walks of up to `count` points."""
        return np.empty((5, count), np.int64), np.empty((2, count)), np.empty((3, count), bool)

    def _walk(self, x, y, buffers):
        """Yield (pos, ok) per slot: each point's candidate as a position
        in the sorted sources, and whether it lies within the radius. Both
        are views of `buffers`, which the next slot overwrites."""
        (key, lo, hi, pos, _), (d2, dy), (ok, inside, _) = (b[:, : len(x)] for b in buffers)
        if not self.pruned:  # every source in turn, the same one for every point
            for s in range(self.size):
                pos.fill(s)
                yield pos, _in_disc(x, y, self.x[s], self.y[s], self.r_sq, d2, dy, ok)
            return
        self._keys(x, y, key, d2)
        for row in (-self.stride, 0, self.stride):  # in range by the padding: "clip" skips a copy
            np.take(self.offsets, np.add(key, row - 1, out=pos), out=lo, mode="clip")
            np.take(self.offsets, np.add(key, row + 2, out=pos), out=hi, mode="clip")
            for s in range(self.run):
                np.add(lo, s, out=pos)
                np.less(pos, hi, out=inside)  # past its run a slot reads some other source
                np.take(self.x, pos, out=d2, mode="clip")
                np.take(self.y, pos, out=dy, mode="clip")
                _in_disc(x, y, d2, dy, self.r_sq, d2, dy, ok)
                ok &= inside
                yield pos, ok

    def count(self, chunks) -> int:
        """Number of points, over (x, y) chunks, within the radius of at
        least one source, in buffers sized by the largest chunk so far."""
        inside = 0
        buffers = self._buffers(0)
        for px, py in chunks:
            if len(px) > buffers[0].shape[1]:
                buffers = self._buffers(len(px))
            hit = buffers[2][2, : len(px)]
            hit.fill(False)
            for _, ok in self._walk(px, py, buffers):
                hit |= ok
            inside += int(np.count_nonzero(hit))
        return inside

    def membership(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: the lowest index of a source within the radius (-1
        if none) and the number of such sources, _CHUNK points at a time.
        Candidates come in cell order, so the lowest index is a running
        minimum over the hits, not the first hit."""
        first = np.full(len(px), self.size, dtype=np.int64)
        fed = np.zeros(len(px), dtype=np.int64)
        buffers = self._buffers(min(_CHUNK, len(px)))
        for lo in range(0, len(px), _CHUNK):
            low, count = first[lo : lo + _CHUNK], fed[lo : lo + _CHUNK]  # views into the results
            source = buffers[0][4, : len(low)]
            for pos, ok in self._walk(px[lo : lo + _CHUNK], py[lo : lo + _CHUNK], buffers):
                count += ok
                np.take(self.order, pos, out=source, mode="clip")  # read where ok only
                np.minimum(low, source, out=low, where=ok)
        first[fed == 0] = -1
        return first, fed

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Self-join over the indexed sources: the (i, j) index pairs with
        i < j within the radius, sorted by i and then by j."""
        keys = [np.empty(0, dtype=np.int64)]
        buffers = self._buffers(min(_CHUNK, self.size))
        for lo in range(0, self.size, _CHUNK):
            x, y = self.sx[lo : lo + _CHUNK], self.sy[lo : lo + _CHUNK]
            for pos, ok in self._walk(x, y, buffers):
                i = np.flatnonzero(ok)
                j = self.order[pos[i]]
                i += lo
                keys.append((i * self.size + j)[i < j])
        return np.divmod(np.sort(np.concatenate(keys)), max(self.size, 1))


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

    @staticmethod
    def _buffers(count: int):
        """Cell keys, x cells and codes for `_lookup`s of up to `count` points."""
        return np.empty(count, np.intp), np.empty(count, np.intp), np.empty(count, np.uint8)

    def _lookup(self, px, py, buffers=None):
        """Per point: its cell's code, and for points in one-source cells
        their indices into px and whether their sole source's disc holds
        them. Keys and codes are written into `buffers` (fresh ones if
        None) and returned as views of them."""
        if buffers is None:
            buffers = self._buffers(len(px))
        key, column, code = (b[: len(px)] for b in buffers)
        # each product truncated to an integer cell, as .astype(np.intp) does
        np.multiply(py, self.per_m, out=key, casting="unsafe")
        key *= self.stride
        np.multiply(px, self.per_m, out=column, casting="unsafe")
        key += column
        key += self.reach * (self.stride + 1)  # the padding on both axes
        np.take(self.code, key, out=code)
        one = np.flatnonzero(code == ONE)
        src = self.sole[key[one]]
        return key, code, one, _in_disc(px[one], py[one], self.x[src], self.y[src], self.r_sq)

    def count(self, chunks) -> int:
        """Number of points, over (x, y) chunks, within the radius of at
        least one source. The lookup reuses one set of buffers, sized by
        the largest chunk so far."""
        inside = 0
        buffers = self._buffers(0)

        def many():
            nonlocal inside, buffers
            for px, py in chunks:
                if len(px) > len(buffers[0]):
                    buffers = self._buffers(len(px))
                _, code, _, hit = self._lookup(px, py, buffers)
                covered = np.count_nonzero(code & 2)  # bit 1: COVERED and MANY_COVERED
                inside += int(covered) + int(np.count_nonzero(hit))
                on = code == MANY
                yield px[on], py[on]

        return self.index.count(many()) + inside

    def membership(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: the lowest index of a source within the radius (-1
        if none) and the number of such sources. Points go _CHUNK at a
        time, so only the two results are per-point arrays."""
        first = np.empty(len(px), dtype=np.int64)
        fed = np.empty(len(px), dtype=np.int64)
        buffers = self._buffers(min(_CHUNK, len(px)))
        for lo in range(0, len(px), _CHUNK):
            x, y = px[lo : lo + _CHUNK], py[lo : lo + _CHUNK]
            key, code, one, hit = self._lookup(x, y, buffers)
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
    for all the spans into which a caller splits one call's samples.
    Every chunk is drawn into one workspace, consumed before the next."""
    workspace = Workspace(min(_CHUNK, count))
    return index.count(
        points_block(seed, lo, min(_CHUNK, start + count - lo), width, height,
                     workspace=workspace)
        for lo in range(start, start + count, _CHUNK)
    )
