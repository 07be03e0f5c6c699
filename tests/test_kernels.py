"""Contract tests for the sampling kernels and the cell index.

Determinism of the counter-based generator is what makes worker
partitioning safe. The cell index only prunes candidates, so every disc
query must equal the brute-force reference below exactly, whatever the
field, the radius or the placement.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wpsn_coverage import kernels
from wpsn_coverage.coverage import EventField
from wpsn_coverage.deployment import (
    Deployment,
    NodeField,
    Strategy,
    coverage_report,
    detect_interference,
    place_sources,
)
from wpsn_coverage.quantities import ValidationError


# brute-force references ---------------------------------------------------


def reference_covered_count(seed, start, count, width, height, sources_x, sources_y, radius):
    """Every sample against every source, 65,536 samples at a time."""
    sx = np.ascontiguousarray(sources_x, dtype=np.float64)
    sy = np.ascontiguousarray(sources_y, dtype=np.float64)
    if sx.size == 0:
        return 0
    r_sq = radius * radius
    total = 0
    for lo in range(start, start + count, 65536):
        n = min(65536, start + count - lo)
        x, y = kernels.points_block(seed, lo, n, width, height)
        dx = x[:, None] - sx[None, :]
        dy = y[:, None] - sy[None, :]
        total += int((dx * dx + dy * dy <= r_sq).any(axis=1).sum())
    return total


def covered_count(seed, start, count, width, height, sources_x, sources_y, radius):
    """`kernels.covered_count` over a `disc_index` built for this count."""
    index = kernels.disc_index(count, width, height, sources_x, sources_y, radius)
    return kernels.covered_count(seed, start, count, width, height, index)


def reference_membership(sources, nodes, radius):
    """Per node, the indices of the closed discs it lies in, in index order."""
    r_sq = radius * radius
    return [
        [j for j, (sx, sy) in enumerate(sources)
         if (x - sx) * (x - sx) + (y - sy) * (y - sy) <= r_sq]
        for x, y in nodes
    ]


def reference_first_fed(sources, nodes, radius):
    """Per node, the lowest index of a closed disc it lies in (-1 if
    none), and the number of discs it lies in."""
    feeds = reference_membership(sources, nodes, radius)
    return [f[0] if f else -1 for f in feeds], [len(f) for f in feeds]


def reference_pairs(sources, radius):
    """Every source pair (i < j) closer than 2r, by math.hypot."""
    threshold = 2.0 * radius * (1.0 - 1e-12)
    pairs = []
    for i in range(len(sources)):
        xi, yi = sources[i]
        for j in range(i + 1, len(sources)):
            xj, yj = sources[j]
            d = math.hypot(xi - xj, yi - yj)
            if d < threshold:
                pairs.append((i, j, d))
    return pairs


# random fields, radii and placements ----------------------------------------


@st.composite
def placements(draw):
    """(width, height, radius, sources, nodes): sources and nodes mix random
    points with border points, points on multiples of the radius (cell
    boundaries), points on corners of the classification grids, coincident
    points and nodes at exactly r from a source."""
    width = draw(st.one_of(st.floats(1.0, 200.0), st.floats(1.0, 5.0)))  # narrow: 1-3 columns
    height = draw(st.floats(1.0, 200.0))
    radius = draw(st.one_of(
        st.floats(0.05, 60.0),
        st.just(1e-3),
        st.just(3.0 * max(width, height)),  # larger than the field
    ))

    def point():
        kind = draw(st.sampled_from(["random", "border", "cell", "corner"]))
        if kind == "random":
            return draw(st.floats(0.0, width)), draw(st.floats(0.0, height))
        if kind == "border":
            return (draw(st.sampled_from([0.0, width, draw(st.floats(0.0, width))])),
                    draw(st.sampled_from([0.0, height, draw(st.floats(0.0, height))])))
        if kind == "cell":
            step = radius * draw(st.sampled_from([1.0, 1.0 + 1e-6, 2.0]))
        else:  # a corner of the grid of side r / per_radius
            step = radius / draw(st.integers(2, 16))
        return (min(width, step * draw(st.integers(0, 40))),
                min(height, step * draw(st.integers(0, 40))))

    sources = []
    for _ in range(draw(st.integers(0, 60))):
        if sources and draw(st.booleans()):
            sources.append(draw(st.sampled_from(sources)))  # coincident
        else:
            sources.append(point())
    nodes = [point() for _ in range(draw(st.integers(0, 40)))]
    for x, y in sources[: draw(st.integers(0, len(sources)))]:
        nodes.append((x, y))
        if x + radius <= width:
            nodes.append((x + radius, y))  # exactly on the circle
    return width, height, radius, sources, nodes


@settings(max_examples=150, deadline=None)
@given(placements(), st.integers(0, 2**64 - 1))
@example((200.0, 200.0, 1e-3, [(200.0, 200.0), (0.0, 0.0), (0.0, 0.0)], [(200.0, 200.0)]), 3)
@example((10.0, 5.0, 30.0, [(10.0, 5.0), (5.0, 2.5), (5.0, 2.5)], [(0.0, 0.0)]), 1)
def test_disc_queries_equal_brute_force(case, seed):
    width, height, radius, sources, nodes = case
    field = EventField(width, height)
    dep = Deployment(field, sources, radius, Strategy.EXPLICIT)
    sx, sy = dep.sources.T

    assert covered_count(seed, 5, 3000, width, height, sx, sy, radius) == (
        reference_covered_count(seed, 5, 3000, width, height, sx, sy, radius)
    )

    node_field = NodeField(field, nodes, seed=0)
    report = coverage_report(dep, node_field)
    expected = reference_first_fed(dep.sources.tolist(), node_field.positions.tolist(), radius)
    assert (report.first_source.tolist(), report.fed_by.tolist()) == expected

    assert list(detect_interference(dep, node_field).source_pairs) == (
        reference_pairs(dep.sources.tolist(), radius)
    )


@pytest.mark.parametrize("low, high", [(1.0, 99.0), (45.0, 55.0)])
def test_close_sources_pair_once_in_order(low, high):
    """Four copies of each point of a lattice of spacing 3.8: two on it
    (coincident), one 0.7 above and one 0.7 below, far apart in index
    order. Every pair (i, j) within 2r comes once, with i < j, sorted by
    (i, j), and never as (i, i); the copy below has the higher index but
    often lies in a lower row of cells, so its candidates come first. The
    lattice over the whole field is pruned, the one in its centre is not."""
    grid = np.arange(low, high, 3.8).tolist()
    lattice = [(x, y) for x in grid for y in grid]
    copies = [[(x, y + dy) for x, y in lattice] for dy in (0.0, 0.7, 0.0, -0.7)]
    field = EventField(100.0, 100.0)
    dep = Deployment(field, [p for c in copies for p in c], 1.0, Strategy.EXPLICIT)
    sx, sy = dep.sources.T
    assert kernels.CellIndex(sx, sy, 2.0, 100.0, 100.0).pruned is (low == 1.0)
    pairs = list(detect_interference(dep, NodeField(field, [], seed=0)).source_pairs)
    assert all(i < j for i, j, _ in pairs) and pairs == sorted(pairs)
    assert len(pairs) == 6 * len(lattice)
    assert pairs == reference_pairs(dep.sources.tolist(), 1.0)


def test_index_prunes_only_where_it_can():
    """Three design-point sources share every neighbourhood, so each point
    tests all three directly; a dense lattice of small discs is pruned."""
    design = kernels.CellIndex([47.8, 143.4, 95.6], [47.8, 47.8, 130.6], 47.8, 200.0, 200.0)
    assert not design.pruned
    grid = np.arange(1.0, 400.0, 3.8)
    lx, ly = (a.ravel() for a in np.meshgrid(grid, grid))
    lattice = kernels.CellIndex(lx, ly, 2.0, 400.0, 400.0)
    assert lattice.pruned
    assert 3 * lattice.run < 20


def test_sources_just_below_cell_boundaries():
    """Nodes just inside r of sources that sit a hair below a cell
    boundary: their discs reach over the whole next cell."""
    r, side = 1.0, kernels.CellIndex(np.zeros(90), np.zeros(90), 1.0, 10.0, 10.0).side
    sources = [(np.nextafter(k * side, 0.0), j + 0.5) for k in range(1, 10) for j in range(10)]
    nodes = [(x + r * (1.0 - 1e-9), y) for x, y in sources if x + r < 10.0]
    field = EventField(10.0, 10.0)
    dep = Deployment(field, sources, r, Strategy.EXPLICIT)
    assert kernels.CellIndex(*dep.sources.T, r, 10.0, 10.0).pruned
    report = coverage_report(dep, NodeField(field, nodes, seed=0))
    expected = reference_first_fed(dep.sources.tolist(), nodes, r)
    assert (report.first_source.tolist(), report.fed_by.tolist()) == expected
    assert report.covered_count == len(nodes)


@pytest.mark.parametrize("radius", [1e-3, 2.0, 1e4])
def test_cell_count_grows_with_sources_not_radius(radius):
    rng = np.random.default_rng(0)
    sx, sy = rng.uniform(0.0, 200.0, size=(2, 500))
    index = kernels.CellIndex(sx, sy, radius, 200.0, 200.0)
    assert index.nx * index.ny <= 8 * 500 + 1


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_bounded_by_points_plus_candidates():
    """4,096 points against 2,000 sources: a brute-force nodes x S pass
    allocates ~250 MB of temporaries."""
    rng = np.random.default_rng(1)
    field = EventField(400.0, 400.0)
    dep = Deployment(field, rng.uniform(0.0, 400.0, size=(2000, 2)), 2.0, Strategy.EXPLICIT)
    nodes = NodeField(field, rng.uniform(0.0, 400.0, size=(4096, 2)), seed=0)
    sx, sy = dep.sources.T
    for run in (
        lambda: covered_count(9, 0, 4096, 400.0, 400.0, sx, sy, 2.0),
        lambda: coverage_report(dep, nodes),
    ):
        assert _traced_peak(run) < 32 * 2**20


def test_classified_memory_bounded_on_many_nodes_geometry():
    """10^6 samples over 429 hex-grid discs classify ~410,000 cells."""
    dep = place_sources(EventField(400.0, 400.0), 10.0, Strategy.HEX_GRID)
    assert len(dep.sources) == 429
    sx, sy = dep.sources.T
    assert kernels._cells_per_radius(10**6, 400.0, 400.0, 10.0) == 16
    assert _traced_peak(
        lambda: covered_count(3, 0, 10**6, 400.0, 400.0, sx, sy, 10.0)
    ) < 32 * 2**20


def test_cell_map_holds_two_cell_arrays():
    """4,004,001 cells (r = 1.6 m on a 400 m field, 8 per radius): the
    padded int32 `sole`, the uint8 `code` and one bool temporary peak at
    ~25 MiB; a third bool array or copies out of the padding exceed 32."""
    sx, sy = np.random.default_rng(5).uniform(0.0, 400.0, size=(2, 400))
    assert kernels._cells_per_radius(10**7, 400.0, 400.0, 1.6) == 8
    assert _traced_peak(lambda: kernels.CellClasses(sx, sy, 1.6, 400.0, 400.0, 8)) < 32 * 2**20


@pytest.mark.parametrize("radius", [1.5, 0.0, math.nan])
def test_rounding_bound_holds_whatever_the_axis_cap(monkeypatch, radius):
    """The map's rounding argument needs r > max(width, height) / 256 (1.5625
    m here), whatever the cells per axis; a zero or NaN radius gets no map."""
    monkeypatch.setattr(kernels, "_MAX_CELL_AXIS", 10**6)
    assert kernels._cells_per_radius(10**8, 400.0, 400.0, radius) is None
    assert kernels._cells_per_radius(10**8, 400.0, 400.0, 1.6) == 16


@pytest.mark.filterwarnings("ignore:overflow encountered")  # the index squares to inf
@pytest.mark.parametrize("side", [1e155, 1e307, 1e308])
def test_no_map_where_squared_distances_overflow(side):
    """One source of range `side` on a side x side field: the map would
    square distances past the largest float (a Python float ** 2 raises
    OverflowError), so the cell index answers, as the brute force does."""
    assert kernels._cells_per_radius(1000, side, side, side) is None
    expected = reference_covered_count(1, 0, 1000, side, side, [1.0], [1.0], side)
    assert covered_count(1, 0, 1000, side, side, [1.0], [1.0], side) == expected


def test_membership_memory_bounded_by_nodes_not_depth():
    """10^5 nodes under 160 coincident discs: a list of (node, disc)
    pairs would hold 1.6 * 10^7 entries (a 488 MiB peak as sparse rows)."""
    field = EventField(100.0, 100.0)
    dep = Deployment(field, [(50.0, 50.0)] * 160, 100.0, Strategy.EXPLICIT)
    nodes = NodeField(field, np.random.default_rng(3).uniform(0.0, 100.0, (10**5, 2)), seed=0)
    assert kernels._cells_per_radius(10**5, 100.0, 100.0, 100.0) is not None
    reports = []
    assert _traced_peak(lambda: reports.append(coverage_report(dep, nodes))) < 32 * 2**20
    assert reports[0].fed_by.tolist() == [160] * 10**5
    assert reports[0].first_source.tolist() == [0] * 10**5


def test_classified_membership_holds_only_its_results_per_node():
    """5 * 10^5 nodes over the 429 hex-grid discs of the many_nodes
    geometry: the two int64 results take 7.6 MiB. Taking every node at
    once held per-node cell keys, codes and scaled coordinates beside
    them, a 16 MiB peak; a chunk at a time holds ~2 MiB more."""
    dep = place_sources(EventField(400.0, 400.0), 10.0, Strategy.HEX_GRID)
    cells = kernels.CellClasses(*dep.sources.T, 10.0, 400.0, 400.0, 16)
    px, py = np.random.default_rng(4).uniform(0.0, 400.0, size=(2, 5 * 10**5))
    results = []
    assert _traced_peak(lambda: results.append(cells.membership(px, py))) < 11 * 2**20
    first, fed = results[0]
    assert first.dtype == fed.dtype == np.int64
    assert np.count_nonzero(fed) == np.count_nonzero(first >= 0) > 0


@pytest.mark.parametrize("samples, radius", [(10**6, 1e-3), (4096, 2.0)])
def test_fallback_allocates_no_cells(monkeypatch, samples, radius):
    """r = 1e-3 would need ~10^13 cells on a 400 m field, and 4,096
    samples against r = 2 m (the many_sources geometry) ~2.6 * 10^6: both
    decide from scalars to skip the classification."""
    rng = np.random.default_rng(2)
    sx, sy = rng.uniform(0.0, 400.0, size=(2, 2000))
    assert kernels._cells_per_radius(samples, 400.0, 400.0, radius) is None

    def refuse(*args):
        raise AssertionError("classified")

    monkeypatch.setattr(kernels, "CellClasses", refuse)
    assert _traced_peak(
        lambda: covered_count(4, 0, samples, 400.0, 400.0, sx, sy, radius)
    ) < 32 * 2**20


# the classified path --------------------------------------------------------


def _per_point(counter, px, py):
    return [counter.count([(px[i : i + 1], py[i : i + 1])]) for i in range(len(px))]


@settings(max_examples=150, deadline=None)
@given(placements(), st.integers(0, 2**64 - 1))
def test_classified_count_equals_brute_force(case, seed):
    """With the cells-per-sample threshold lifted, every placement whose
    radius allows a grid takes the classified path; the rest fall back."""
    width, height, radius, sources, nodes = case
    dep = Deployment(EventField(width, height), sources, radius, Strategy.EXPLICIT)
    sx, sy = dep.sources.T
    expected = reference_covered_count(seed, 5, 3000, width, height, sx, sy, radius)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_CELLS_PER_SAMPLE", math.inf)
        assert covered_count(seed, 5, 3000, width, height, sx, sy, radius) == expected
        per_radius = kernels._cells_per_radius(3000, width, height, radius)
    if per_radius is not None and nodes:
        classes = kernels.CellClasses(sx, sy, radius, width, height, per_radius)
        px, py = np.array(nodes, dtype=np.float64).T
        membership = reference_membership(dep.sources.tolist(), nodes, radius)
        assert _per_point(classes, px, py) == [int(bool(feeds)) for feeds in membership]


@settings(max_examples=150, deadline=None)
@given(placements(), st.sampled_from([kernels._CANDIDATES, 4096]))
@example((100.0, 100.0, 10.0, [(50.0, 50.0)] * 5 + [(60.0, 50.0)],
          [(50.0, 50.0), (60.0, 50.0), (70.0, 50.0), (40.0, 50.0), (55.0, 50.0), (0.0, 0.0)]),
         4096)
@example((100.0, 100.0, 10.0, [(20.0, 20.0), (25.0, 20.0), (80.0, 80.0)],
          [(20.0 + k * 10.0 / 16, 20.0 + j * 10.0 / 16) for k in range(-17, 18, 3)
           for j in range(-17, 18, 4)]), kernels._CANDIDATES)
def test_membership_equals_brute_force_on_grid_and_fallback(case, candidates):
    """Per node, the lowest covering source and the number of covering
    discs, from the cell map where a grid of at most ~10^5 cells fits the
    radius, from the cell index alone, and through coverage_report. A
    small candidate bound stamps 3 to 11 sources per block, so that two
    discs near one cell meet both within a block and across blocks."""
    width, height, radius, sources, nodes = case
    field = EventField(width, height)
    dep = Deployment(field, sources, radius, Strategy.EXPLICIT)
    node_field = NodeField(field, nodes, seed=0)
    expected = reference_first_fed(dep.sources.tolist(), node_field.positions.tolist(), radius)
    sx, sy = dep.sources.T
    px, py = node_field.positions.T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_CANDIDATES", candidates)
        patch.setattr(kernels, "_CHUNK", 7)  # the map takes nodes a chunk at a time
        first, fed = kernels.CellIndex(sx, sy, radius, width, height).membership(px, py)
        assert (first.tolist(), fed.tolist()) == expected
        per_radius = kernels._cells_per_radius(2 * 10**5, width, height, radius)
        if per_radius is not None:
            cells = kernels.CellClasses(sx, sy, radius, width, height, per_radius)
            first, fed = cells.membership(px, py)
            assert (first.tolist(), fed.tolist()) == expected
        report = coverage_report(dep, node_field)
        assert (report.first_source.tolist(), report.fed_by.tolist()) == expected


@settings(max_examples=100, deadline=None)
@given(placements())
def test_cell_map_equals_brute_force_at_every_grid_size(case):
    """Every grid from 2 to 16 cells per radius that the rounding bound
    allows, not only the one `_cells_per_radius` picks: the count over
    two chunks and the membership equal the brute-force ones."""
    width, height, radius, sources, nodes = case
    assume(radius * kernels._FIELD_PER_RADIUS > max(width, height))
    dep = Deployment(EventField(width, height), sources, radius, Strategy.EXPLICIT)
    sx, sy = dep.sources.T
    px, py = np.array(nodes, dtype=np.float64).reshape(-1, 2).T
    expected = reference_first_fed(dep.sources.tolist(), nodes, radius)
    inside = sum(first >= 0 for first in expected[0])
    half = len(nodes) // 2
    for per_radius in range(2, 17):
        cells = kernels.CellClasses(sx, sy, radius, width, height, per_radius)
        assert cells.count([(px[:half], py[:half]), (px[half:], py[half:])]) == inside, per_radius
        first, fed = cells.membership(px, py)
        assert (first.tolist(), fed.tolist()) == expected, per_radius


@pytest.mark.parametrize("radius", [5.0, 47.8])
@pytest.mark.parametrize("per_radius", [16, 11, 8])
def test_classified_count_on_cell_corners_and_circles(radius, per_radius):
    """Sources on fine-cell corners; points on every cell corner and edge
    midpoint around them, and at r and r(1 +- 1e-9) from each source in
    eight directions. Each point's count equals the brute-force test,
    whatever class its cell has."""
    side = radius / per_radius
    width, height = 6 * radius, 4 * radius
    corners = [(per_radius, per_radius), (3 * per_radius + 5, 2 * per_radius + 3),
               (4 * per_radius, per_radius + 1), (0, 0)]
    sources = [(i * side, j * side) for i, j in corners]
    steps = np.arange(-per_radius - 2, per_radius + 3)
    points = []
    for i, j in corners[:2]:
        for a in steps:
            for b in steps:
                points.append(((i + a) * side, (j + b) * side))  # corner
                points.append(((i + a + 0.5) * side, (j + b) * side))  # edge midpoints
                points.append(((i + a) * side, (j + b + 0.5) * side))
    directions = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8),
                  (-0.8, 0.6), (math.sqrt(0.5), math.sqrt(0.5)), (-0.28, -0.96)]
    for x, y in sources:
        for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            points += [(x + radius * scale * u, y + radius * scale * v) for u, v in directions]
    points = [(x, y) for x, y in points if 0.0 <= x <= width and 0.0 <= y <= height]
    px, py = np.array(points).T
    sx, sy = np.array(sources).T

    counter = kernels.CellClasses(sx, sy, radius, width, height, per_radius)
    expected = [int(bool(feeds)) for feeds in reference_membership(sources, points, radius)]
    assert _per_point(counter, px, py) == expected
    assert counter.count([(px[:100], py[:100]), (px[100:], py[100:])]) == sum(expected)
    first, fed = counter.membership(px, py)
    assert (first.tolist(), fed.tolist()) == reference_first_fed(sources, points, radius)
    _, code, _, _ = counter._lookup(px, py)
    assert set(code.tolist()) == {
        kernels.EMPTY, kernels.ONE, kernels.COVERED, kernels.MANY, kernels.MANY_COVERED
    }


class TestCounterGenerator:
    # one-value parametrization: keeps these tests' ids stable
    @pytest.fixture(params=["python"])
    def impl(self, request):
        return kernels

    def test_block_splitting_is_seamless(self, impl):
        whole = impl.uniform_block(5, 0, 1000)
        parts = np.concatenate(
            [impl.uniform_block(5, 0, 400), impl.uniform_block(5, 400, 600)]
        )
        assert np.array_equal(whole, parts)

    def test_points_partition_by_sample_index(self, impl):
        x_all, y_all = impl.points_block(99, 0, 500, 10.0, 10.0)
        x_tail, y_tail = impl.points_block(99, 250, 250, 10.0, 10.0)
        assert np.array_equal(x_all[250:], x_tail)
        assert np.array_equal(y_all[250:], y_tail)

    def test_values_in_unit_interval(self, impl):
        u = impl.uniform_block(1, 0, 100000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_mean_near_half(self, impl):
        u = impl.uniform_block(3, 0, 10**6)
        assert abs(u.mean() - 0.5) < 0.002

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, impl, seed):
        # a mask would make -1 and 2**64 - 1, or 1 and 2**64 + 1, one stream
        assert impl.uniform_block(2**64 - 1, 0, 4).shape == (4,)
        with pytest.raises(ValidationError, match="seed"):
            impl.uniform_block(seed, 0, 4)

    @pytest.mark.parametrize("seed", [2.5, 2.9, 2.0, "2", None])
    def test_seed_not_an_integer_rejected(self, impl, seed):
        # int(2.5) would draw seed 2's stream
        with pytest.raises(ValidationError, match="seed must be an integer"):
            impl.uniform_block(seed, 0, 4)
        assert np.array_equal(impl.uniform_block(np.uint64(2), 0, 4), impl.uniform_block(2, 0, 4))

    def test_seeds_decorrelate(self, impl):
        a = impl.uniform_block(1, 0, 1000)
        b = impl.uniform_block(2, 0, 1000)
        assert not np.array_equal(a, b)

    def test_covered_count_split_additive(self, impl):
        sx = np.array([5.0])
        sy = np.array([5.0])
        index = impl.disc_index(50000, 10.0, 10.0, sx, sy, 4.0)
        total = impl.covered_count(11, 0, 50000, 10.0, 10.0, index)
        split = impl.covered_count(11, 0, 20000, 10.0, 10.0, index) + impl.covered_count(
            11, 20000, 30000, 10.0, 10.0, index
        )
        assert total == split

    def test_covered_count_empty_sources(self, impl):
        index = impl.disc_index(100, 1.0, 1.0, np.array([]), np.array([]), 1.0)
        assert impl.covered_count(0, 0, 100, 1.0, 1.0, index) == 0
