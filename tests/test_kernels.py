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
from hypothesis import example, given, settings, strategies as st

from wpsn_coverage import kernels
from wpsn_coverage.coverage import EventField
from wpsn_coverage.deployment import (
    Deployment,
    NodeField,
    Strategy,
    coverage_report,
    detect_interference,
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


def reference_membership(sources, nodes, radius):
    """Per node, the indices of the closed discs it lies in, in index order."""
    r_sq = radius * radius
    return [
        [j for j, (sx, sy) in enumerate(sources)
         if (x - sx) * (x - sx) + (y - sy) * (y - sy) <= r_sq]
        for x, y in nodes
    ]


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
    boundaries), coincident points and nodes at exactly r from a source."""
    width = draw(st.one_of(st.floats(1.0, 200.0), st.floats(1.0, 5.0)))  # narrow: 1-3 columns
    height = draw(st.floats(1.0, 200.0))
    radius = draw(st.one_of(
        st.floats(0.05, 60.0),
        st.just(1e-3),
        st.just(3.0 * max(width, height)),  # larger than the field
    ))

    def point():
        kind = draw(st.sampled_from(["random", "border", "cell"]))
        if kind == "random":
            return draw(st.floats(0.0, width)), draw(st.floats(0.0, height))
        if kind == "border":
            return (draw(st.sampled_from([0.0, width, draw(st.floats(0.0, width))])),
                    draw(st.sampled_from([0.0, height, draw(st.floats(0.0, height))])))
        step = radius * draw(st.sampled_from([1.0, 1.0 + 1e-6, 2.0]))
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

    assert kernels.covered_count(seed, 5, 3000, width, height, sx, sy, radius) == (
        reference_covered_count(seed, 5, 3000, width, height, sx, sy, radius)
    )

    node_field = NodeField(field, nodes, seed=0)
    report = coverage_report(dep, node_field)
    expected = reference_membership(dep.sources.tolist(), node_field.positions.tolist(), radius)
    counts = [len(feeds) for feeds in expected]
    assert report.indptr.tolist() == np.concatenate(([0], np.cumsum(counts))).tolist()
    assert report.indices.tolist() == [j for feeds in expected for j in feeds]

    assert list(detect_interference(dep, node_field).source_pairs) == (
        reference_pairs(dep.sources.tolist(), radius)
    )


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
    expected = reference_membership(dep.sources.tolist(), nodes, r)
    assert report.indices.tolist() == [j for feeds in expected for j in feeds]
    assert report.covered_count == len(nodes)


@pytest.mark.parametrize("radius", [1e-3, 2.0, 1e4])
def test_cell_count_grows_with_sources_not_radius(radius):
    rng = np.random.default_rng(0)
    sx, sy = rng.uniform(0.0, 200.0, size=(2, 500))
    index = kernels.CellIndex(sx, sy, radius, 200.0, 200.0)
    assert index.nx * index.ny <= 8 * 500 + 1


def test_memory_bounded_by_points_plus_candidates():
    """4,096 points against 2,000 sources: a brute-force nodes x S pass
    allocates ~250 MB of temporaries."""
    rng = np.random.default_rng(1)
    field = EventField(400.0, 400.0)
    dep = Deployment(field, rng.uniform(0.0, 400.0, size=(2000, 2)), 2.0, Strategy.EXPLICIT)
    nodes = NodeField(field, rng.uniform(0.0, 400.0, size=(4096, 2)), seed=0)
    sx, sy = dep.sources.T
    for run in (
        lambda: kernels.covered_count(9, 0, 4096, 400.0, 400.0, sx, sy, 2.0),
        lambda: coverage_report(dep, nodes),
    ):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestCounterGenerator:
    # one-value parametrization: keeps these tests' ids stable
    @pytest.fixture(params=[kernels.IMPL])
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

    def test_seeds_decorrelate(self, impl):
        a = impl.uniform_block(1, 0, 1000)
        b = impl.uniform_block(2, 0, 1000)
        assert not np.array_equal(a, b)

    def test_covered_count_split_additive(self, impl):
        sx = np.array([5.0])
        sy = np.array([5.0])
        total = impl.covered_count(11, 0, 50000, 10.0, 10.0, sx, sy, 4.0)
        split = impl.covered_count(11, 0, 20000, 10.0, 10.0, sx, sy, 4.0) + impl.covered_count(
            11, 20000, 30000, 10.0, 10.0, sx, sy, 4.0
        )
        assert total == split

    def test_covered_count_empty_sources(self, impl):
        assert impl.covered_count(0, 0, 100, 1.0, 1.0, np.array([]), np.array([]), 1.0) == 0
