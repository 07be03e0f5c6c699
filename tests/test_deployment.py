import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wpsn_coverage import deployment, kernels
from wpsn_coverage.coverage import EventField, source_count_from_range
from wpsn_coverage.deployment import (
    Deployment,
    NodeField,
    Strategy,
    coverage_report,
    detect_interference,
    monte_carlo_coverage,
    place_sources,
    scatter_nodes,
)
from wpsn_coverage.quantities import ValidationError

SRC = Path(__file__).resolve().parents[1] / "src"


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def pairwise_min_distance(sources):
    return min(
        math.dist(a, b)
        for i, a in enumerate(sources)
        for b in sources[i + 1 :]
    )


def reference_grid(field, r, strategy):
    """The grid positions as the placement loops appended them, one
    (x, y) pair at a time: the reference for the array placement."""
    positions = []
    if strategy is Strategy.SQUARE_GRID:
        for j in range(int(field.height // (2.0 * r))):
            for i in range(int(field.width // (2.0 * r))):
                positions.append(((2 * i + 1) * r, (2 * j + 1) * r))
    else:
        pitch = r * math.sqrt(3.0) * (1.0 + 1e-9)
        j = 0
        y = r
        while y <= field.height - r + 1e-12:
            x = r + (r if j % 2 else 0.0)
            while x <= field.width - r + 1e-12:
                positions.append((x, y))
                x += 2.0 * r
            j += 1
            y = r + j * pitch
    return np.array(positions, dtype=np.float64).reshape(-1, 2)


@st.composite
def grid_geometries(draw):
    """(width, height, r, strategy) of at most ~2.5 * 10^4 positions on
    fields up to 10^6 m a side: fields the grid tiles exactly (W = 2r k,
    H = 2r + k pitch or 2r k), those an ulp either side, and any others."""
    strategy = draw(st.sampled_from([Strategy.SQUARE_GRID, Strategy.HEX_GRID]))
    kx, ky = draw(st.integers(1, 400)), draw(st.integers(0, 50))
    r = draw(st.floats(min_value=1e-3, max_value=min(5e5 / (kx + 1), 1e6 / (2.0 * ky + 3.0))))
    pitch = r * math.sqrt(3.0) * (1.0 + 1e-9)

    def side(tiled, k):
        exact = draw(st.sampled_from(tiled))
        value = draw(st.one_of(
            st.just(exact),
            st.sampled_from([np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)]),
            st.floats(min_value=2.0 * r, max_value=2.0 * r * (k + 1)),
        ))
        return max(float(value), 2.0 * r)

    width = side([2.0 * r * kx], kx)
    height = side([2.0 * r + ky * pitch, 2.0 * r * (ky + 1)], ky)
    return width, height, r, strategy


class TestPlaceSources:
    def test_square_grid_100m_field(self):
        dep = place_sources(EventField(100.0, 100.0), 13.49, Strategy.SQUARE_GRID)
        assert len(dep.sources) == 9  # floor(100/26.98) = 3 per axis

    def test_single_disc_field(self):
        r = 5.0
        dep = place_sources(EventField(2 * r, 2 * r), r, Strategy.SQUARE_GRID)
        assert np.array_equal(dep.sources, [(r, r)])

    def test_hex_beats_square_on_large_field(self):
        field = EventField(1000.0, 1000.0)
        square = place_sources(field, 10.0, Strategy.SQUARE_GRID)
        hexa = place_sources(field, 10.0, Strategy.HEX_GRID)
        assert len(hexa.sources) > len(square.sources)
        # asymptotic density ratio 2/sqrt(3) ~ 1.155
        assert len(hexa.sources) / len(square.sources) > 1.10

    def test_no_disc_fits(self):
        with pytest.raises(ValidationError):
            place_sources(EventField(5.0, 5.0), 3.0, Strategy.SQUARE_GRID)

    def test_explicit_strategy_rejected(self):
        with pytest.raises(ValidationError, match="explicit strategy requires a source list"):
            place_sources(EventField(50.0, 50.0), 10.0, "explicit")

    def test_strategy_accepts_strings(self):
        dep = place_sources(EventField(50.0, 50.0), 10.0, "hex_grid")
        assert dep.strategy is Strategy.HEX_GRID

    @pytest.mark.parametrize("strategy", ["square_grid", "hex_grid"])
    def test_tiny_radius_rejected_before_any_loop(self, tmp_path, strategy):
        # a grid sized by the radius alone asks for ~1e604 positions at
        # 1e-300 m: a child process under a time and a 1 GiB address-space
        # limit shows that the cap rejects it before anything is allocated
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        argv = ["deploy", "--r-rf-m", "1e-300", "--strategy", strategy, "--out", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "wpsn_coverage.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_memory,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"over the cap of {deployment.MAX_GRID_SOURCES}" in proc.stderr

    @pytest.mark.parametrize(
        "field, strategy, count",
        [
            (EventField(202.0, 19802.0), Strategy.SQUARE_GRID, 101 * 9901),
            (EventField(201.0, 17323.0), Strategy.HEX_GRID, 101 * 10002),  # with spares
        ],
    )
    def test_grid_just_over_the_cap_rejected(self, field, strategy, count):
        assert deployment.MAX_GRID_SOURCES == 10**6
        with pytest.raises(ValidationError, match=f"needs up to {count} sources"):
            place_sources(field, 1.0, strategy)

    @pytest.mark.parametrize(
        "field, r, strategy",
        [
            pytest.param(EventField(103.0, 71.0), 3.0, Strategy.SQUARE_GRID, id="square_grid"),
            pytest.param(EventField(103.0, 71.0), 3.0, Strategy.HEX_GRID, id="hex_grid"),
            # rounding in the row's repeated additions admits a 101st column
            # where (W - 2r + 1e-12) // 2r + 1 counts 100
            pytest.param(EventField(18505.79360268271, 200.0), 91.61283961724114,
                         Strategy.HEX_GRID, id="hex_grid_wide_row"),
        ],
    )
    def test_cap_counts_no_fewer_than_placed(self, monkeypatch, field, r, strategy):
        placed = len(place_sources(field, r, strategy).sources)
        monkeypatch.setattr(deployment, "MAX_GRID_SOURCES", placed - 1)
        with pytest.raises(ValidationError, match="cap"):
            place_sources(field, r, strategy)
        if strategy is Strategy.SQUARE_GRID:  # the square count is exact
            monkeypatch.setattr(deployment, "MAX_GRID_SOURCES", placed)
            assert len(place_sources(field, r, strategy).sources) == placed

    def test_wide_field_over_the_cap_rejected(self):
        # the rows of this grid hold one column more than the closed form
        # counts: 1,005,000 positions where it counts 10^6
        field = EventField(18505.79360268271, 1586806.4776002194)
        with pytest.raises(ValidationError, match="over the cap"):
            place_sources(field, 91.61283961724114, Strategy.HEX_GRID)

    @settings(max_examples=300, deadline=None)
    @given(grid_geometries())
    @example((2 * 91.61283961724114 * 101, 200.0, 91.61283961724114, Strategy.HEX_GRID))
    def test_positions_equal_the_placement_loops(self, geometry):
        width, height, r, strategy = geometry
        field = EventField(width, height)
        expected = reference_grid(field, r, strategy)
        assert np.array_equal(place_sources(field, r, strategy).sources, expected)
        with pytest.MonkeyPatch.context() as patch:  # the cap counts every placed source
            patch.setattr(deployment, "MAX_GRID_SOURCES", len(expected) - 1)
            with pytest.raises(ValidationError, match="cap"):
                place_sources(field, r, strategy)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=25.0, max_value=200.0),
        st.floats(min_value=25.0, max_value=200.0),
        st.floats(min_value=5.0, max_value=12.0),
        st.sampled_from([Strategy.SQUARE_GRID, Strategy.HEX_GRID]),
    )
    def test_grid_contracts(self, width, height, r, strategy):
        field = EventField(width, height)
        dep = place_sources(field, r, strategy)
        assert len(dep.sources) > 0
        for x, y in dep.sources:
            assert r - 1e-9 <= x <= width - r + 1e-9
            assert r - 1e-9 <= y <= height - r + 1e-9
        if len(dep.sources) > 1:
            assert pairwise_min_distance(dep.sources) >= 2 * r - 1e-9
        # the zero-packing-loss formula upper-bounds any real placement
        assert len(dep.sources) <= source_count_from_range(field, r).exact + 1e-9


class TestScatterNodes:
    def test_empty(self):
        nodes = scatter_nodes(EventField(10.0, 10.0), 0, seed=3)
        assert nodes.positions.shape == (0, 2)

    def test_deterministic(self):
        field = EventField(100.0, 40.0)
        a = scatter_nodes(field, 500, seed=11)
        b = scatter_nodes(field, 500, seed=11)
        assert np.array_equal(a.positions, b.positions)

    def test_different_seed_differs(self):
        field = EventField(100.0, 40.0)
        assert not np.array_equal(
            scatter_nodes(field, 50, 1).positions, scatter_nodes(field, 50, 2).positions
        )

    def test_all_inside_field(self):
        field = EventField(30.0, 70.0)
        nodes = scatter_nodes(field, 2000, seed=5)
        assert all(field.contains(x, y) for x, y in nodes.positions)

    def test_mean_matches_uniform_law(self):
        field = EventField(100.0, 20.0)
        nodes = scatter_nodes(field, 10**6, seed=9)
        mean_x = sum(p[0] for p in nodes.positions) / len(nodes.positions)
        assert mean_x == pytest.approx(50.0, abs=0.1)

    def test_rejects_negative_count(self):
        with pytest.raises(ValidationError):
            scatter_nodes(EventField(10.0, 10.0), -1, seed=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_rejects_count_not_an_integer(self, n):
        # 2.5 reached numpy's concatenate; 3.0 is rejected too
        with pytest.raises(ValidationError, match="node count must be an integer"):
            scatter_nodes(EventField(10.0, 10.0), n, seed=0)

    def test_accepts_numpy_integers(self):
        field = EventField(10.0, 10.0)
        nodes = scatter_nodes(field, np.int32(5), seed=np.uint64(3))
        assert np.array_equal(nodes.positions, scatter_nodes(field, 5, seed=3).positions)

    def test_positions_are_the_interleaved_stream_across_chunks(self):
        n = 2 * kernels._CHUNK + 3
        u = kernels.uniform_block(13, 0, 2 * n)
        positions = scatter_nodes(EventField(30.0, 70.0), n, seed=13).positions
        assert positions.tobytes() == np.column_stack((u[0::2] * 30.0, u[1::2] * 70.0)).tobytes()

    def test_memory_peaks_below_one_and_a_half_positions_plus_a_chunk(self):
        """10^6 nodes take 15.3 MiB. Drawing them in one call and copying
        them into the NodeField peaked at 3x (45.8 MiB); a chunk at a time
        into the final array, taken as it is, adds one chunk's workspace
        and the in-field check's bool temporaries."""
        n = 10**6
        tracemalloc.start()
        try:
            nodes = scatter_nodes(EventField(400.0, 400.0), n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nodes.positions.shape == (n, 2)
        assert peak < 1.5 * nodes.positions.nbytes + 32 * kernels._CHUNK

    def test_rejects_count_over_cap(self, monkeypatch):
        assert deployment.MAX_NODES >= 10**6  # the scaled benchmark's node count
        monkeypatch.setattr(deployment, "MAX_NODES", 10)
        field = EventField(10.0, 10.0)
        assert len(scatter_nodes(field, 10, seed=0).positions) == 10
        with pytest.raises(ValidationError, match="node count must be <= 10, got 11"):
            scatter_nodes(field, 11, seed=0)


class TestCoverageReport:
    def test_boundary_rule(self):
        field = EventField(20.0, 20.0)
        dep = Deployment(field, ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        inside = Deployment(field, ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        nodes_in = _nodes_at(field, [(10.0 + 0.999 * 5.0, 10.0)])
        nodes_out = _nodes_at(field, [(10.0 + 1.001 * 5.0, 10.0)])
        assert coverage_report(inside, nodes_in).covered_count == 1
        assert coverage_report(dep, nodes_out).covered_count == 0

    def test_exact_boundary_is_covered(self):
        field = EventField(20.0, 20.0)
        dep = Deployment(field, ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        nodes = _nodes_at(field, [(15.0, 10.0)])
        assert coverage_report(dep, nodes).covered_count == 1

    def test_tiled_square_grid_covers_pi_over_4(self):
        field = EventField(100.0, 100.0)
        dep = place_sources(field, 10.0, Strategy.SQUARE_GRID)  # exact 5x5 tiling
        nodes = scatter_nodes(field, 10**6, seed=17)
        report = coverage_report(dep, nodes)
        assert report.coverage_fraction == pytest.approx(math.pi / 4.0, abs=0.01)

    def test_feeding_sources_sorted_by_index(self):
        field = EventField(30.0, 10.0)
        dep = Deployment(field, ((10.0, 5.0), (14.0, 5.0)), 5.0, Strategy.EXPLICIT)
        nodes = _nodes_at(field, [(12.0, 5.0)])
        report = coverage_report(dep, nodes)
        assert report.first_source.tolist() == [0]
        assert report.fed_by.tolist() == [2]

    @pytest.mark.parametrize("n", [2000, 2 * kernels._CHUNK + 5])  # across chunk boundaries
    def test_membership_matches_per_node_loop(self, n):
        field = EventField(60.0, 40.0)
        sources = ((10.0, 10.0), (18.5, 12.25), (30.0, 20.0), (35.0, 24.0), (50.0, 35.0))
        r = 9.0
        dep = Deployment(field, sources, r, Strategy.EXPLICIT)
        nodes = scatter_nodes(field, n, seed=4)
        report = coverage_report(dep, nodes)
        expected = [
            [j for j, (sx, sy) in enumerate(sources)
             if (x - sx) * (x - sx) + (y - sy) * (y - sy) <= r * r]
            for x, y in nodes.positions.tolist()
        ]
        assert report.first_source.tolist() == [feeds[0] if feeds else -1 for feeds in expected]
        assert report.fed_by.tolist() == [len(feeds) for feeds in expected]
        assert report.covered_count == sum(1 for feeds in expected if feeds)
        assert detect_interference(dep, nodes).multi_fed_nodes == tuple(
            i for i, feeds in enumerate(expected) if len(feeds) >= 2
        )

    def test_no_nodes(self):
        field = EventField(20.0, 20.0)
        dep = Deployment(field, ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        report = coverage_report(dep, scatter_nodes(field, 0, seed=0))
        assert report.first_source.tolist() == []
        assert report.fed_by.tolist() == []
        assert (report.total_count, report.covered_count) == (0, 0)
        assert report.coverage_fraction == 0.0
        multi_fed = detect_interference(dep, scatter_nodes(field, 0, seed=0)).multi_fed
        assert multi_fed.dtype == np.int64 and len(multi_fed) == 0

    def test_field_mismatch_rejected(self):
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        nodes = scatter_nodes(EventField(30.0, 30.0), 10, seed=0)
        with pytest.raises(ValidationError):
            coverage_report(dep, nodes)

    @pytest.mark.parametrize("query", [coverage_report, detect_interference])
    def test_nodes_on_another_field_rejected(self, query):
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        nodes = _nodes_at(EventField(20.0, 30.0), [(10.0, 10.0)])
        with pytest.raises(ValidationError, match="node field does not match"):
            query(dep, nodes)

    @pytest.mark.parametrize("query", [coverage_report, detect_interference])
    def test_field_mismatch_rejected_before_any_index(self, monkeypatch, query):
        # the source-pair search and membership both build cell indexes
        def refuse(*args):
            raise AssertionError("indexed before the field check")

        monkeypatch.setattr(deployment.kernels, "CellIndex", refuse)
        monkeypatch.setattr(deployment.kernels, "CellClasses", refuse)
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        nodes = _nodes_at(EventField(20.0, 30.0), [(10.0, 10.0)])
        with pytest.raises(ValidationError, match="node field does not match"):
            query(dep, nodes)

    def test_coincident_discs_over_many_nodes_fit_in_1_gib(self):
        # 10^6 nodes under 160 coincident discs are 1.6 * 10^8 (node, disc)
        # pairs: held as sparse rows they need ~1.3 GB, past the child's
        # 1 GiB address-space limit
        script = (
            "from wpsn_coverage.coverage import EventField\n"
            "from wpsn_coverage.deployment import Deployment, coverage_report, scatter_nodes\n"
            "field = EventField(100.0, 100.0)\n"
            "dep = Deployment(field, [(50.0, 50.0)] * 160, 100.0, 'explicit')\n"
            "report = coverage_report(dep, scatter_nodes(field, 10**6, seed=1))\n"
            "print(report.covered_count, report.fed_by.min(), report.first_source.max())\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_memory,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1000000 160 0\n"


class TestMonteCarloCoverage:
    def test_single_disc_pi_over_4(self):
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 10.0, Strategy.EXPLICIT)
        frac = monte_carlo_coverage(dep, 10**6, seed=7)
        assert frac == pytest.approx(math.pi / 4.0, abs=0.003)

    def test_hex_grid_density_band(self):
        dep = place_sources(EventField(400.0, 400.0), 10.0, Strategy.HEX_GRID)
        assert len(dep.sources) >= 100
        frac = monte_carlo_coverage(dep, 10**6, seed=21)
        assert frac <= math.pi / (2.0 * math.sqrt(3.0)) + 0.01
        assert frac >= 0.80

    def test_zero_sources(self):
        dep = Deployment(EventField(20.0, 20.0), (), 5.0, Strategy.EXPLICIT)
        assert monte_carlo_coverage(dep, 1000, seed=0) == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_sources_any_worker_count(self, workers):
        dep = Deployment(EventField(20.0, 20.0), (), 5.0, Strategy.EXPLICIT)
        # more than one kernel chunk, so two workers may each take a block
        samples = 2 * deployment.kernels._CHUNK + 1
        assert monte_carlo_coverage(dep, samples, seed=0, workers=workers) == 0.0

    def test_worker_count_invariance(self):
        dep = place_sources(EventField(200.0, 200.0), 15.0, Strategy.HEX_GRID)
        sequential = monte_carlo_coverage(dep, 10**5 + 7, seed=13, workers=1)
        parallel = monte_carlo_coverage(dep, 10**5 + 7, seed=13, workers=4)
        assert sequential == parallel

    def test_rejects_samples_below_one(self):
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        with pytest.raises(ValidationError, match="sample count must be >= 1, got 0"):
            monte_carlo_coverage(dep, 0, 1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        with pytest.raises(ValidationError):
            monte_carlo_coverage(dep, 1000, seed=0, workers=workers)

    @pytest.mark.parametrize("samples, seed, workers, name", [
        (10_000, 2.5, 1, "seed"),  # aliased seed 2's stream
        (10_000, 2.9, 2, "seed"),
        (2.5, 2, 1, "sample count"),  # TypeError in range()
        (10**6, 2, 1.5, "worker count"),  # TypeError in range()
        (100.0, 2, 1, "sample count"),
    ])
    def test_rejects_counts_and_seeds_not_integers(self, samples, seed, workers, name):
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            monte_carlo_coverage(dep, samples, seed, workers=workers)

    def test_accepts_numpy_integers(self):
        dep = Deployment(EventField(20.0, 20.0), ((10.0, 10.0),), 5.0, Strategy.EXPLICIT)
        assert monte_carlo_coverage(dep, np.int64(1000), np.uint64(2), np.int16(2)) == (
            monte_carlo_coverage(dep, 1000, 2)
        )

    @pytest.fixture
    def pools(self, monkeypatch):
        """Pool sizes started by monte_carlo_coverage; its spans run inline."""
        from concurrent.futures import Executor

        from wpsn_coverage import deployment

        seen = []

        class InlineExecutor(Executor):
            def __init__(self, max_workers):
                seen.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(deployment, "ThreadPoolExecutor", InlineExecutor)
        return seen

    def test_pool_capped_at_cpu_count(self, pools):
        dep = place_sources(EventField(100.0, 100.0), 10.0, Strategy.HEX_GRID)
        sequential = monte_carlo_coverage(dep, 1000, seed=5, workers=1)
        assert monte_carlo_coverage(dep, 1000, seed=5, workers=10**6) == sequential
        assert all(m <= os.cpu_count() for m in pools)

    def test_pool_capped_at_sample_chunks(self, pools, monkeypatch):
        from wpsn_coverage import kernels

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        dep = place_sources(EventField(100.0, 100.0), 10.0, Strategy.HEX_GRID)
        monte_carlo_coverage(dep, 4096, seed=5, workers=4)
        assert pools == []
        samples = 3 * kernels._CHUNK
        sequential = monte_carlo_coverage(dep, samples, seed=5, workers=1)
        assert monte_carlo_coverage(dep, samples, seed=5, workers=8) == sequential
        assert pools == [3]

    def test_one_map_shared_by_every_span(self, monkeypatch):
        # 8 threads share one read-only map while the interpreter switches
        # threads every microsecond: the count must stay the sequential one
        built = []
        real = deployment.kernels.disc_index

        def counting(count, *args):
            built.append(count)
            return real(count, *args)

        monkeypatch.setattr(deployment.kernels, "disc_index", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        dep = place_sources(EventField(100.0, 100.0), 10.0, Strategy.HEX_GRID)
        samples = 8 * deployment.kernels._CHUNK
        sequential = monte_carlo_coverage(dep, samples, seed=5, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = monte_carlo_coverage(dep, samples, seed=5, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == sequential
        assert built == [samples, samples]  # one map per call, sized by all its samples

    def test_agrees_with_membership_on_same_samples(self):
        field = EventField(120.0, 120.0)
        dep = place_sources(field, 10.0, Strategy.SQUARE_GRID)
        n = 10**5
        nodes = scatter_nodes(field, n, seed=29)
        exact = coverage_report(dep, nodes).coverage_fraction
        mc = monte_carlo_coverage(dep, n, seed=29)
        assert mc == pytest.approx(exact, abs=1e-12)


class TestDetectInterference:
    def test_disjoint_sources_clean(self):
        field = EventField(100.0, 20.0)
        dep = Deployment(field, ((20.0, 10.0), (50.0, 10.0)), 5.0, Strategy.EXPLICIT)
        report = detect_interference(dep, scatter_nodes(field, 100, seed=1))
        assert report.clean

    def test_overlapping_pair_and_midpoint_node(self):
        field = EventField(100.0, 20.0)
        r = 8.0
        dep = Deployment(
            field, ((40.0, 10.0), (40.0 + 1.5 * r, 10.0)), r, Strategy.EXPLICIT
        )
        nodes = _nodes_at(field, [(40.0 + 0.75 * r, 10.0)])
        report = detect_interference(dep, nodes)
        assert len(report.source_pairs) == 1
        i, j, d = report.source_pairs[0]
        assert (i, j) == (0, 1)
        assert d == pytest.approx(1.5 * r, rel=1e-12)
        assert report.multi_fed_nodes == (0,)

    def test_grid_deployments_always_clean(self):
        field = EventField(333.0, 177.0)
        for strategy in (Strategy.SQUARE_GRID, Strategy.HEX_GRID):
            dep = place_sources(field, 7.0, strategy)
            report = detect_interference(dep, scatter_nodes(field, 5000, seed=3))
            assert report.clean

    def test_multi_fed_implies_overlapping_pair(self):
        field = EventField(50.0, 50.0)
        dep = Deployment(field, ((20.0, 25.0), (30.0, 25.0)), 8.0, Strategy.EXPLICIT)
        report = detect_interference(dep, scatter_nodes(field, 3000, seed=8))
        if report.multi_fed_nodes:
            assert report.source_pairs

    def test_report_holds_arrays_and_tuple_views(self):
        field = EventField(100.0, 20.0)
        dep = Deployment(field, ((40.0, 10.0), (52.0, 10.0), (90.0, 10.0)), 8.0,
                         Strategy.EXPLICIT)
        report = detect_interference(dep, _nodes_at(field, [(46.0, 10.0), (90.0, 10.0)]))
        assert [a.dtype for a in (report.pair_i, report.pair_j, report.distance,
                                  report.multi_fed)] == [np.int64, np.int64, np.float64, np.int64]
        assert report.source_pairs == ((0, 1, 12.0),)
        assert type(report.source_pairs[0][0]) is int
        assert report.multi_fed_nodes == (0,)
        assert not report.clean

    def test_memory_bounded_by_the_pair_arrays(self):
        """1,000 coincident sources: 499,500 pairs. Taking every distance
        through whole-run Python float lists peaks at ~92 MiB; the pair
        arrays and one slice of floats take ~26 MiB."""
        field = EventField(100.0, 100.0)
        dep = Deployment(field, [(50.0, 50.0)] * 1000, 5.0, Strategy.EXPLICIT)
        nodes = scatter_nodes(field, 4096, seed=1)
        tracemalloc.start()
        try:
            report = detect_interference(dep, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert len(report.pair_i) == 1000 * 999 // 2
        assert not report.distance.any()


class TestDeploymentValidation:
    def test_source_outside_field_rejected(self):
        with pytest.raises(ValidationError):
            Deployment(EventField(10.0, 10.0), ((15.0, 5.0),), 2.0, Strategy.EXPLICIT)

    def test_error_names_first_source_outside(self):
        with pytest.raises(ValidationError, match=r"source \(15.0, 5.0\)"):
            Deployment(
                EventField(10.0, 10.0), ((5.0, 5.0), (15.0, 5.0), (20.0, 5.0)), 2.0,
                Strategy.EXPLICIT,
            )

    @pytest.mark.parametrize(
        "sources", [((1.0, 2.0, 3.0),), (1.0, 2.0), ((1.0, 2.0), (3.0,)), (("a", "b"),)]
    )
    def test_malformed_sources_rejected(self, sources):
        with pytest.raises(ValidationError):
            Deployment(EventField(10.0, 10.0), sources, 2.0, Strategy.EXPLICIT)

    def test_node_outside_field_rejected(self):
        with pytest.raises(ValidationError, match="node"):
            _nodes_at(EventField(10.0, 10.0), [(5.0, 5.0), (5.0, -1.0)])

    def test_point_arrays_are_read_only_copies(self):
        given = np.array([[5.0, 5.0]])
        dep = Deployment(EventField(10.0, 10.0), given, 2.0, Strategy.EXPLICIT)
        given[0, 0] = 9.0
        assert dep.sources.tolist() == [[5.0, 5.0]]
        with pytest.raises(ValueError):
            dep.sources[0, 0] = 1.0

    def test_read_only_arrays_are_taken_as_they_are(self):
        field = EventField(10.0, 10.0)
        frozen = np.array([[5.0, 5.0], [1.0, 2.0]])
        frozen.flags.writeable = False
        assert NodeField(field, frozen, seed=0).positions is frozen
        assert Deployment(field, frozen, 2.0, Strategy.EXPLICIT).sources is frozen
        frozen_outside = np.array([[5.0, 5.0], [5.0, 11.0]])
        frozen_outside.flags.writeable = False
        with pytest.raises(ValidationError, match=r"node \(5.0, 11.0\) lies outside"):
            NodeField(field, frozen_outside, seed=0)

    def test_writable_arrays_and_views_are_copied_not_frozen(self):
        field = EventField(10.0, 10.0)
        given = np.array([[5.0, 5.0], [1.0, 2.0]])
        view = given[:]
        view.flags.writeable = False  # its base stays writable
        for points in (given, view, np.array([[5, 5]]), np.array([[5.0, 5.0, 1.0]])[:, :2]):
            positions = NodeField(field, points, seed=0).positions
            assert positions is not points and not np.shares_memory(positions, given)
            assert not positions.flags.writeable
        assert given.flags.writeable

    def test_non_positive_radius_rejected(self):
        with pytest.raises(ValidationError):
            Deployment(EventField(10.0, 10.0), ((5.0, 5.0),), 0.0, Strategy.EXPLICIT)

    def test_strategy_name_becomes_a_strategy(self):
        dep = Deployment(EventField(10.0, 10.0), ((5.0, 5.0),), 2.0, "explicit")
        assert dep.strategy is Strategy.EXPLICIT
        assert dep.strategy.value == "explicit"  # what the CLI writes into the CSV metadata

    def test_unknown_strategy_lists_the_valid_ones(self):
        valid = "square_grid, hex_grid, explicit"
        with pytest.raises(ValidationError, match=f"'bogus' is not one of {valid}$"):
            Deployment(EventField(10.0, 10.0), ((5.0, 5.0),), 2.0, "bogus")


def _nodes_at(field, positions):
    return NodeField(field=field, positions=tuple(positions), seed=0)
