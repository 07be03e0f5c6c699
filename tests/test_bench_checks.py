"""The benchmark's independent checks (`bench/workloads.py`), run on this
checkout's outputs: each figure against its closed form, the
design-point hex placement against discs that are disjoint and inside
the field, the many_sources lattice against its own neighbour edges and
exact areas, and whole passes of all three workloads (the design point
and many_nodes on fewer samples or nodes). The checks are imported, not
copied, so a check that rots fails here and not only when someone runs
the benchmark."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from wpsn_coverage import cli, figures

ROOT = Path(__file__).resolve().parents[1]
DESIGN = ROOT / "scenarios" / "design_point.scn"

# The bench's `_grid` rebuilds the log grid of figures 5 and 6 with
# np.logspace, whose last bits depend on the CPU features numpy dispatches,
# while the figures read the pinned `figures._LOG_GRID`.
STALE_GRID = np.logspace(-1, 1, 50).tolist() != list(figures._LOG_GRID)
STALE = pytest.mark.xfail(
    STALE_GRID, strict=True,
    reason="bench/workloads.py::_grid uses np.logspace, not the pinned log grid (ROADMAP item 3)",
)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads")


def run(capsys, *argv):
    code = cli.main([*argv, "--scenario", str(DESIGN)])
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize(
    "figure", [pytest.param(n, marks=[STALE] if n in (5, 6) else []) for n in figures.FIGURES]
)
def test_figure_passes_the_bench_check(workloads, capsys, tmp_path, figure):
    run(capsys, "sweep", "--figure", str(figure), "--svg", "--out", str(tmp_path))
    assert workloads.check_figure(figure, tmp_path) == []


def test_hex_placement_passes_the_bench_check(workloads, capsys, tmp_path):
    run(capsys, "deploy", "--strategy", "hex_grid", "--out", str(tmp_path))
    _, header, rows = workloads.read_table(tmp_path / "placement.csv")
    assert header == ["source", "x_m", "y_m"] and rows
    side = math.sqrt(workloads.DESIGN_AREA_M2)
    sources = [row[1:] for row in rows]
    assert workloads.check_disjoint_inside(sources, workloads.design_range(), side, side) is None


def run_pass(workloads, wl, tmp_path, capsys):
    """The workload's commands and one Monte Carlo pair at 1 and 2
    workers, in the shape `run.py` hands to the workload's check: the
    operation names, and the check's findings per operation."""
    child = importlib.import_module("child")
    wl.prepare(tmp_path, 1)
    out = tmp_path / "out"
    out.mkdir()
    ops = {}
    for name, argv in wl.commands():
        assert cli.main([str(out) if a == workloads.OUT else a for a in argv]) == 0
        ops[name] = {"name": name, "kind": "cli", "stdout": capsys.readouterr().out}
    dep = child._deployment(wl.mc())
    for op in child._run_mc(dict(wl.mc(), nproc=2), dep, None, 0):
        ops[op["name"]] = op
    return list(ops), wl.check(ops, out, {"mc_sources": dep.sources.tolist()})


def test_many_sources_passes_the_bench_check(workloads, capsys, tmp_path):
    """`interference` and `deploy` on the many_sources lattice, and one
    Monte Carlo pair at 1 and 2 workers: the overlapping pairs are the
    lattice's nearest-neighbour edges, multi-fed and covered nodes lie
    within 5 sigma of the exact lens and disc areas, the Monte Carlo hits
    are the nodes deploy found covered, and both worker counts agree."""
    names, found = run_pass(workloads, workloads.ManySources(), tmp_path, capsys)
    assert found == {name: [] for name in names}


def test_many_nodes_passes_the_bench_check(workloads, capsys, tmp_path):
    """`deploy`, `interference` and one Monte Carlo pair on the many_nodes
    hex grid, at 20,000 nodes and as many samples: the placement is
    disjoint and inside the field, covered nodes and hits lie within 5
    sigma of the exact disc area, the grid is clean, and the hits are the
    nodes deploy found covered."""

    class Small(workloads.ManyNodes):
        nodes = mc_samples = 20_000

    names, found = run_pass(workloads, Small(), tmp_path, capsys)
    assert found == {name: [] for name in names}


@STALE  # the check includes figures 5 and 6
def test_design_point_passes_the_bench_check(workloads, capsys, tmp_path):
    """Every design-point command against its closed form, and one Monte
    Carlo pair of as many samples as the scenario has nodes, so that the
    hits must be the nodes deploy found covered."""

    class Small(workloads.DesignPoint):
        mc_samples = 1000

    assert Small.nodes == Small.mc_samples
    names, found = run_pass(workloads, Small(), tmp_path, capsys)
    assert found == {name: [] for name in names}
