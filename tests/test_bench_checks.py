"""The benchmark's independent checks (`bench/workloads.py`), run on this
checkout's outputs: each figure against its closed form, and the
design-point hex placement against discs that are disjoint and inside
the field. The checks are imported, not copied, so a check that rots
fails here and not only when someone runs the benchmark."""

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
