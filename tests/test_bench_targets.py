"""The benchmark's tracer wraps library functions by name; a refactor
that renames one, or stops calling it through the name the tracer
replaces, would silently zero that layer's metric."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from wpsn_coverage import cli, sweep_report

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    for module, name, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_traced_counts_read_the_named_arguments(monkeypatch):
    # an extractor from tracer._arg(index, name) reads positional argument
    # `index` unless `name` is passed by keyword: a signature edit that
    # moves `name` would silently change the traced per-layer counts
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    read = {}
    for module, name, _, extract in tracer.TARGETS:
        taken = inspect.getclosurevars(extract).nonlocals if extract else {}
        if "index" in taken:
            read[f"{module}.{name}"] = (taken["index"], taken["name"])
            function = getattr(importlib.import_module(module), name)
            params = list(inspect.signature(function).parameters)
            assert params[taken["index"]] == taken["name"], (module, name)
    assert read == {
        "wpsn_coverage.kernels.covered_count": (2, "count"),
        "wpsn_coverage.kernels.points_block": (2, "count"),
        "wpsn_coverage.deployment.monte_carlo_coverage": (1, "samples"),
    }


def test_deploy_writes_through_the_cli_reference(monkeypatch, tmp_path, capsys):
    assert cli.write_csv is sweep_report.write_csv
    calls = []

    def counting(table, destination):
        calls.append(Path(destination).name)
        sweep_report.write_csv(table, destination)

    monkeypatch.setattr(cli, "write_csv", counting)
    code = cli.main(["deploy", "--nodes", "50", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert calls == ["placement.csv", "coverage.csv"]


def test_traced_deploy_records_the_lazily_imported_layers(tmp_path):
    # the CLI imports `deployment` inside its commands; the tracer must still
    # replace the functions that those commands call
    before = sorted(BENCH.rglob("*"))
    spans_file = tmp_path / "spans.json"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "PYTHONDONTWRITEBYTECODE": "1",  # leave bench/ as it is
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_traced.py"), str(spans_file), "--",
         "deploy", "--nodes", "50", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(spans_file.read_text())}
    assert {
        "deployment.place_sources",
        "deployment.scatter_nodes",
        "deployment.coverage_report",
        "sweep_report.write_csv",
    } <= names
    assert sorted(BENCH.rglob("*")) == before
