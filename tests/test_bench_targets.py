"""The benchmark's tracer wraps library functions by name; a refactor
that renames one, or stops calling it through the name the tracer
replaces, would silently zero that layer's metric."""

import importlib
from pathlib import Path


from wpsn_coverage import cli, sweep_report

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    for module, name, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


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
