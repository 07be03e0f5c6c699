"""numpy belongs to the array layer (`kernels`, `deployment`): the scalar
commands and every figure run without it, and the package loads
each public name from its defining module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpsn_coverage

SRC = Path(__file__).resolve().parents[1] / "src"

# run one command in a fresh interpreter; the last stdout line says whether a module loaded
PROBE = (
    "import sys; from wpsn_coverage import cli; code = cli.main(sys.argv[2:]); "
    "print(code, sys.argv[1] in sys.modules)"
)


def _command_loads(module, argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, module, *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    return loaded == "True"


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["range"], False),
        (["sources"], False),
        (["power", "--k", "6"], False),
        (["sweep", "--figure", "4", "--svg"], False),
        (["sweep", "--figure", "7", "--svg"], False),
        (["sweep", "--figure", "8", "--svg"], False),
        (["sweep", "--figure", "5"], False),  # log grid is a pinned table, not np.logspace
        (["deploy", "--nodes", "50"], True),
        (["sweep", "--figure", "6", "--svg"], False),
    ],
)
def test_only_array_commands_import_numpy(tmp_path, argv, loads_numpy):
    if "sweep" in argv or "deploy" in argv:
        argv = [*argv, "--out", str(tmp_path)]
    assert _command_loads("numpy", argv) is loads_numpy


@pytest.mark.parametrize("command, overlap", [("deploy", False), ("interference", False),
                                              ("interference", True)])
def test_only_node_rows_import_numpy_ma(tmp_path, command, overlap):
    """Masked columns hold the empty cells of `interference`'s node rows
    alone; importing numpy.ma takes ~14 ms."""
    argv = [command, "--nodes", "50", "--out", str(tmp_path)]
    if overlap:  # every node lies in both discs
        scenario = tmp_path / "overlap.scn"
        scenario.write_text("strategy = explicit\nsources = 40,40; 40,40\nr_rf_m = 300\n")
        argv += ["--scenario", str(scenario)]
    assert _command_loads("numpy.ma", argv) is overlap


def test_every_export_is_the_defining_modules_object():
    listing = dir(wpsn_coverage)
    for module, names in wpsn_coverage._EXPORTS.items():
        defining = importlib.import_module(f"wpsn_coverage.{module}")
        for name in names:
            assert getattr(wpsn_coverage, name) is getattr(defining, name), name
            assert name in listing


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wpsn_coverage.no_such_name
