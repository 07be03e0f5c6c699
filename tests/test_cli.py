import argparse
import math
import shlex
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from wpsn_coverage import cli, deployment, sweep_report
from wpsn_coverage.coverage import EventField, source_count
from wpsn_coverage.deployment import Strategy, place_sources
from wpsn_coverage.link_budget import RadioParams, max_range
from wpsn_coverage.quantities import ValidationError
from wpsn_coverage.scenario import Scenario, load_scenario, parse_scenario
from wpsn_coverage.sweep_report import _BLOCK, _format_number, _text_rows

ROOT = Path(__file__).resolve().parents[1]


ANCHOR_SCENARIO = "eirp_product_w = 4\nf_hz = 2GHz\nv_min_v = 100mV\n"
RANGE_SCENARIO = (  # deploy places 2 m discs here, and range and sources agree
    "field_width_m = 10\nfield_height_m = 10\nstrategy = explicit\nsources = 5,5\nr_rf_m = 2\n"
)
DESIGN_SCENARIO = (
    "p_t_w = 1\ng_t_dbi = 8.5\ng_r_dbi = 8.5\nf_hz = 1GHz\n"
    "v_min_v = 100mV\nfield_area_m2 = 4e4\n"
)


@pytest.fixture
def anchor_file(tmp_path):
    path = tmp_path / "anchor.scn"
    path.write_text(ANCHOR_SCENARIO)
    return path


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.scn"
    path.write_text(DESIGN_SCENARIO)
    return path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRange:
    def test_anchor_scenario(self, capsys, anchor_file):
        code, out, err = run(capsys, "range", "--scenario", str(anchor_file))
        assert code == 0
        assert err == ""
        assert float(out) == pytest.approx(6.75, rel=2e-3)

    def test_matches_library(self, capsys, anchor_file):
        _, out, _ = run(capsys, "range", "--scenario", str(anchor_file))
        expected = max_range(RadioParams.from_eirp_product(4.0, 2e9)).meters
        assert float(out) == expected

    def test_flag_overrides_file(self, capsys, anchor_file):
        _, out, _ = run(
            capsys, "range", "--scenario", str(anchor_file), "--f-hz", "1GHz"
        )
        assert float(out) == pytest.approx(13.49, rel=2e-3)

    def test_defaults_without_scenario(self, capsys):
        code, out, _ = run(capsys, "range")
        assert code == 0
        assert float(out) == max_range(RadioParams.from_si(1.0, 8.5, 8.5, 1e9)).meters

    def test_scenario_range(self, capsys, tmp_path):
        path = tmp_path / "range.scn"
        path.write_text(RANGE_SCENARIO)
        assert run(capsys, "range", "--scenario", str(path)) == (0, "2.0\n", "")


class TestSources:
    def test_design_point(self, capsys, design_file):
        code, out, err = run(capsys, "sources", "--scenario", str(design_file))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("exact ")
        assert float(lines[0].split()[1]) == pytest.approx(5.58, abs=0.02)
        assert lines[1] == "required 6"

    def test_matches_library(self, capsys, design_file):
        _, out, _ = run(capsys, "sources", "--scenario", str(design_file))
        expected = source_count(4e4, RadioParams.from_si(1.0, 8.5, 8.5, 1e9)).exact
        assert float(out.splitlines()[0].split()[1]) == expected

    def test_scenario_range(self, capsys, tmp_path):
        path = tmp_path / "range.scn"
        path.write_text(RANGE_SCENARIO)
        out = "exact 7.957747154594767\nrequired 8\n"  # 100 m^2 / (pi 2^2)
        assert run(capsys, "sources", "--scenario", str(path)) == (0, out, "")


class TestPower:
    def test_k6(self, capsys, design_file):
        code, out, _ = run(capsys, "power", "--scenario", str(design_file), "--k", "6")
        assert code == 0
        assert float(out) == pytest.approx(0.929, abs=0.005)

    def test_missing_k_is_usage_error(self, capsys, design_file):
        code, out, err = run(capsys, "power", "--scenario", str(design_file))
        assert code == 1
        assert out == ""
        assert "usage" in err


class TestDeploy:
    def test_writes_placement_and_coverage(self, capsys, tmp_path, design_file):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys,
            "deploy", "--scenario", str(design_file),
            "--out", str(out_dir), "--seed", "3", "--nodes", "500",
        )
        assert code == 0
        placement = (out_dir / "placement.csv").read_text()
        coverage = (out_dir / "coverage.csv").read_text()
        assert "source,x_m,y_m" in placement
        assert "node,x_m,y_m,covered,first_source" in coverage
        assert "coverage_fraction" in out

    def test_deterministic_output(self, capsys, tmp_path, design_file):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run(
                capsys, "deploy", "--scenario", str(design_file),
                "--out", str(out_dir), "--seed", "3",
            )
            outs.append(
                (out_dir / "placement.csv").read_bytes()
                + (out_dir / "coverage.csv").read_bytes()
            )
        assert outs[0] == outs[1]

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_write_failing_partway_is_io_error(self, capsys, monkeypatch, tmp_path):
        """2,000 nodes in blocks of 16 rows: coverage.csv takes two threads,
        and the write that flushes its first 8 KiB fails (ENOSPC)."""
        (tmp_path / "coverage.csv").symlink_to("/dev/full")
        monkeypatch.setattr(sweep_report, "_BLOCK", 16)
        monkeypatch.setattr(sweep_report.os, "cpu_count", lambda: 2)
        before = threading.active_count()
        code, out, err = run(capsys, "deploy", "--nodes", "2000", "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == (f"I/O error: cannot write CSV to {tmp_path / 'coverage.csv'}: "
                       "[Errno 28] No space left on device\n")
        assert threading.active_count() == before

    def test_no_nodes(self, capsys, tmp_path):
        code, out, err = run(capsys, "deploy", "--nodes", "0", "--out", str(tmp_path))
        assert code == 0, err
        assert out.splitlines()[-1] == "coverage_fraction 0.0"
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert lines[-1] == "node,x_m,y_m,covered,first_source"
        assert "# covered_count = 0" in lines and "# total_count = 0" in lines


class TestInterference:
    def test_grid_is_clean(self, capsys, tmp_path, design_file):
        out_dir = tmp_path / "o"
        code, out, _ = run(
            capsys, "interference", "--scenario", str(design_file), "--out", str(out_dir)
        )
        assert code == 0
        assert "source_pairs 0" in out
        assert "multi_fed_nodes 0" in out

    def test_explicit_overlap_reported(self, capsys, tmp_path):
        scenario = tmp_path / "overlap.scn"
        scenario.write_text(
            "field_width_m = 100\nfield_height_m = 40\nstrategy = explicit\n"
            "sources = 40,20; 52,20\nr_rf_m = 8\nnode_count = 200\nnode_seed = 5\n"
        )
        out_dir = tmp_path / "o"
        code, out, _ = run(
            capsys, "interference", "--scenario", str(scenario), "--out", str(out_dir)
        )
        assert code == 0
        text = (out_dir / "interference.csv").read_text()
        assert "pair,0,1,12" in text
        assert "source_pairs 1" in out

    @pytest.mark.parametrize("x, y, pair", [
        (19.986218846699707, 0.7423316044905003, False),  # np.hypot: a pair
        (17.999831285400067, 8.718146230497226, True),  # np.hypot: no pair
    ])
    def test_distance_decided_by_math_hypot(self, capsys, tmp_path, x, y, pair):
        """Two discs of r = 10 m whose centres lie within an ulp of the
        threshold 2r(1 - 1e-12), where np.hypot and math.hypot disagree."""
        scenario = tmp_path / "touching.scn"
        scenario.write_text(
            f"strategy = explicit\nsources = 0,0; {x!r},{y!r}\nr_rf_m = 10\nnode_count = 0\n"
        )
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "interference", "--scenario", str(scenario), "--out", str(out_dir)
        )
        assert code == 0, err
        d = math.hypot(x, y)
        assert (d < 20.0 * (1.0 - 1e-12)) is pair
        assert f"source_pairs {int(pair)}\n" in out
        rows = (out_dir / "interference.csv").read_text().splitlines()
        assert [r for r in rows if r.startswith("pair,")] == ([f"pair,0,1,{d!r}"] if pair else [])


def reference_interference_csv(scenario_path: Path) -> bytes:
    """interference.csv laid out from the report's tuple views: pair rows,
    then node rows with j and distance empty, one `_format_number` call
    per cell."""
    dep, nodes = cli._deployment(load_scenario(scenario_path))
    report = deployment.detect_interference(dep, nodes)
    pairs, multi = report.source_pairs, report.multi_fed_nodes
    i, j, d = zip(*pairs) if pairs else ((), (), ())
    blank = ("",) * len(multi)
    columns = (("pair",) * len(pairs) + ("node",) * len(multi), i + multi, j + blank, d + blank)
    meta = {"r_rf_m": dep.r_rf, "strategy": dep.strategy.value}
    head = "".join(f"# {k} = {_format_number(v)}\n" for k, v in sorted(meta.items()))
    return (head + "kind,i,j,distance_m\n").encode() + (_text_rows(columns) if i + multi else b"")


INTERFERENCE_CASES = {
    "no_rows": "sources = 10,10; 60,30\nr_rf_m = 5\nnode_count = 100\n",
    "pairs_only": "sources = 40,20; 45.5,21.25; 50,20\nr_rf_m = 8\nnode_count = 0\n",
    "coincident": "sources = 40,20; 40,20\nr_rf_m = 8\nnode_count = 200\n",
    "integral_distance": "sources = 40,20; 52,20\nr_rf_m = 8\nnode_count = 200\n",
    "exponent_distance": "sources = 40,20; 40.00003,20.00001\nr_rf_m = 8\nnode_count = 200\n",
    # 19,900 pairs and some node rows: the second block spans the boundary
    "over_one_block": "sources = " + "; ".join(["40,20"] * 200) + "\nr_rf_m = 8\n"
                      "node_count = 300\n",
}

# a row each of these cases writes
INTERFERENCE_ROWS = {
    "coincident": b"\npair,0,1,0\n",
    "integral_distance": b"\npair,0,1,12\n",
    "exponent_distance": b"\npair,0,1,3.1622776603857024e-05\n",
}


class TestInterferenceWriter:
    @pytest.mark.parametrize("case", INTERFERENCE_CASES)
    def test_file_equals_the_per_cell_layout(self, capsys, tmp_path, case):
        scenario = tmp_path / "case.scn"
        scenario.write_text(
            "field_width_m = 100\nfield_height_m = 40\nstrategy = explicit\nnode_seed = 5\n"
            + INTERFERENCE_CASES[case]
        )
        code, out, err = run(
            capsys, "interference", "--scenario", str(scenario), "--out", str(tmp_path / "o")
        )
        assert code == 0, err
        written = (tmp_path / "o" / "interference.csv").read_bytes()
        assert written == reference_interference_csv(scenario)
        assert INTERFERENCE_ROWS.get(case, b"") in written
        pairs, nodes = written.count(b"\npair,"), written.count(b"\nnode,")
        assert out == f"source_pairs {pairs}\nmulti_fed_nodes {nodes}\n"
        assert (pairs + nodes == 0) is (case == "no_rows")
        assert (nodes == 0) is (case in ("no_rows", "pairs_only"))
        if case == "over_one_block":
            assert _BLOCK < pairs < pairs + nodes

    def test_rows_come_from_the_arrays(self, capsys, tmp_path, monkeypatch):
        def per_row(*_):
            raise AssertionError("per-row path taken")

        monkeypatch.setattr(deployment.InterferenceReport, "source_pairs", property(per_row))
        monkeypatch.setattr(deployment.InterferenceReport, "multi_fed_nodes", property(per_row))
        monkeypatch.setattr(sweep_report, "_text_rows", per_row)
        scenario = tmp_path / "overlap.scn"
        scenario.write_text(
            "field_width_m = 100\nfield_height_m = 40\nstrategy = explicit\n"
            "sources = 40,20; 52,20\nr_rf_m = 8\nnode_count = 200\nnode_seed = 5\n"
        )
        code, out, err = run(
            capsys, "interference", "--scenario", str(scenario), "--out", str(tmp_path / "o")
        )
        assert code == 0, err
        rows = (tmp_path / "o" / "interference.csv").read_text().splitlines()
        assert "pair,0,1,12" in rows
        assert any(r.startswith("node,") and r.endswith(",,") for r in rows)


class TestSweep:
    @pytest.mark.parametrize("figure", [4, 5, 6, 7, 8])
    def test_writes_csv(self, capsys, tmp_path, design_file, figure):
        out_dir = tmp_path / f"f{figure}"
        code, out, _ = run(
            capsys, "sweep", "--scenario", str(design_file),
            "--out", str(out_dir), "--figure", str(figure),
        )
        assert code == 0
        csv = out_dir / f"figure{figure}.csv"
        assert csv.exists()
        assert str(csv) in out

    def test_svg_flag(self, capsys, tmp_path, design_file):
        out_dir = tmp_path / "svg"
        code, _, _ = run(
            capsys, "sweep", "--scenario", str(design_file),
            "--out", str(out_dir), "--figure", "5", "--svg",
        )
        assert code == 0
        svg = (out_dir / "figure5.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3

    def test_byte_identical_across_runs(self, capsys, tmp_path, design_file):
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run(
                capsys, "sweep", "--scenario", str(design_file),
                "--out", str(out_dir), "--figure", "6", "--svg",
            )
            blobs.append(
                (out_dir / "figure6.csv").read_bytes()
                + (out_dir / "figure6.svg").read_bytes()
            )
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("command", ["deploy", "interference"])
def test_strategy_help_lists_values(capsys, command):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    text = capsys.readouterr().out
    assert "{square_grid,hex_grid,explicit}" in text
    assert "Strategy." not in text


class TestErrorHandling:
    def test_unknown_subcommand(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 1
        assert out == ""
        assert "usage" in err

    def test_bad_scenario_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("nonsense_key = 12\n")
        code, out, err = run(capsys, "range", "--scenario", str(bad))
        assert code == 1
        assert "nonsense_key" in err

    def test_scenario_file_error_names_file(self, capsys, tmp_path):
        scenario = tmp_path / "f.scn"
        scenario.write_text("sources = 10,10; 30,30\n")
        code, out, err = run(
            capsys, "interference", "--scenario", str(scenario), "--strategy", "explicit",
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {scenario}: sources requires strategy = explicit\n"

    def test_non_utf8_scenario_file(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "bad.scn").write_bytes(b"f_hz = 1\xff GHz\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "range", "--scenario", "bad.scn")
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad.scn: ")
        assert err.count("\n") == 1

    def test_missing_scenario_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "range", "--scenario", str(tmp_path / "absent.scn"))
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["range", "--nodes", "5"],
            ["range", "--area-m2", "1e4"],
            ["sources", "--seed", "3"],
            ["power", "--k", "6", "--strategy", "hex_grid"],
            ["power", "--k", "6", "--out", "o"],
            ["sweep", "--figure", "5", "--r-rf-m", "10"],
            ["power", "--k", "6", "--p-t-w", "1"],  # the power it solves for
            ["power", "--k", "6", "--eirp-product-w", "4"],
        ],
    )
    def test_flag_not_read_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage" in err and argv[-2] in err

    def test_validation_error_exit_1(self, capsys):
        code, _, err = run(capsys, "range", "--f-hz", "-1")
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["range", "--g-t-dbi", "4000"],  # gain overflows
            ["sources", "--g-t-dbi", "4000"],
            ["range", "--v-min-v", "1e-170"],  # threshold power underflows to 0
            ["range", "--r-r-ohm", "1e308", "--r-l-ohm", "1e308"],
            ["power", "--k", "6", "--v-min-v", "1e-170"],  # required power underflows to 0
            ["sweep", "--figure", "7", "--v-min-v", "1e-170"],
            ["deploy", "--nodes", "5", "--seed", "-1"],  # seeds span [0, 2**64)
            ["deploy", "--nodes", "5", "--seed", "18446744073709551616"],
            ["deploy", "--nodes", "100000000000"],  # over deployment.MAX_NODES
            pytest.param(["power", "--k", "1" + "0" * 400], id="power --k 10**400"),  # not a float
            ["sweep", "--figure", "4", "--r-r-ohm", "1e308"],  # 8 (r_r + r_l) overflows
            ["range", "--p-t-w", "4000dBm"],  # watts overflow a float
            # the closed form leaves (0, inf)
            ["sources", "--r-r-ohm", "1e308", "--r-l-ohm", "1e308"],
            ["sources", "--f-hz", "1e300"],
            ["sources", "--p-t-w", "1e-320", "--r-r-ohm", "1e-300", "--r-l-ohm", "1e-300"],
            ["power", "--k", "6", "--r-r-ohm", "1e308", "--r-l-ohm", "1e308"],
            ["sweep", "--figure", "6", "--r-r-ohm", "1e308", "--r-l-ohm", "1e308"],
            ["sweep", "--figure", "7", "--r-r-ohm", "1e308", "--r-l-ohm", "1e308"],
            # the activation range leaves (0, inf)
            ["range", "--p-t-w", "1e308", "--g-t-dbi", "30"],
            ["range", "--v-min-v", "1e200"],
            # the wavelength c/f overflows
            ["range", "--f-hz", "1e-301"],
            ["deploy", "--nodes", "5", "--f-hz", "1e-301"],  # no --r-rf-m: range from radio
        ],
        ids=" ".join,
    )
    def test_out_of_range_value_is_one_error_line(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "o"
        if argv[0] in ("sweep", "deploy"):
            argv = [*argv, "--out", str(out_dir)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_largest_seed_accepted(self, capsys, tmp_path):
        argv = ["deploy", "--nodes", "5", "--seed", str(2**64 - 1), "--out", str(tmp_path)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert f"# node_seed = {2**64 - 1}\n" in (tmp_path / "coverage.csv").read_text()


def _command_actions(command):
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def _deploy_flags():
    """(flag, dest) of each scenario flag; deploy takes all of them."""
    return [
        (action.option_strings[0], action.dest)
        for action in _command_actions("deploy")
        if action.dest not in ("help", "scenario", "out")
    ]


def test_scenario_flags_store_scenario_keys():
    # overrides are read by field name: a misspelt dest would drop its flag
    keys = {f.name for f in fields(Scenario)}
    flags = _deploy_flags()
    assert len(flags) == 13
    assert all(dest in keys for _, dest in flags)


# two values of each parser kind that the scalar commands read
KIND_VALUES = {
    "power": ("1 W", "2 W"), "plain": ("8.5", "3"), "frequency": ("1 GHz", "2 GHz"),
    "voltage": ("100 mV", "200 mV"), "resistance": ("50", "20"), "area": ("1e4", "2e4"),
}
SCALAR_COMMANDS = {"range": [], "sources": [], "power": ["--k", "6"]}


def _scalar_flags():
    """(command, flag, parser kind) of each scenario flag the scalar commands
    take, read from the parser, so that a flag added later is covered too."""
    kinds = {f.name: f.metadata["kind"] for f in fields(Scenario)}
    return [
        (command, action.option_strings[0], kinds[action.dest])
        for command in SCALAR_COMMANDS
        for action in _command_actions(command)
        if action.dest in kinds
    ]


@pytest.mark.parametrize("command, flag, kind", _scalar_flags(), ids=lambda v: v.strip("-"))
def test_every_scalar_flag_changes_output(capsys, command, flag, kind):
    outputs = []
    for value in KIND_VALUES[kind]:
        code, out, err = run(capsys, command, *SCALAR_COMMANDS[command], flag, value)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] != outputs[1]


PARITY_TEXTS = (
    "8.5", "8.5 dBi", "1_0", "1e999", "-1", "30dBm", " 12", "2GHz", "hex_grid", " hex_grid",
    "4000dBm",
)


@pytest.mark.parametrize("flag,key", _deploy_flags())
def test_flag_parses_like_file_key(flag, key):
    def outcome(make):
        try:
            return make()
        except ValidationError:
            return ValidationError

    mismatched = []
    for text in PARITY_TEXTS:
        from_flag = outcome(
            lambda: cli._scenario_from_args(cli.build_parser().parse_args(["deploy", flag, text]))
        )
        from_file = outcome(lambda: parse_scenario(f"{key} = {text}\n"))
        if from_flag != from_file:
            mismatched.append((text, from_flag, from_file))
    assert mismatched == []


class TestFlagsAgainstFile:
    def test_gain_flag_displaces_eirp_product(self, capsys, anchor_file):
        code, out, err = run(
            capsys, "range", "--scenario", str(anchor_file), "--g-t-dbi", "20"
        )
        assert code == 0, err
        assert float(out) == max_range(RadioParams.from_si(1.0, 20.0, 8.5, 2e9)).meters

    def test_grid_strategy_displaces_sources(self, capsys, tmp_path):
        scenario = tmp_path / "explicit.scn"
        scenario.write_text(
            "field_area_m2 = 1e4\nstrategy = explicit\nsources = 10,10; 30,30\n"
            "r_rf_m = 15\n"
        )
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "deploy", "--scenario", str(scenario), "--out", str(out_dir),
            "--strategy", "hex_grid",
        )
        assert code == 0, err
        hex_grid = place_sources(EventField(100.0, 100.0), 15.0, Strategy.HEX_GRID)
        assert f"sources {len(hex_grid.sources)}\n" in out
        assert "# strategy = hex_grid" in (out_dir / "placement.csv").read_text()

    @pytest.mark.parametrize("flag", [["--v-min-v", "0"], ["--f-hz", "2GHz"]])
    def test_range_with_radio_flag_rejected(self, capsys, tmp_path, flag):
        """A given range skips the link budget, so a radio flag could not
        take effect."""
        code, out, err = run(
            capsys, "deploy", "--r-rf-m", "10", *flag, "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "r_rf_m" in err

    def test_range_flag_displaces_file_radio(self, capsys, tmp_path, design_file):
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "deploy", "--scenario", str(design_file), "--r-rf-m", "10",
            "--out", str(out_dir),
        )
        assert code == 0, err
        assert "# r_rf_m = 10\n" in (out_dir / "placement.csv").read_text()

    def test_radio_flag_displaces_file_range(self, capsys, tmp_path):
        scenario = tmp_path / "range.scn"
        scenario.write_text("r_rf_m = 10\n")
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "deploy", "--scenario", str(scenario), "--f-hz", "2GHz",
            "--out", str(out_dir),
        )
        assert code == 0, err
        r = max_range(RadioParams.from_si(1.0, 8.5, 8.5, 2e9)).meters
        assert f"# r_rf_m = {r!r}\n" in (out_dir / "placement.csv").read_text()

    def test_conflicting_flags_rejected(self, capsys):
        code, out, err = run(capsys, "range", "--p-t-w", "1", "--eirp-product-w", "4")
        assert code == 1
        assert out == ""
        assert "eirp_product_w" in err


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_command_runs(capsys, monkeypatch, tmp_path, argv):
    assert argv[0] == "wpsncov"
    argv = argv[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0, capsys.readouterr().err
