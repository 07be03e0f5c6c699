import argparse
import math
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from wpsn_coverage import cli
from wpsn_coverage.coverage import EventField, source_count
from wpsn_coverage.deployment import Strategy, place_sources
from wpsn_coverage.link_budget import RadioParams, max_range
from wpsn_coverage.quantities import ValidationError
from wpsn_coverage.scenario import Scenario, parse_scenario

ROOT = Path(__file__).resolve().parents[1]


ANCHOR_SCENARIO = "eirp_product_w = 4\nf_hz = 2GHz\nv_min_v = 100mV\n"
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


def _deploy_flags():
    """(flag, dest) of each scenario flag; deploy takes all of them."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (action.option_strings[0], action.dest)
        for action in sub.choices["deploy"]._actions
        if action.dest not in ("help", "scenario", "out")
    ]


def test_scenario_flags_store_scenario_keys():
    # overrides are read by field name: a misspelt dest would drop its flag
    keys = {f.name for f in fields(Scenario)}
    flags = _deploy_flags()
    assert len(flags) == 13
    assert all(dest in keys for _, dest in flags)


PARITY_TEXTS = (
    "8.5", "8.5 dBi", "1_0", "1e999", "-1", "30dBm", " 12", "2GHz", "hex_grid", " hex_grid",
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
