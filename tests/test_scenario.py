import argparse
import re
from dataclasses import fields

import pytest

from wpsn_coverage import cli, figures
from wpsn_coverage.deployment import Strategy
from wpsn_coverage.link_budget import max_range
from wpsn_coverage.scenario import (
    ConstraintError,
    Scenario,
    ScenarioParseError,
    UnitError,
    UnknownKeyError,
    apply_overrides,
    load_scenario,
    parse_magnitude,
    parse_scenario,
)


DESIGN_DOC = """\
# built-in design point, spelled out
p_t_w = 1 W
g_t_dbi = 8.5
g_r_dbi = 8.5
f_hz = 1 GHz
v_min_v = 100 mV
r_r_ohm = 50
r_l_ohm = 50
field_area_m2 = 0.04 km2
"""


class TestParseMagnitude:
    @pytest.mark.parametrize(
        "raw,dimension,expected",
        [
            ("1GHz", "frequency", 1e9),
            ("500 MHz", "frequency", 5e8),
            ("100mV", "voltage", 0.1),
            ("0.04km2", "area", 4e4),
            ("30dBm", "power", 1.0),
            ("4", "power", 4.0),
            ("2.5e3", "plain", 2500.0),
        ],
    )
    def test_conversions(self, raw, dimension, expected):
        assert parse_magnitude(raw, dimension, "k") == pytest.approx(expected, rel=1e-12)

    def test_wrong_dimension_suffix(self):
        with pytest.raises(UnitError):
            parse_magnitude("1GHz", "voltage", "v_min_v")

    def test_garbage(self):
        with pytest.raises(UnitError):
            parse_magnitude("fast", "frequency", "f_hz")

    def test_bad_number(self):
        # the pattern admits any run of digits and dots; float() rejects this one
        with pytest.raises(UnitError, match=r"^p_t_w: bad number '1\.2\.3'$"):
            parse_scenario("p_t_w = 1.2.3\n")


class TestParseScenario:
    def test_design_document(self):
        s = parse_scenario(DESIGN_DOC)
        assert s.p_t_w == 1.0
        assert s.f_hz == 1e9
        assert s.v_min_v == pytest.approx(0.1)
        assert s.field_area_m2 == pytest.approx(4e4)
        radio = s.radio()
        assert radio.eirp_product_w == pytest.approx(50.12, rel=1e-3)
        assert s.event_field().area == pytest.approx(4e4)

    def test_empty_document_gives_defaults(self):
        s = parse_scenario("")
        radio = s.radio()
        assert radio.p_t.watts == 1.0
        assert radio.f.hertz == 1e9
        assert s.event_field().area == pytest.approx(4e4)

    def test_exclusive_power_keys(self):
        with pytest.raises(ConstraintError) as err:
            parse_scenario("p_t_w = 1\neirp_product_w = 4\n")
        assert "p_t_w" in str(err.value) and "eirp_product_w" in str(err.value)

    def test_unknown_key_named(self):
        with pytest.raises(UnknownKeyError) as err:
            parse_scenario("p_tx_w = 1\n")
        assert "p_tx_w" in str(err.value)
        assert "line 1" in str(err.value)

    def test_malformed_line(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("p_t_w = 1\njust some words\n")
        assert "line 2" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("f_hz = 1GHz\nf_hz = 2GHz\n")

    def test_unit_violation_carries_key(self):
        with pytest.raises(UnitError) as err:
            parse_scenario("f_hz = 1 volt\n")
        assert "f_hz" in str(err.value)

    def test_explicit_sources(self):
        s = parse_scenario("strategy = explicit\nsources = 10,20; 30.5,40\n")
        assert s.strategy is Strategy.EXPLICIT
        assert s.sources == ((10.0, 20.0), (30.5, 40.0))

    def test_explicit_sources_skip_empty_chunks(self):
        s = parse_scenario("strategy = explicit\nsources = 1,2;;3,4;\n")
        assert s.sources == ((1.0, 2.0), (3.0, 4.0))

    @pytest.mark.parametrize("raw, message", [
        ("1,2,3", "expected 'x,y' pairs separated by ';', got '1,2,3'"),
        ("a,b", "bad coordinate in 'a,b'"),
    ])
    def test_explicit_sources_rejected(self, raw, message):
        with pytest.raises(UnitError, match=f"^sources: {re.escape(message)}$"):
            parse_scenario(f"strategy = explicit\nsources = {raw}\n")

    def test_sweep_block(self):
        # the figure grids are fixed; a sweep key is rejected, not ignored
        with pytest.raises(UnknownKeyError) as err:
            parse_scenario("sweep_axis = area\n")
        assert "sweep_axis" in str(err.value)

    def test_width_height_pairing_enforced(self):
        with pytest.raises(ConstraintError):
            parse_scenario("field_width_m = 100\n")

    @pytest.mark.parametrize(
        "doc",
        [
            "eirp_product_w = 4\ng_t_dbi = 3\n",
            "eirp_product_w = 4\ng_r_dbi = 3\n",
            "sources = 10,10\n",
            "strategy = hex_grid\nsources = 10,10; 30,30\n",
            "strategy = explicit\n",
            "r_rf_m = 10\nf_hz = 2GHz\n",
            "r_rf_m = 10\neirp_product_w = 4\n",
        ],
    )
    def test_key_without_effect_rejected(self, doc):
        with pytest.raises(ConstraintError):
            parse_scenario(doc)

    def test_eirp_product_radio(self):
        s = parse_scenario("eirp_product_w = 4\nf_hz = 2GHz\n")
        radio = s.radio()
        assert radio.eirp_product_w == 4.0
        assert radio.g_t.linear == 1.0


@pytest.mark.parametrize(
    "text,error",
    [
        ("nonsense = 1\n", UnknownKeyError),
        ("f_hz = 1 W\n", UnitError),
        ("f_hz\n", ScenarioParseError),
        ("sources = 10,10\n", ConstraintError),
    ],
)
def test_load_scenario_error_names_the_file(tmp_path, text, error):
    path = tmp_path / "f.scn"
    path.write_text(text)
    with pytest.raises(error) as info:
        load_scenario(path)
    assert str(info.value).startswith(f"{path}: ")


def test_unknown_strategy_names_the_file_and_the_key(tmp_path):
    path = tmp_path / "f.scn"
    path.write_text("strategy =  bogus \n")
    message = "strategy: 'bogus' is not one of square_grid, hex_grid, explicit"
    with pytest.raises(UnitError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_scenario(path)


def test_overflowing_dbm_value_names_the_file(tmp_path):
    path = tmp_path / "f.scn"
    path.write_text("p_t_w = 4000 dBm\n")
    with pytest.raises(UnitError, match=f"^{re.escape(str(path))}: p_t_w: "):
        load_scenario(path)


class TestOverrides:
    def test_flag_beats_file(self):
        s = parse_scenario(DESIGN_DOC)
        s = apply_overrides(s, f_hz=2e9)
        assert s.radio().f.hertz == 2e9

    def test_eirp_override_displaces_p_t(self):
        s = parse_scenario(DESIGN_DOC)
        s = apply_overrides(s, eirp_product_w=4.0)
        assert s.p_t_w is None
        assert s.radio().eirp_product_w == 4.0

    def test_none_overrides_ignored(self):
        s = parse_scenario(DESIGN_DOC)
        assert apply_overrides(s, f_hz=None) == s

    def test_grid_strategy_override_displaces_sources(self):
        s = parse_scenario("strategy = explicit\nsources = 10,10\n")
        s = apply_overrides(s, strategy=Strategy.HEX_GRID)
        assert s.sources is None

    def test_overrides_never_displace_each_other(self):
        with pytest.raises(ConstraintError):
            apply_overrides(Scenario(), p_t_w=1.0, eirp_product_w=4.0)

    def test_range_override_displaces_radio(self):
        s = apply_overrides(parse_scenario(DESIGN_DOC), r_rf_m=10.0)
        assert s.r_rf_m == 10.0
        assert all(getattr(s, key) is None for key in ("p_t_w", "g_t_dbi", "f_hz", "v_min_v"))

    def test_radio_override_displaces_range(self):
        s = apply_overrides(parse_scenario("r_rf_m = 10\n"), f_hz=2e9)
        assert s.r_rf_m is None
        assert s.radio().f.hertz == 2e9

    def test_source_range_is_r_rf_m_else_the_radio_range(self):
        assert parse_scenario("r_rf_m = 2\n").source_range() == 2.0
        s = parse_scenario(DESIGN_DOC)
        assert s.source_range() == max_range(s.radio()).meters

    def test_area_override_displaces_rectangle(self):
        s = parse_scenario("field_width_m = 100\nfield_height_m = 50\n")
        s = apply_overrides(s, field_area_m2=4e4)
        assert s.event_field().area == pytest.approx(4e4)


# key -> (other lines the key needs, two values that must give different outputs)
KEY_EFFECTS = {
    "p_t_w": ("", "1 W", "2 W"),
    "eirp_product_w": ("", "4 W", "8 W"),
    "g_t_dbi": ("", "8.5", "3"),
    "g_r_dbi": ("", "8.5", "3"),
    "f_hz": ("", "1 GHz", "2 GHz"),
    "v_min_v": ("", "100 mV", "200 mV"),
    "r_r_ohm": ("", "50", "20"),
    "r_l_ohm": ("", "50", "20"),
    "field_width_m": ("field_height_m = 100\n", "200", "300"),
    "field_height_m": ("field_width_m = 200\n", "100", "150"),
    "field_area_m2": ("", "1e4", "2e4"),
    "strategy": ("", "square_grid", "hex_grid"),
    "sources": ("strategy = explicit\nr_rf_m = 10\n", "50,50", "60,60"),
    "r_rf_m": ("", "10", "12"),
    "node_count": ("", "100", "200"),
    "node_seed": ("", "1", "2"),
}

COMMANDS = (
    ["range"], ["sources"], ["power", "--k", "6"], ["deploy"], ["interference"],
    *(["sweep", "--figure", str(n), "--svg"] for n in figures.FIGURES),
)


# file-only keys that a flag's key stands for: a command that reads the flag reads them
PARTNERS = {"field_area_m2": ("field_width_m", "field_height_m"), "strategy": ("sources",)}


def _reads(command: str, key: str) -> bool:
    """Whether the command reads the key: its flag, or the partner of one."""
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {action.dest for action in sub.choices[command]._actions}
    return key in flags or any(key in PARTNERS.get(flag, ()) for flag in flags)


def _outputs(tmp_path, capsys, doc):
    """Per command, its stdout and then every file it wrote."""
    scenario = tmp_path / "s.scn"
    scenario.write_text(doc)
    seen = []
    for n, command in enumerate(COMMANDS):
        out_dir = tmp_path / f"out{n}"
        writes = command[0] in ("deploy", "interference", "sweep")
        out = ["--out", str(out_dir)] if writes else []
        argv = [*command, "--scenario", str(scenario), *out]
        assert cli.main(argv) == 0, capsys.readouterr().err
        files = sorted(out_dir.iterdir()) if writes else []
        seen.append([capsys.readouterr().out, *((p.name, p.read_bytes()) for p in files)])
    return seen


@pytest.mark.parametrize("key", sorted(f.name for f in fields(Scenario)))
def test_every_key_takes_effect(tmp_path, capsys, key):
    context, a, b = KEY_EFFECTS[key]
    first = _outputs(tmp_path, capsys, f"{context}{key} = {a}\n")
    second = _outputs(tmp_path, capsys, f"{context}{key} = {b}\n")
    assert first != second
    # one file serves every command, so a command ignores the keys it does not read
    changed_unread = [
        " ".join(command) for command, x, y in zip(COMMANDS, first, second)
        if x != y and not _reads(command[0], key)
    ]
    assert changed_unread == []
