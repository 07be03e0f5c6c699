"""Pinned output bytes of `wpsncov deploy` and `wpsncov interference`.

The hashes were recorded from the tuple-based data model; any change in
placement, membership, row order or number formatting (for instance a
numpy scalar repr such as `np.float64(...)` leaking into a CSV) changes
them.
"""

import hashlib

import pytest

from wpsn_coverage import cli

HEX_SCENARIO = (
    "field_area_m2 = 4e4\nstrategy = hex_grid\nr_rf_m = 9.5\n"
    "node_count = 2000\nnode_seed = 7\n"
)
# overlapping discs: nonzero source pairs and multi-fed nodes
EXPLICIT_SCENARIO = (
    "field_width_m = 100\nfield_height_m = 40\nstrategy = explicit\n"
    "sources = 40,20; 52,20; 60.5,25.25; 20,10; 47,27\n"
    "r_rf_m = 8\nnode_count = 1500\nnode_seed = 5\n"
)

GOLDEN = {
    "hex": (HEX_SCENARIO, {
        "placement.csv": "0eebe94008ce559d3244f9abc489d266667082e99a166d1b0dabbccf8b121ccb",
        "coverage.csv": "6fe65640564adb7c29ddbba7590d43a9c50475a2b031733a0da9359bd8c2d86c",
        "interference.csv": "5bdf9d758b83584dc2aeaf56ca7b30780eb097b9907c2216355b9de8dc2c036e",
    }),
    "explicit": (EXPLICIT_SCENARIO, {
        "placement.csv": "2c34b2c6f4c41187ff838feba4ffad5dcc5bacb3cd239f9182deeb859d9a5f39",
        "coverage.csv": "bb405f595ca07a461ad55448f170affad3888115a01b50d7f60e7e5c940448ab",
        "interference.csv": "1cbdd8842b26aaa684feb3772736d9bd005a29aed9a873a26b11a98a60ff1aee",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_pinned(tmp_path, capsys, name):
    text, expected = GOLDEN[name]
    scenario = tmp_path / f"{name}.scn"
    scenario.write_text(text)
    out_dir = tmp_path / "out"
    for command in ("deploy", "interference"):
        assert cli.main([command, "--scenario", str(scenario), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    digests = {
        file: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
        for file in expected
    }
    assert digests == expected
