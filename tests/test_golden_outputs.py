"""Pinned output bytes of `wpsncov deploy`, `interference` and `sweep`.

The deploy/interference hashes were recorded from the tuple-based data
model, the figure hashes from the per-figure sweep functions; any change
in placement, membership, grids, row order or number formatting (for
instance a numpy scalar repr such as `np.float64(...)` leaking into a
CSV) changes them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

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


ANCHOR_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "range_anchor.scn"

# scenario -> figure -> (figure<n>.csv, figure<n>.svg)
FIGURE_GOLDEN = {
    "default": {
        4: (
            "716d4ee41a5c9876bd5db75ea42c65864599663ca539d09cb9f38bd4640f482e",
            "582c3e76ddaf40fb80f8a8fe7574953151adc65121dcb59ca30ae106912c8e09",
        ),
        5: (
            "603d0aa0f829dbc653884d84d218281489bb7896684eeef947a98385a0620e5d",
            "06c07d570b7de65064f5778a80a6d7355106749533fd7b8ba3444478a5d2343a",
        ),
        6: (
            "48b4c40a6fcc563417c57379d58e8b09f86997f9428c66383f25adf553a06b0f",
            "f2bd19345769e425a80ef2dac24d3c321cf1935456b1491cea604b0860e60d89",
        ),
        7: (
            "6ada631364a389f9d49826016f6ac7a0095d54a92447541e78fd47614ce09432",
            "ea1cb5e8c455d979e11d64183175540aec823905c0656d75c04117573182232b",
        ),
        8: (
            "d33873c9fb096b6a358a0fbe2d435fe4fb7528023d59dac97cb3b5678df2b92f",
            "7b7d9f3060bb2486d843567ba703fd3551cfa9a17f647f6ed8b7161e6057cf11",
        ),
    },
    "range_anchor": {
        4: (
            "c63fe3ebdbdaf9945382b2ef19e88ef3657d2e0e34c88e21b32ccc0c359f6ab4",
            "582c3e76ddaf40fb80f8a8fe7574953151adc65121dcb59ca30ae106912c8e09",
        ),
        5: (
            "21c83ae2e48d159593a0448996810f480dcaeeabbba7a9c4fe9f61da539a4320",
            "c2409ca5d5f773407bbdf4120ff339cde13a9e7f19b34fe25ac6acbb0ac404c8",
        ),
        6: (
            "9e841786fdb7cb622951a749f434d4558b86c49b5becb7b4bca54818c5ad2813",
            "4b8159e90427d53778a5651736f4610780635b68f45bc3e6102093f4264f2293",
        ),
        7: (
            "b094acb65e5eb9bcb8db0de12825f0af221cf2b3bf6926a2473466082c9aa709",
            "1df891dec81f71a9889d1cfcb47629b70bcb2438aabc0199d4961e38b9eab11b",
        ),
        8: (
            "6781997f784b378b3ea5e125190c8b01c95ddea6653863202210abad85880e09",
            "8b2d371b734235907e46693f4945e5f6d1c1a2ea5273316a1a18b69b4caf59ce",
        ),
    },
}


@pytest.mark.parametrize("figure", sorted(FIGURE_GOLDEN["default"]))
@pytest.mark.parametrize("name", sorted(FIGURE_GOLDEN))
def test_figure_bytes_pinned(tmp_path, capsys, name, figure):
    scenario = ["--scenario", str(ANCHOR_SCENARIO)] if name == "range_anchor" else []
    argv = ["sweep", "--figure", str(figure), "--svg", "--out", str(tmp_path), *scenario]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256((tmp_path / f"figure{figure}.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "svg")
    )
    assert digests == FIGURE_GOLDEN[name][figure]


# numpy's dispatch without its AVX-512 paths, as on a CPU that lacks them; numpy
# warns at import about a name it does not dispatch
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("figure", [5, 6])
def test_log_figure_bytes_without_avx512(tmp_path, figure):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}
    argv = ["sweep", "--figure", str(figure), "--svg", "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "wpsn_coverage.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    digests = tuple(
        hashlib.sha256((tmp_path / f"figure{figure}.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "svg")
    )
    assert digests == FIGURE_GOLDEN["default"][figure]
