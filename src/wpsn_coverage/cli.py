"""Command-line front end.

Subcommands wrap the library one-to-one: `range`, `sources`, `power`,
`deploy`, `interference`, `sweep`. Precedence is flags > scenario file >
built-in defaults (the 1 W / 8.5 dBi / 1 GHz / 100 mV / 50+50 ohm /
4e4 m2 design point). Exit codes: 0 success, 1 validation or parse
error, 2 I/O error; diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import figures
from .coverage import source_count, required_power
from .deployment import (
    Deployment,
    Strategy,
    detect_interference,
    coverage_report,
    place_sources,
    scatter_nodes,
)
from .link_budget import max_range
from .quantities import ValidationError
from .scenario import (
    Scenario,
    apply_overrides,
    load_scenario,
    parse_magnitude,
)
from .sweep_report import SweepTable, write_csv, write_svg_plot


class _UsageError(ValidationError):
    """Bad command line; carries the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _magnitude(dimension: str):
    def parse(raw: str) -> float:
        return parse_magnitude(raw, dimension, dimension)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wpsncov", description=__doc__.splitlines()[0])
    # Each subcommand takes only the flags it reads; each parent adds to the one before.
    radio = _Parser(add_help=False)
    radio.add_argument("--scenario", type=Path, help="scenario file (key = value lines)")
    radio.add_argument("--p-t-w", type=_magnitude("power"), dest="p_t_w")
    radio.add_argument(
        "--eirp-product-w", type=_magnitude("power"), dest="eirp_product_w",
        help="p_t*g_t*g_r folded into one value (gains become 1)",
    )
    radio.add_argument("--g-t-dbi", type=float, dest="g_t_dbi")
    radio.add_argument("--g-r-dbi", type=float, dest="g_r_dbi")
    radio.add_argument("--f-hz", type=_magnitude("frequency"), dest="f_hz")
    radio.add_argument("--v-min-v", type=_magnitude("voltage"), dest="v_min_v")
    radio.add_argument("--r-r-ohm", type=_magnitude("resistance"), dest="r_r_ohm")
    radio.add_argument("--r-l-ohm", type=_magnitude("resistance"), dest="r_l_ohm")
    field = _Parser(add_help=False, parents=[radio])
    field.add_argument("--area-m2", type=_magnitude("area"), dest="field_area_m2")
    output = _Parser(add_help=False, parents=[field])
    output.add_argument("--out", type=Path, default=Path("."), help="output directory")
    placement = _Parser(add_help=False, parents=[output])
    placement.add_argument(
        "--seed", type=int, dest="node_seed", help="RNG seed for node scattering"
    )
    placement.add_argument("--r-rf-m", type=_magnitude("length"), dest="r_rf_m")
    placement.add_argument(
        "--strategy", type=Strategy, choices=[s.value for s in Strategy], dest="strategy"
    )
    placement.add_argument("--nodes", type=int, dest="node_count")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("range", parents=[radio], help="print the activation range in meters")
    sub.add_parser("sources", parents=[field], help="print the required source count")
    p_power = sub.add_parser("power", parents=[field], help="print required transmit power")
    p_power.add_argument("--k", type=int, required=True, help="number of sources")
    sub.add_parser("deploy", parents=[placement], help="write placement and coverage CSVs")
    sub.add_parser("interference", parents=[placement], help="write the interference report CSV")
    p_sweep = sub.add_parser("sweep", parents=[output], help="write a figure dataset CSV")
    p_sweep.add_argument("--figure", type=int, required=True, choices=figures.FIGURES)
    p_sweep.add_argument("--svg", action="store_true", help="also write an SVG plot")
    return parser


_OVERRIDE_KEYS = (
    "p_t_w", "eirp_product_w", "g_t_dbi", "g_r_dbi", "f_hz", "v_min_v",
    "r_r_ohm", "r_l_ohm", "field_area_m2", "r_rf_m", "strategy", "node_count", "node_seed",
)


def _scenario_from_args(args) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else Scenario()
    overrides = {key: getattr(args, key, None) for key in _OVERRIDE_KEYS}
    return apply_overrides(scenario, **overrides)


def _deployment(scenario: Scenario) -> Deployment:
    field = scenario.event_field()
    r_rf = (
        scenario.r_rf_m
        if scenario.r_rf_m is not None
        else max_range(scenario.radio()).meters
    )
    strategy = scenario.strategy or Strategy.SQUARE_GRID
    if strategy is Strategy.EXPLICIT:
        if not scenario.sources:
            raise ValidationError("explicit strategy requires a sources list")
        return Deployment(
            field=field, sources=scenario.sources, r_rf=r_rf, strategy=strategy
        )
    return place_sources(field, r_rf, strategy)


def _write_rows(path: Path, columns, rows, metadata) -> None:
    table = SweepTable(columns=tuple(columns), rows=tuple(rows), metadata=metadata)
    write_csv(table, path)


def _cmd_range(args) -> int:
    scenario = _scenario_from_args(args)
    print(repr(max_range(scenario.radio()).meters))
    return 0


def _cmd_sources(args) -> int:
    scenario = _scenario_from_args(args)
    k = source_count(scenario.event_field(), scenario.radio())
    print(f"exact {k.exact!r}")
    print(f"required {k.required}")
    return 0


def _cmd_power(args) -> int:
    scenario = _scenario_from_args(args)
    p = required_power(scenario.event_field(), args.k, scenario.radio())
    print(repr(p.watts))
    return 0


def _node_field(scenario: Scenario, dep: Deployment):
    count = scenario.node_count if scenario.node_count is not None else 1000
    seed = scenario.node_seed if scenario.node_seed is not None else 1
    return scatter_nodes(dep.field, count, seed)


def _cmd_deploy(args) -> int:
    scenario = _scenario_from_args(args)
    dep = _deployment(scenario)
    nodes = _node_field(scenario, dep)
    report = coverage_report(dep, nodes)
    args.out.mkdir(parents=True, exist_ok=True)
    meta = {
        "r_rf_m": dep.r_rf,
        "strategy": dep.strategy.value,
        "field_width_m": dep.field.width,
        "field_height_m": dep.field.height,
        "node_seed": nodes.seed,
    }
    _write_rows(
        args.out / "placement.csv",
        ("source", "x_m", "y_m"),
        np.column_stack((np.arange(len(dep.sources)), dep.sources)).tolist(),
        meta,
    )
    fed = np.diff(report.indptr) > 0
    first_source = np.full(len(fed), -1.0)
    first_source[fed] = report.indices[report.indptr[:-1][fed]]
    _write_rows(
        args.out / "coverage.csv",
        ("node", "x_m", "y_m", "covered", "first_source"),
        np.column_stack(
            (np.arange(len(fed)), nodes.positions, fed, first_source)
        ).tolist(),
        {**meta, "covered_count": report.covered_count, "total_count": report.total_count},
    )
    print(f"sources {len(dep.sources)}")
    print(f"coverage_fraction {report.coverage_fraction!r}")
    return 0


def _cmd_interference(args) -> int:
    scenario = _scenario_from_args(args)
    dep = _deployment(scenario)
    nodes = _node_field(scenario, dep)
    report = detect_interference(dep, nodes)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [("pair", i, j, d) for i, j, d in report.source_pairs]
    rows += [("node", idx, "", "") for idx in report.multi_fed_nodes]
    _write_rows(
        args.out / "interference.csv",
        ("kind", "i", "j", "distance_m"),
        rows,
        {"r_rf_m": dep.r_rf, "strategy": dep.strategy.value},
    )
    print(f"source_pairs {len(report.source_pairs)}")
    print(f"multi_fed_nodes {len(report.multi_fed_nodes)}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _scenario_from_args(args)
    table = figures.figure_table(args.figure, scenario.radio(), scenario.event_field())
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"figure{args.figure}.csv"
    write_csv(table, csv_path)
    emitted = [csv_path]
    if args.svg:
        svg_path = args.out / f"figure{args.figure}.svg"
        write_svg_plot(table, figures.figure_plot_options(args.figure), svg_path)
        emitted.append(svg_path)
    for path in emitted:
        print(path)
    return 0


_COMMANDS = {
    "range": _cmd_range,
    "sources": _cmd_sources,
    "power": _cmd_power,
    "deploy": _cmd_deploy,
    "interference": _cmd_interference,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
