"""Command-line front end.

Subcommands wrap the library one-to-one: `range`, `sources`, `power`,
`deploy`, `interference`, `sweep`. Precedence is flags > scenario file >
built-in defaults (the design point declared on `Scenario`). A flag
takes the text of its file key and goes through the same parser. Exit
codes: 0 success, 1 validation or parse error, 2 I/O error; diagnostics
go to stderr only. Only `deploy` and `interference` import `deployment`,
and with it numpy, and they read its functions at call time.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import figures
from .coverage import Strategy, required_power, source_count, source_count_from_range
from .quantities import ValidationError
from .scenario import RADIO_KEYS, Scenario, apply_overrides, load_scenario, parse_value
from .sweep_report import SweepTable, write_csv, write_svg_plot


class _UsageError(ValidationError):
    """Bad command line; carries the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _key_flags(parser: argparse.ArgumentParser, keys: str, **options: dict) -> None:
    """One flag per scenario key, named like it (`p_t_w` is `--p-t-w`), with
    the key's add_argument options, if any."""
    for key in keys.split():
        parser.add_argument("--" + key.replace("_", "-"), **options.get(key, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wpsncov", description=__doc__.splitlines()[0])
    # Each subcommand takes only the flags it reads, so power, which solves
    # for the transmit power, takes neither of these; radio adds them to gains.
    transmit = "p_t_w eirp_product_w"
    gains = _Parser(add_help=False)
    gains.add_argument("--scenario", type=Path, help="scenario file (key = value lines)")
    _key_flags(gains, " ".join(k for k in RADIO_KEYS.split() if k not in transmit.split()))
    radio = _Parser(add_help=False, parents=[gains])
    _key_flags(radio, transmit, eirp_product_w={
        "help": "p_t*g_t*g_r folded into one value (gains become 1)"})
    area = _Parser(add_help=False)
    area.add_argument("--area-m2", dest="field_area_m2")
    field = _Parser(add_help=False, parents=[radio, area])
    output = _Parser(add_help=False, parents=[field])
    output.add_argument("--out", type=Path, default=Path("."), help="output directory")
    placement = _Parser(add_help=False, parents=[output])
    placement.add_argument("--seed", dest="node_seed", help="RNG seed for node scattering")
    strategies = ",".join(s.value for s in Strategy)
    _key_flags(placement, "r_rf_m strategy", strategy={"metavar": f"{{{strategies}}}"})
    placement.add_argument("--nodes", dest="node_count")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, parent, run, text in (
        ("range", radio, _cmd_range, "print a source's range (r_rf_m, else activation) in m"),
        ("sources", field, _cmd_sources, "print the required source count"),
        ("power", _Parser(add_help=False, parents=[gains, area]), _cmd_power,
         "print required transmit power"),
        ("deploy", placement, _cmd_deploy, "write placement and coverage CSVs"),
        ("interference", placement, _cmd_interference, "write the interference report CSV"),
        ("sweep", output, _cmd_sweep, "write a figure dataset CSV"),
    ):
        sub.add_parser(name, parents=[parent], help=text).set_defaults(run=run)
    sub.choices["power"].add_argument("--k", type=int, required=True, help="number of sources")
    p_sweep = sub.choices["sweep"]
    p_sweep.add_argument("--figure", type=int, required=True, choices=figures.FIGURES)
    p_sweep.add_argument("--svg", action="store_true", help="also write an SVG plot")
    return parser


def _scenario_from_args(args) -> Scenario:
    """The file's scenario with each scenario flag's text parsed as its key's."""
    scenario = load_scenario(args.scenario) if args.scenario else Scenario()
    overrides = {
        f.name: parse_value(f.name, raw)
        for f in fields(Scenario)
        if (raw := getattr(args, f.name, None)) is not None
    }
    return apply_overrides(scenario, **overrides)


def _deployment(scenario: Scenario) -> tuple:
    """The scenario's deployment and its scattered nodes."""
    from . import deployment

    field, r_rf = scenario.event_field(), scenario.source_range()
    strategy = scenario.value("strategy")
    if strategy is Strategy.EXPLICIT:
        dep = deployment.Deployment(field, scenario.sources, r_rf, strategy)
    else:
        dep = deployment.place_sources(field, r_rf, strategy)
    count, seed = scenario.value("node_count"), scenario.value("node_seed")
    return dep, deployment.scatter_nodes(dep.field, count, seed)


def _cmd_range(args, scenario: Scenario) -> int:
    print(repr(scenario.source_range()))
    return 0


def _cmd_sources(args, scenario: Scenario) -> int:
    field = scenario.event_field()
    if scenario.r_rf_m is None:  # the closed form, which the anchors pin bit for bit
        k = source_count(field, scenario.radio())
    else:
        k = source_count_from_range(field, scenario.r_rf_m)
    print(f"exact {k.exact!r}")
    print(f"required {k.required}")
    return 0


def _cmd_power(args, scenario: Scenario) -> int:
    p = required_power(scenario.event_field(), args.k, scenario.radio())
    print(repr(p.watts))
    return 0


def _cmd_deploy(args, scenario: Scenario) -> int:
    import numpy as np

    from . import deployment

    dep, nodes = _deployment(scenario)
    report = deployment.coverage_report(dep, nodes)
    args.out.mkdir(parents=True, exist_ok=True)
    meta = {
        "r_rf_m": dep.r_rf,
        "strategy": dep.strategy.value,
        "field_width_m": dep.field.width,
        "field_height_m": dep.field.height,
        "node_seed": nodes.seed,
    }
    placement = SweepTable(
        columns=("source", "x_m", "y_m"),
        data=(np.arange(len(dep.sources)), *dep.sources.T),
        metadata=meta,
    )
    write_csv(placement, args.out / "placement.csv")
    coverage = SweepTable(
        columns=("node", "x_m", "y_m", "covered", "first_source"),
        data=(np.arange(report.total_count), *nodes.positions.T, report.fed_by != 0,
              report.first_source),
        metadata={**meta, "covered_count": report.covered_count, "total_count": report.total_count},
    )
    write_csv(coverage, args.out / "coverage.csv")
    print(f"sources {len(dep.sources)}")
    print(f"coverage_fraction {report.coverage_fraction!r}")
    return 0


def _cmd_interference(args, scenario: Scenario) -> int:
    import numpy as np

    from . import deployment

    dep, nodes = _deployment(scenario)
    report = deployment.detect_interference(dep, nodes)
    args.out.mkdir(parents=True, exist_ok=True)
    pairs, multi = len(report.pair_i), report.multi_fed
    node = np.arange(pairs + len(multi)) >= pairs  # pair rows, then node rows
    j, d = report.pair_j, report.distance
    if len(multi):  # node rows leave j and distance empty (numpy.ma takes ~14 ms to import)
        j, d = (np.ma.array(np.append(c, multi), mask=node) for c in (j, d))
    table = SweepTable(
        columns=("kind", "i", "j", "distance_m"),
        data=(np.where(node, b"node", b"pair"), np.append(report.pair_i, multi), j, d),
        metadata={"r_rf_m": dep.r_rf, "strategy": dep.strategy.value},
    )
    write_csv(table, args.out / "interference.csv")
    print(f"source_pairs {pairs}")
    print(f"multi_fed_nodes {len(multi)}")
    return 0


def _cmd_sweep(args, scenario: Scenario) -> int:
    table = figures.figure_table(args.figure, scenario.radio(), scenario.event_field())
    args.out.mkdir(parents=True, exist_ok=True)
    emitted = [args.out / f"figure{args.figure}.csv"]
    write_csv(table, emitted[0])
    if args.svg:
        emitted.append(emitted[0].with_suffix(".svg"))
        write_svg_plot(table, figures.figure_plot_options(args.figure), emitted[1])
    for path in emitted:
        print(path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, _scenario_from_args(args))
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
