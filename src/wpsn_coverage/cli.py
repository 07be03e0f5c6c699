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
from .scenario import Scenario, apply_overrides, load_scenario, parse_value
from .sweep_report import SweepTable, write_csv, write_svg_plot


class _UsageError(ValidationError):
    """Bad command line; carries the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


# The argparse options of each flag that needs any. A flag is named like
# its key (`p_t_w` is `--p-t-w`) unless its options give a "flag" name.
_OPTIONS = {
    "scenario": {"type": Path, "help": "scenario file (key = value lines)"},
    "eirp_product_w": {"help": "p_t*g_t*g_r folded into one value (gains become 1)"},
    "field_area_m2": {"flag": "--area-m2"},
    "out": {"type": Path, "default": Path("."), "help": "output directory"},
    "node_seed": {"flag": "--seed", "help": "RNG seed for node scattering"},
    "strategy": {"metavar": "{" + ",".join(s.value for s in Strategy) + "}"},
    "node_count": {"flag": "--nodes"},
    "k": {"type": int, "required": True, "help": "number of sources"},
    "figure": {"type": int, "required": True, "choices": figures.FIGURES},
    "svg": {"action": "store_true", "help": "also write an SVG plot"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wpsncov", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes only the flags it reads, so power, which solves
    # for the transmit power, takes neither p_t_w nor eirp_product_w.
    gains = "scenario g_t_dbi g_r_dbi f_hz v_min_v r_r_ohm r_l_ohm"
    radio = f"{gains} p_t_w eirp_product_w"
    placement = f"{radio} field_area_m2 out node_seed r_rf_m strategy node_count"
    for name, run, text, keys in (
        ("range", _cmd_range, "print a source's range (r_rf_m, else activation) in m",
         f"{radio} r_rf_m"),
        ("sources", _cmd_sources, "print the required source count",
         f"{radio} field_area_m2 r_rf_m"),
        ("power", _cmd_power, "print required transmit power", f"{gains} field_area_m2 k"),
        ("deploy", _cmd_deploy, "write placement and coverage CSVs", placement),
        ("interference", _cmd_interference, "write the interference report CSV", placement),
        ("sweep", _cmd_sweep, "write a figure dataset CSV",
         f"{radio} field_area_m2 out figure svg"),
    ):
        command = sub.add_parser(name, help=text)
        command.set_defaults(run=run)
        for key in keys.split():
            options = dict(_OPTIONS.get(key, {}))
            flag = options.pop("flag", "--" + key.replace("_", "-"))
            command.add_argument(flag, dest=key, **options)
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
        # int32 ids (below MAX_NODES): the writer widens one block at a time
        data=(np.arange(report.total_count, dtype=np.int32), *nodes.positions.T,
              report.fed_by != 0, report.first_source),
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
