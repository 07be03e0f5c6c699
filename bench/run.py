#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for `wpsncov`.

Usage (from the repository root, no install needed):

    python3 bench/run.py [--workload design_point|many_nodes|many_sources|all]
                         [--seed N] [--seconds S] [--trace 0|1]

A run of a workload measures the set-up time, then starts one child
process (bench/child.py) that runs passes, one operation at a time:
`wpsncov` commands as fresh processes with `src/` on their path, and
Monte Carlo at 1 and at nproc workers. Whole passes repeat for --seconds
(at least one). Every output is checked against a computation made
apart from the program (bench/workloads.py). With --trace 0 the metrics
are the end-to-end ones; with --trace 1 one untraced and one traced pass
run, each in its own child, and the per-layer self times come from the
traced one.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The lines before it hold a human-readable summary and the
run record (kernel, nproc, versions, seed, per-operation outcomes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import self_times, subtree
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 6

END_TO_END = {
    "setup_s": "s",
    "cli_suite_s": "s",
    "deploy_s": "s",
    "interference_s": "s",
    "mc_rate_w1": "samples/s",
    "mc_rate_wn": "samples/s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> span name whose self time it sums
LAYER_SPANS = {
    "kernels.covered_count_s": "kernels.covered_count",
    "kernels.points_block_s": "kernels.points_block",
    "deployment.monte_carlo_coverage_s": "deployment.monte_carlo_coverage",
    "deployment.scatter_nodes_s": "deployment.scatter_nodes",
    "deployment.coverage_report_s": "deployment.coverage_report",
    "deployment.detect_interference.self_s": "deployment.detect_interference",
    "deployment.place_sources_s": "deployment.place_sources",
    "scenario.load_scenario_s": "scenario.load_scenario",
    "figures.figure_table_s": "figures.figure_table",
    "sweep_report.write_csv_s": "sweep_report.write_csv",
    "sweep_report.write_svg_plot_s": "sweep_report.write_svg_plot",
    "cli.main.self_s": "cli.main",
    "cli.import_s": "cli.import",
    "process.self_s": "process",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_probes(count: int) -> list[float]:
    """Wall times of `count` fresh interpreters importing wpsn_coverage.cli."""
    cmd = [sys.executable, "-c", "import wpsn_coverage.cli"]
    times = []
    for _ in range(count):
        start = time.monotonic()
        # with captured output the end is seen when the pipes close; a bare
        # wait with a timeout polls at up to 50 ms intervals
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=60,
                       capture_output=True)
        times.append(time.monotonic() - start)
    return times


def run_child(wl, work: Path, label: str, trace: bool, seconds: float,
              deadline: float, trace_run: bool = False) -> dict:
    """Run the workload's passes in one child process group and check every
    pass. A child that dies or hangs fails all operations of one pass. In a
    traced run (`trace_run`) both children run the traced pass's schedule,
    so that the untraced one times the same operations."""
    out_dir, spans_dir = work / f"out-{label}", work / f"spans-{label}"
    spans_dir.mkdir()
    schedule = wl.schedule(trace_run)
    mc = dict(wl.mc(), nproc=nproc())
    spec = {"ops": schedule, "mc": mc, "trace": trace, "warm_mb": wl.warm_mb,
            "seconds": seconds, "deadline": deadline, "out_dir": str(out_dir),
            "spans_dir": str(spans_dir), "cwd": str(ROOT)}
    spec_path, result_path = work / f"spec-{label}.json", work / f"result-{label}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path),
                             str(result_path)], env=child_env(), cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()) + 5.0)
    except subprocess.TimeoutExpired:
        code = "killed"
    finally:  # also on SIGTERM (see main) or an interrupt: stop the whole group
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not result_path.exists():
        names = [n for kind, *what in schedule
                 for n in ([what[0]] if kind == "cli" else [f"mc_w1.{what[0]}", f"mc_wn.{what[0]}"])]
        ops = {n: {"name": n, "wall_s": None, "error": f"child ended with {code}",
                   "check_errors": [], "failed": True} for n in names}
        return {"passes": [ops], "spans": []}
    child = json.loads(result_path.read_text(encoding="utf-8"))
    passes = []
    for p in child["passes"]:
        ops = {op["name"]: op for op in p["ops"]}
        try:
            found = wl.check(ops, Path(p["out"]), child)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = {n: [] if "error" in op else [f"check could not read outputs: {exc!r}"]
                     for n, op in ops.items()}
        for name, op in ops.items():
            errors = found.get(name, [])
            first = ops[name.partition("#")[0]]  # a repeated command must print the same
            if (op is not first and "error" not in op and "error" not in first
                    and op["stdout"] != first["stdout"]):
                errors.append("stdout differs from the command's first run")
            op["check_errors"] = errors
            op["failed"] = "error" in op or bool(errors)
        passes.append(ops)
    shutil.rmtree(out_dir, ignore_errors=True)
    child["passes"] = passes
    return child


def end_to_end_metrics(child: dict, wl, setup: float) -> dict:
    """Over the operations of all passes that did not fail: the median wall
    time of each command, the command set as the sum of those medians, and
    Monte Carlo rates as samples over the summed wall time of the calls."""
    walls = {name.partition("#")[0]: [] for name in child["passes"][0]}
    mc_samples, mc_wall = {"mc_rate_w1": 0, "mc_rate_wn": 0}, {"mc_rate_w1": 0.0, "mc_rate_wn": 0.0}
    for ops in child["passes"]:
        for name, op in ops.items():
            if op["failed"]:
                continue
            if op["kind"] == "mc":
                metric = "mc_rate_w1" if name.startswith("mc_w1") else "mc_rate_wn"
                mc_samples[metric] += op["samples"]
                mc_wall[metric] += op["wall_s"]
            else:
                walls[name.partition("#")[0]].append(op["wall_s"])
    median = {name: statistics.median(w) for name, w in walls.items() if w}
    cli = [name for name in walls if not name.startswith("mc_")]
    values = {
        "setup_s": setup,
        "cli_suite_s": sum(median[n] for n in cli) if all(n in median for n in cli) else None,
        "deploy_s": median.get("deploy"),
        "interference_s": median.get("interference"),
        **{m: mc_samples[m] / mc_wall[m] if mc_wall[m] else None for m in mc_samples},
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0 if "peak_rss_kb" in child else None,
    }
    return {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}


def layer_metrics(untraced: dict, traced: dict) -> tuple[dict, list]:
    """Per-layer self times from the traced pass, plus the per-command
    accounting: the self times under each `wpsncov` command sum to its
    traced wall time, which differs from its untraced wall time by the
    trace overhead."""
    spans = traced["spans"]
    selfs = self_times(spans)
    metrics = {name: 0.0 for name in LAYER_SPANS}
    by_span = {span: metric for metric, span in LAYER_SPANS.items()}
    csv_bytes = 0
    for s in spans:
        metric = by_span.get(s["name"])
        if metric:
            metrics[metric] += selfs[s["id"]]
        if s["name"] == "sweep_report.write_csv" and s["count"]:
            csv_bytes += s["count"]
    ops, base_ops = traced["passes"][0], untraced["passes"][0]
    accounting = []
    overhead = 0.0
    for name, op in ops.items():
        base = base_ops[name]
        if op["failed"] or base["failed"] or op.get("root_span") is None:
            continue
        op_overhead = op["wall_s"] - base["wall_s"]
        overhead += op_overhead
        if op["kind"] != "cli":
            continue  # worker-thread self times overlap in wall time
        self_sum = sum(selfs[s["id"]] for s in subtree(spans, op["root_span"]))
        accounting.append({
            "op": name, "untraced_s": base["wall_s"], "traced_s": op["wall_s"],
            "self_sum_s": self_sum, "overhead_s": op_overhead,
            "accounted": abs(self_sum - base["wall_s"]) <= abs(op_overhead) + 1e-3,
        })
    by_id = {s["id"]: s for s in spans}
    w1, wn = ops["mc_w1.0"], ops["mc_wn.0"]
    if w1.get("root_span") in by_id and wn.get("root_span") in by_id:
        t1 = by_id[w1["root_span"]]["end"] - by_id[w1["root_span"]]["start"]
        tn = by_id[wn["root_span"]]["end"] - by_id[wn["root_span"]]["start"]
        metrics["deployment.mc_parallel_efficiency"] = t1 / (wn["workers"] * tn)
    metrics["sweep_report.csv_bytes"] = csv_bytes
    metrics["trace.overhead_s"] = overhead
    return metrics, accounting


LAYER_UNITS = {"deployment.mc_parallel_efficiency": "ratio", "sweep_report.csv_bytes": "bytes"}
LAYER_METRICS = [*LAYER_SPANS, "deployment.mc_parallel_efficiency", "sweep_report.csv_bytes",
                 "trace.overhead_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    wl = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.prepare(work, seed)

    accounting = []
    if trace:
        untraced = run_child(wl, work, "untraced", False, 0.0, deadline, trace_run=True)
        traced = run_child(wl, work, "traced", True, 0.0, deadline, trace_run=True)
        children = [untraced, traced]
        values = {}
        if "peak_rss_kb" in untraced and "peak_rss_kb" in traced:
            values, accounting = layer_metrics(untraced, traced)
        metrics = {m: {"value": values.get(m), "unit": LAYER_UNITS.get(m, "s")}
                   for m in LAYER_METRICS}
        (WORK / f"spans-{name}-seed{seed}.json").write_text(json.dumps(traced["spans"]),
                                                            encoding="utf-8")
    else:
        # setup_s: the median of probes taken before and after the passes, so
        # that it spans the run; the first import only fills the bytecode cache
        setup_probes(1)
        probes = setup_probes(SETUP_PROBES // 2)
        child = run_child(wl, work, "untraced", False, seconds, deadline)
        probes += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
        children = [child]
        metrics = end_to_end_metrics(child, wl, statistics.median(probes))

    ops = [op for child in children for ops in child["passes"] for op in ops.values()]
    attempted = len(ops)
    failed = sum(op["failed"] for op in ops)
    correct = not any(op["check_errors"] for op in ops)
    first = children[0]
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "kernel": first.get("kernel"), "compiled": first.get("compiled"),
        "nproc": nproc(), "python": platform.python_version(), "numpy": first.get("numpy"),
        "node_seed": seed, "mc_seed": seed, "passes": sum(len(c["passes"]) for c in children),
        "attempted": attempted, "failed": failed, "correct": correct,
        "wall_s": time.monotonic() - started,
        "ops": [{k: op.get(k) for k in ("name", "wall_s", "failed", "error", "check_errors")}
                for op in ops],
        "accounting": accounting,
    }
    (WORK / f"record-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return {"record": record, "result": {"correct": correct, "attempted": attempted,
                                         "failed": failed, "metrics": metrics}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wpsn_coverage" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} is not a wpsn-coverage checkout (no src/wpsn_coverage, "
              "no scenarios/)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = run["result"]
        print("record " + json.dumps({k: v for k, v in run["record"].items() if k != "ops"}))
        for metric, m in run["result"]["metrics"].items():
            print(f"{name:>13} {metric:<40} {m['value']!r} {m['unit']}")
        bad = [op for op in run["record"]["ops"] if op["failed"]]
        for op in bad:
            print(f"{name:>13} FAILED {op['name']}: {op['error'] or op['check_errors']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
