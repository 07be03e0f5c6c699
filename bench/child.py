"""The measured part of one workload run, in a process of its own so that
its peak memory can be read apart from the other workloads.

Usage: python3 bench/child.py SPEC_JSON RESULT_JSON

The child runs whole passes for SPEC's `seconds` (at least one pass).
A pass runs the workload's operations one at a time, in the workload's
order: `wpsncov` commands as fresh processes, writing into a directory of
the pass's own, and Monte Carlo pairs in this process, one call at 1
worker and one at nproc workers. RESULT_JSON receives, per operation,
its wall time, exit code, output and (for a command) peak RSS; the peak
RSS of this process or of any command it ran, whichever is larger; the
kernel in use; and, when tracing, the spans. Outputs are checked by run.py
once the child has ended, so the checks do not count towards peak memory.

Before each command of a workload that sets `warm_mb`, a short-lived
helper process writes to that many MB of fresh memory and exits, outside
the timed region. Under a hypervisor that takes back the memory a guest
has freed (virtio-balloon free page reporting), the first touch of a
page after a few idle seconds costs 3-5 times as much as a touch of a
page freed just before, and that cost follows the host's load: on a
2-vCPU KVM guest, allocating and touching 1 GiB took 0.22 s right after a
free and 0.74-1.11 s after a 5 s pause. The warm-up hands the command
pages the guest still holds, whatever the pause before it. The Monte
Carlo calls need none: each follows a command or a call that has just
freed as much memory. The helper is not part of the reported peak RSS,
which comes from this process and from the commands alone.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import traceback
from pathlib import Path

from tracer import Tracer, install, now
from workloads import OUT

HERE = Path(__file__).resolve().parent
# allocate argv[1] MB and write one byte per 4 KiB page; numpy asks for huge
# pages on large arrays, as the program's own temporaries do
WARM = "import sys, numpy as np; np.empty(int(sys.argv[1]) << 20, np.uint8)[::4096] = 1"


def _warm(spec):
    if spec["warm_mb"]:
        subprocess.run([sys.executable, "-c", WARM, str(spec["warm_mb"])], check=True,
                       timeout=60, cwd=spec["cwd"])


def _run_cli(name, argv, spec, spans):
    if spec["trace"]:
        spans_file = Path(spec["spans_dir"]) / f"{name}.json"
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "wpsn_coverage.cli", *argv]
    op = {"name": name, "kind": "cli", "argv": argv}
    out_path, err_path = Path(spec["out_dir"]) / "stdout.txt", Path(spec["out_dir"]) / "stderr.txt"
    _warm(spec)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=spec["cwd"])
        killed = threading.Event()
        timer = threading.Timer(max(1.0, spec["deadline"] - start),
                                lambda: (killed.set(), proc.kill()))
        timer.start()
        # wait4 reaps the command and gives its own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        end = now()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    op.update(wall_s=end - start, returncode=proc.returncode, stdout=stdout,
              stderr=stderr[-4000:], maxrss_kb=usage.ru_maxrss)
    if killed.is_set():
        op["error"] = "timed out"
        return op
    if proc.returncode != 0:
        op["error"] = f"exit code {proc.returncode}: {stderr.strip()[-500:]}"
    if spec["trace"]:
        root = {"id": f"{name}:0", "name": "process", "start": start, "end": end,
                "parent": None, "count": None}
        spans.append(root)
        if spans_file.exists():
            for s in json.loads(spans_file.read_text(encoding="utf-8")):
                s["id"] = f"{name}:{s['id']}"
                s["parent"] = f"{name}:{s['parent']}" if s["parent"] is not None else root["id"]
                spans.append(s)
        op["root_span"] = root["id"]
    return op


def _deployment(mc):
    from wpsn_coverage import Deployment, Strategy, load_scenario, max_range, place_sources

    scenario = load_scenario(mc["scenario"])
    field = scenario.event_field()
    strategy = Strategy(mc["strategy"] or scenario.strategy)
    r_rf = scenario.r_rf_m if scenario.r_rf_m is not None else max_range(scenario.radio()).meters
    if strategy is Strategy.EXPLICIT:
        return Deployment(field=field, sources=scenario.sources, r_rf=r_rf, strategy=strategy)
    return place_sources(field, r_rf, strategy)


def _run_mc(mc, dep, tracer, i):
    """Monte Carlo pair i: one call at 1 worker, one at nproc workers."""
    from wpsn_coverage import deployment

    ops = []
    for label, workers in (("mc_w1", 1), ("mc_wn", mc["nproc"])):
        op = {"name": f"{label}.{i}", "kind": "mc", "workers": workers,
              "samples": mc["samples"]}
        start = now()
        try:
            # looked up at call time, so that a traced run calls the wrapper
            op["fraction"] = deployment.monte_carlo_coverage(
                dep, mc["samples"], mc["seed"], workers=workers)
        except Exception:
            op["error"] = traceback.format_exc(limit=3)
        op["wall_s"] = now() - start
        if tracer is not None:
            roots = [s for s in tracer.spans if s["parent"] is None and s["start"] >= start]
            op["root_span"] = roots[-1]["id"] if roots else None
        ops.append(op)
    return ops


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    mc = spec["mc"]
    result: dict = {"passes": []}
    spans: list[dict] = []
    try:
        dep = _deployment(mc)
        result["mc_sources"] = [list(p) for p in dep.sources]
    except Exception:
        dep, mc_error = None, traceback.format_exc(limit=3)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)

    started = now()
    while True:
        begun = now()
        out = Path(spec["out_dir"]) / f"pass{len(result['passes'])}"
        out.mkdir(parents=True)
        ops = []
        for kind, *what in spec["ops"]:
            if kind == "cli":
                name, argv = what
                ops.append(_run_cli(name, [str(out) if a == OUT else a for a in argv],
                                    spec, spans))
            elif dep is not None:
                ops += _run_mc(mc, dep, tracer, what[0])
            else:
                ops += [{"name": f"{label}.{what[0]}", "kind": "mc", "wall_s": None,
                         "error": mc_error} for label in ("mc_w1", "mc_wn")]
        result["passes"].append({"out": str(out), "ops": ops})
        # stop before a pass that would end past --seconds or the deadline
        ended = now()
        if (ended - started + (ended - begun) > spec["seconds"]
                or ended + (ended - begun) > spec["deadline"]):
            break
    if tracer is not None:
        spans += tracer.spans

    import numpy
    from wpsn_coverage import kernels

    peak_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                  + [op.get("maxrss_kb", 0) for p in result["passes"] for op in p["ops"]])
    result.update(spans=spans, peak_rss_kb=peak_kb, kernel=kernels.IMPL,
                  compiled=kernels.HAVE_COMPILED, numpy=numpy.__version__)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
