"""In-memory spans around the public functions of `wpsn_coverage`.

`install` replaces each traced function, in every `wpsn_coverage` module
that holds a reference to it, with a wrapper that records one span per
call: name, start, end, parent and a work count. The program itself is
not modified; the wrappers live only in the traced process.

Timestamps come from `time.monotonic`, which on Linux reads
CLOCK_MONOTONIC, a clock shared by all processes, so spans recorded by a
traced `wpsncov` process can be nested under a span of the process that
started it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

now = time.monotonic


def _arg(index, name):
    def get(args, kwargs, result):
        return kwargs[name] if name in kwargs else args[index]

    return get


def _file_bytes(args, kwargs, result):
    # write_csv(table, destination) and write_svg_plot(table, options, destination)
    destination = kwargs["destination"] if "destination" in kwargs else args[-1]
    if isinstance(destination, (str, os.PathLike)):
        return os.path.getsize(destination)
    return None


# (module, function, span name, work count taken from args/kwargs/result)
TARGETS = (
    ("wpsn_coverage.cli", "main", "cli.main", None),
    ("wpsn_coverage.scenario", "load_scenario", "scenario.load_scenario",
     lambda a, k, r: len(r.sources or ())),
    ("wpsn_coverage.deployment", "place_sources", "deployment.place_sources",
     lambda a, k, r: len(r.sources)),
    ("wpsn_coverage.deployment", "scatter_nodes", "deployment.scatter_nodes",
     lambda a, k, r: len(r.positions)),
    ("wpsn_coverage.deployment", "coverage_report", "deployment.coverage_report",
     lambda a, k, r: r.total_count),
    ("wpsn_coverage.deployment", "detect_interference", "deployment.detect_interference",
     lambda a, k, r: len(r.source_pairs)),
    ("wpsn_coverage.deployment", "monte_carlo_coverage", "deployment.monte_carlo_coverage",
     _arg(1, "samples")),
    ("wpsn_coverage.kernels", "covered_count", "kernels.covered_count", _arg(2, "count")),
    ("wpsn_coverage.kernels", "points_block", "kernels.points_block", _arg(2, "count")),
    ("wpsn_coverage.figures", "figure_table", "figures.figure_table",
     lambda a, k, r: len(r.rows)),
    ("wpsn_coverage.sweep_report", "write_csv", "sweep_report.write_csv", _file_bytes),
    ("wpsn_coverage.sweep_report", "write_svg_plot", "sweep_report.write_svg_plot",
     _file_bytes),
)


class Tracer:
    """Collects spans; worker threads without an open span of their own
    take the innermost open span of the thread that created the tracer
    as their parent (the caller that started them)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        record = {"id": next(self._ids), "name": name, "start": now(), "end": None,
                  "parent": parent, "count": None}
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = now()
            stack.pop()
            self.spans.append(record)

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["count"] = count(args, kwargs, result)
                return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target in all loaded `wpsn_coverage` modules.

    A function imported by name into another module (`from .deployment
    import coverage_report`) or re-exported by an implementation module
    (`kernels.points_block is _kernels_py.points_block`) is replaced
    wherever it is referenced, so internal calls are traced too.
    """
    for module_name, _, _, _ in TARGETS:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items())
               if (n == "wpsn_coverage" or n.startswith("wpsn_coverage.")) and m]
    for module_name, attr, span_name, count in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(original, span_name, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap (worker threads), so the covered part is the
    length of the union of their intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    result = {}
    for s in spans:
        intervals = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        )
        covered, reach = 0.0, s["start"]
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The span `root_id` and all its descendants."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out, todo = [], [s for s in spans if s["id"] == root_id]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children[s["id"]])
    return out
