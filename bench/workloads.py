"""The benchmark's three workloads: how each makes its inputs from the
seed, which operations one pass runs, and the checks that compare every
output with a computation made apart from the program.

Every workload runs the same kinds of operation (`deploy`, `interference`
and Monte Carlo at 1 and at nproc workers), so every end-to-end metric is
measured on every workload; what differs is the size that dominates.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

OUT = "{out}"  # stands for the pass's output directory in command lines
C = 3.0e8  # m/s: the model rounds c, and its anchors (6.75 / 13.49 / 26.98 m) assume it
SIGMAS = 5.0

# The design point of scenarios/design_point.scn and the range-anchor set of
# scenarios/range_anchor.scn, restated so that no check reads them back
# through the program.
DESIGN_P_T_W = 1.0
DESIGN_G = 10.0 ** (8.5 / 10.0)  # 8.5 dBi per antenna
DESIGN_F_HZ = 1e9
V_MIN_V = 0.1
R_LOOP_OHM = 100.0  # 50 + 50 ohm
DESIGN_AREA_M2 = 4e4
ANCHOR_EIRP_W = 4.0
ANCHORS = ((2e9, None, 6.75), (1e9, "1GHz", 13.49), (5e8, "500MHz", 26.98))


def activation_range(eirp_w: float, f_hz: float) -> float:
    """Distance d at which P_t G_t G_r (lambda / 4 pi d)^2 equals the
    wake-up power V^2 / 8(R_r + R_l)."""
    p_min = V_MIN_V**2 / (8.0 * R_LOOP_OHM)
    return (C / f_hz) / (4.0 * math.pi) * math.sqrt(eirp_w / p_min)


def design_range(p_t_w: float = DESIGN_P_T_W, f_hz: float = DESIGN_F_HZ) -> float:
    return activation_range(p_t_w * DESIGN_G * DESIGN_G, f_hz)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def within_sigmas(hits: int, n: int, p: float) -> str | None:
    sigma = math.sqrt(n * p * (1.0 - p))
    if abs(hits - n * p) <= SIGMAS * sigma:
        return None
    return f"{hits} of {n} is more than {SIGMAS:g} sigma from {n * p:.1f} (sigma {sigma:.2f})"


def read_table(path: Path) -> tuple[dict, list[str], list[list[float]]]:
    """A `wpsncov` CSV: '# key = value' lines, a header, numeric rows."""
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


def stdout_values(op: dict) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in op["stdout"].splitlines() if " " in line)


def check_disjoint_inside(sources, r: float, width: float, height: float) -> str | None:
    """The exact covered area is S pi r^2 only if discs are disjoint and
    inside the field; check both on the placement the program produced."""
    pts = np.asarray(sources, dtype=np.float64).reshape(-1, 2)
    slack = 1e-9 * r
    if ((pts - r < -slack) | (pts[:, 0:1] + r > width + slack)
            | (pts[:, 1:2] + r > height + slack)).any():
        return "a source disc reaches outside the field"
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    if d2.min(initial=np.inf) < (2.0 * r - slack) ** 2:
        return "two source discs overlap"
    return None


def lens_area(r: float, d: float) -> float:
    """Area of the intersection of two discs of radius r at distance d."""
    return 2.0 * r * r * math.acos(d / (2.0 * r)) - (d / 2.0) * math.sqrt(4.0 * r * r - d * d)


class Workload:
    name = ""
    mc_samples = 0
    warm_mb = 0  # fresh memory touched before each command (see child.py)

    def prepare(self, work: Path, seed: int) -> None:
        """Write the inputs for `seed` into `work`."""
        self.seed = seed

    def commands(self) -> list[tuple[str, list[str]]]:
        """(operation name, wpsncov arguments) of one pass, in order; OUT
        stands for the pass's output directory."""
        raise NotImplementedError

    def order(self) -> list[str]:
        """Command names and "mc" (one Monte Carlo pair) in the order one
        pass runs them. Short, noisy operations recur, spread over the pass
        so that their samples span the run."""
        raise NotImplementedError

    def schedule(self, trace: bool) -> list[list]:
        """One pass as ["cli", name, argv] (a command's k-th run is named
        name#k) and ["mc", i] entries. A traced pass runs every operation
        once, so that layer sums cover one command set."""
        argv = dict(self.commands())
        order = list(dict.fromkeys(self.order())) if trace else self.order()
        seen: dict[str, int] = {}
        ops = []
        for name in order:
            k = seen[name] = seen.get(name, 0) + 1
            if name == "mc":
                ops.append(["mc", k - 1])
            else:
                ops.append(["cli", name if k == 1 else f"{name}#{k}", argv[name]])
        return ops

    def mc(self) -> dict:
        """Scenario and strategy of the Monte Carlo deployment, samples, seed."""
        raise NotImplementedError

    def check(self, ops: dict, out: Path, child: dict) -> dict[str, list[str]]:
        """Operation name -> failed checks, for every operation that ran."""
        raise NotImplementedError

    # shared checks ------------------------------------------------------

    def _check_deploy(self, op, out, r, width, height, exact_fraction, sources=None):
        errors = []
        meta, _, placement = read_table(out / "placement.csv")
        shown = stdout_values(op)
        if int(shown["sources"]) != len(placement):
            errors.append(f"stdout says {shown['sources']} sources, placement.csv has {len(placement)}")
        if not close(float(meta["r_rf_m"]), r, 1e-12):
            errors.append(f"r_rf_m {meta['r_rf_m']} != {r!r}")
        xy = [row[1:3] for row in placement]
        if sources is None:
            problem = check_disjoint_inside(xy, r, width, height)
            if problem:
                errors.append(problem)
        elif xy != [list(p) for p in sources]:
            errors.append("placement.csv differs from the scenario's source list")
        nodes, covered_sum, covered_meta = _coverage_column(out / "coverage.csv")
        if nodes != self.nodes:
            errors.append(f"coverage.csv has {nodes} rows, expected {self.nodes}")
        fraction = float(shown["coverage_fraction"])
        if not (covered_sum == covered_meta == round(fraction * nodes)):
            errors.append(f"covered column sums to {covered_sum}, metadata says "
                          f"{covered_meta}, stdout fraction {fraction!r}")
        problem = within_sigmas(covered_sum, nodes, exact_fraction)
        if problem:
            errors.append(f"coverage: {problem}")
        self.covered_count = covered_meta
        return errors

    def _check_mc(self, ops, exact_fraction):
        """Each Monte Carlo pair: bit-identical at 1 and nproc workers, within
        5 sigma of the exact fraction and, where it samples the deployed
        nodes' points, hitting exactly the nodes that deploy found covered."""
        found = {}
        pairs = sum(name.startswith("mc_w1.") for name in ops)
        for i in range(pairs):
            w1, wn = ops[f"mc_w1.{i}"], ops[f"mc_wn.{i}"]
            found[w1["name"]], found[wn["name"]] = [], []
            if "fraction" in w1 and "fraction" in wn and w1["fraction"] != wn["fraction"]:
                found[wn["name"]].append(f"{wn['workers']} workers gave {wn['fraction']!r}, "
                                         f"1 worker {w1['fraction']!r}")
            for op in (w1, wn):
                if "fraction" not in op:
                    continue
                hits = round(op["fraction"] * self.mc_samples)
                problem = within_sigmas(hits, self.mc_samples, exact_fraction)
                if problem:
                    found[op["name"]].append(problem)
                if (self.mc_samples == self.nodes and self.covered_count is not None
                        and hits != self.covered_count):
                    found[op["name"]].append(f"{hits} hits, but deploy covered "
                                             f"{self.covered_count} of the same points")
        return found


def _coverage_column(path: Path) -> tuple[int, int, int]:
    """Rows, sum of the `covered` column and the covered_count metadata of
    coverage.csv, read without holding 10^6 parsed rows."""
    rows = covered = 0
    meta_count = None
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                if key.strip() == "covered_count":
                    meta_count = int(value)
            elif header is None:
                header = line.rstrip("\n").split(",")
                col = header.index("covered")
            else:
                rows += 1
                covered += line.split(",")[col] == "1"
    return rows, covered, meta_count


# -------------------------------------------------------------------------
# design_point


def _grid(kind, start, stop, include):
    if kind == "lin":
        grid = np.linspace(start, stop, 50)
    else:
        grid = np.logspace(math.log10(start), math.log10(stop), 50)
    return sorted(set(grid.tolist()) | {v for v in include if start <= v <= stop})


def _fig_range_row(row):
    p_t, f, r = row
    return [r], [design_range(p_t, f)]


def _fig_sources_row(row, area_col=None):
    if area_col is None:
        p_t, f, k, k_req = row
        area = DESIGN_AREA_M2
    else:
        area, p_t, f, k, k_req = row
    r = design_range(p_t, f)
    return [k, k_req], [area / (math.pi * r * r), float(math.ceil(k))]


def _fig_power_row(row):
    f, k, p = row
    r_k = math.sqrt(DESIGN_AREA_M2 / (math.pi * k))  # range at which k discs cover the area
    p_min = V_MIN_V**2 / (8.0 * R_LOOP_OHM)
    return [p], [(4.0 * math.pi * r_k * f / C) ** 2 * p_min / (DESIGN_G * DESIGN_G)]


FREQS = [5e8, 1e9, 2e9]
# figure -> (columns, x grid, series values, series column count, row relation)
FIGURES = {
    4: (["p_r_w", "v_induced_v"], ("lin", 0.0, 1e-4, [1.25e-5]), [()], 0,
        lambda row: ([row[1]], [math.sqrt(8.0 * R_LOOP_OHM * row[0])])),
    5: (["p_t_w", "f_hz", "max_range_m"], ("log", 0.1, 10.0, [1.0, 4.0]),
        [(f,) for f in FREQS], 1, _fig_range_row),
    6: (["p_t_w", "f_hz", "k_exact", "k_required"], ("log", 0.1, 10.0, [1.0, 4.0]),
        [(f,) for f in FREQS], 1, _fig_sources_row),
    7: (["f_hz", "k", "required_power_w"], ("lin", 5e8, 2e9, [1e9]),
        [(float(k),) for k in (2, 4, 6, 8, 10)], 1, _fig_power_row),
    8: (["area_m2", "p_t_w", "f_hz", "k_exact", "k_required"], ("lin", 1e3, 1e5, [4e4]),
        [(1.0, f) for f in FREQS], 2, lambda row: _fig_sources_row(row, area_col=0)),
}


def check_figure(figure: int, out: Path) -> list[str]:
    columns, (kind, start, stop, include), series, n_series_cols, relation = FIGURES[figure]
    _, header, rows = read_table(out / f"figure{figure}.csv")
    if header != columns:
        return [f"figure {figure}: columns {header} != {columns}"]
    errors = []
    grid = _grid(kind, start, stop, include)
    expected = sorted((x, *s) for x in grid for s in series)
    got = sorted(tuple(row[: 1 + n_series_cols]) for row in rows)
    if got != expected:
        errors.append(f"figure {figure}: {len(rows)} rows, expected {len(grid)} grid "
                      f"points x {len(series)} series")
    bad = 0
    for row in rows:
        have, want = relation(row)
        bad += not all(close(h, w, 1e-12) for h, w in zip(have, want))
    if bad:
        errors.append(f"figure {figure}: {bad} rows off their closed form by > 1e-12")
    try:
        svg = ET.parse(out / f"figure{figure}.svg").getroot()
    except (ET.ParseError, OSError) as exc:
        return errors + [f"figure {figure}: SVG does not parse: {exc}"]
    lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != len(series):
        errors.append(f"figure {figure}: {len(lines)} polylines for {len(series)} series")
    return errors


class DesignPoint(Workload):
    name = "design_point"
    nodes = 1000  # node_count in scenarios/design_point.scn
    mc_samples = 2_000_000

    def prepare(self, work, seed):
        super().prepare(work, seed)
        root = Path(__file__).resolve().parent.parent
        self.design = str(root / "scenarios" / "design_point.scn")
        self.anchor = str(root / "scenarios" / "range_anchor.scn")

    def commands(self):
        grid = ["--scenario", self.design, "--strategy", "hex_grid", "--seed", str(self.seed),
                "--out", OUT]
        ops = [(f"range_{int(f / 1e6)}MHz",
                ["range", "--scenario", self.anchor] + (["--f-hz", flag] if flag else []))
               for f, flag, _ in ANCHORS]
        ops += [("sources", ["sources", "--scenario", self.design]),
                ("power", ["power", "--scenario", self.design, "--k", "6"]),
                ("deploy", ["deploy", *grid]),
                ("interference", ["interference", *grid])]
        ops += [(f"sweep{n}", ["sweep", "--scenario", self.design, "--figure", str(n), "--svg",
                               "--out", OUT]) for n in FIGURES]
        return ops

    def order(self):
        return [name for name, _ in self.commands()] + [
            "deploy", "interference", "deploy", "interference", "mc"]

    def mc(self):
        return {"scenario": self.design, "strategy": "hex_grid", "samples": self.mc_samples,
                "seed": self.seed}

    def check(self, ops, out, child):
        found = {name: [] for name in ops}
        self.covered_count = None
        r = design_range()
        width = height = math.sqrt(DESIGN_AREA_M2)
        for f, _, anchor in ANCHORS:
            name = f"range_{int(f / 1e6)}MHz"
            if "error" in ops[name]:
                continue
            got = float(ops[name]["stdout"])
            if not close(got, activation_range(ANCHOR_EIRP_W, f), 1e-12):
                found[name].append(f"range {got!r} != {activation_range(ANCHOR_EIRP_W, f)!r}")
            if not close(got, anchor, 2e-3):
                found[name].append(f"range {got!r} misses the {anchor} m anchor")
        if "error" not in ops["sources"]:
            shown = stdout_values(ops["sources"])
            exact = DESIGN_AREA_M2 / (math.pi * r * r)
            if not close(float(shown["exact"]), exact, 1e-12) or abs(exact - 5.57) > 0.005:
                found["sources"].append(f"exact {shown['exact']} != A/(pi r^2) = {exact!r}")
            if int(shown["required"]) != math.ceil(exact) or math.ceil(exact) != 6:
                found["sources"].append(f"required {shown['required']} != 6")
        if "error" not in ops["power"]:
            p_t = float(ops["power"]["stdout"])
            k = DESIGN_AREA_M2 / (math.pi * design_range(p_t) ** 2)
            if not close(k, 6.0, 1e-12):
                found["power"].append(f"power {p_t!r} W covers the area with {k!r} sources, not 6")
        if "error" not in ops["deploy"]:
            placed = len(read_table(out / "placement.csv")[2])
            found["deploy"] += self._check_deploy(ops["deploy"], out, r, width, height,
                                                  placed * math.pi * r * r / DESIGN_AREA_M2)
        if "error" not in ops["interference"]:
            shown = stdout_values(ops["interference"])
            rows = [line for line in (out / "interference.csv").read_text().splitlines()
                    if line.startswith(("pair,", "node,"))]
            if shown != {"source_pairs": "0", "multi_fed_nodes": "0"} or rows:
                found["interference"].append(f"hex grid is not clean: {shown}")
        for n in FIGURES:
            if "error" not in ops[f"sweep{n}"]:
                found[f"sweep{n}"] += check_figure(n, out)
        mc_sources = child.get("mc_sources")
        if mc_sources is not None:
            problem = check_disjoint_inside(mc_sources, r, width, height)
            mc_exact = len(mc_sources) * math.pi * r * r / DESIGN_AREA_M2
            for name, errs in self._check_mc(ops, mc_exact).items():
                found[name] += errs + ([problem] if problem else [])
        return found


# -------------------------------------------------------------------------
# many_nodes and many_sources: a 400 x 400 m field

WIDTH = HEIGHT = 400.0


class ManyNodes(Workload):
    name = "many_nodes"
    r = 10.0
    nodes = 1_000_000
    mc_samples = 1_000_000
    warm_mb = 2048  # peak RSS ~1.8 GB

    def prepare(self, work, seed):
        super().prepare(work, seed)
        self.scenario = work / "many_nodes.scn"
        self.scenario.write_text(
            f"field_width_m = {WIDTH!r}\nfield_height_m = {HEIGHT!r}\nstrategy = hex_grid\n"
            f"r_rf_m = {self.r!r}\nnode_count = {self.nodes}\nnode_seed = {seed}\n",
            encoding="utf-8")

    def commands(self):
        common = ["--scenario", str(self.scenario), "--out", OUT]
        return [("deploy", ["deploy", *common]), ("interference", ["interference", *common])]

    def order(self):
        # a Monte Carlo pair after each command, so that the rates span the run
        return ["deploy", "mc", "interference", "mc"]

    def mc(self):
        return {"scenario": str(self.scenario), "strategy": None, "samples": self.mc_samples,
                "seed": self.seed}

    def check(self, ops, out, child):
        found = {name: [] for name in ops}
        self.covered_count = None
        placed = None
        if "error" not in ops["deploy"]:
            placed = len(read_table(out / "placement.csv")[2])
            exact = placed * math.pi * self.r**2 / (WIDTH * HEIGHT)
            found["deploy"] += self._check_deploy(ops["deploy"], out, self.r, WIDTH, HEIGHT, exact)
        if "error" not in ops["interference"]:
            shown = stdout_values(ops["interference"])
            if shown != {"source_pairs": "0", "multi_fed_nodes": "0"}:
                found["interference"].append(f"hex grid is not clean: {shown}")
        mc_sources = child.get("mc_sources")
        if mc_sources is not None:
            problem = check_disjoint_inside(mc_sources, self.r, WIDTH, HEIGHT)
            exact = len(mc_sources) * math.pi * self.r**2 / (WIDTH * HEIGHT)
            for name, errs in self._check_mc(ops, exact).items():
                found[name] += errs + ([problem] if problem else [])
                if placed is not None and placed != len(mc_sources):
                    found[name].append(f"{len(mc_sources)} sources, deploy placed {placed}")
        return found


class ManySources(Workload):
    name = "many_sources"
    spacing = 3.8
    r = 2.0
    nodes = 4096
    mc_samples = 4096  # one kernel chunk: temporaries stay nodes x S, as in deploy
    warm_mb = 2048  # peak RSS ~1.7 GB

    def prepare(self, work, seed):
        """A triangular lattice of spacing 1.9 r, centres at least r from
        the border, so every disc and every lens lies inside the field."""
        super().prepare(work, seed)
        a, r = self.spacing, self.r
        rows = []
        j = 0
        while r + j * a * math.sqrt(3.0) / 2.0 <= HEIGHT - r:
            y = r + j * a * math.sqrt(3.0) / 2.0
            x0 = r + (a / 2.0 if j % 2 else 0.0)
            rows.append([(x0 + i * a, y) for i in range(int((WIDTH - r - x0) // a) + 1)])
            j += 1
        self.sources = [p for row in rows for p in row]
        self.edges = set()
        first = 0
        starts = []
        for row in rows:
            starts.append(first)
            first += len(row)
        for j, row in enumerate(rows):
            self.edges.update((starts[j] + i, starts[j] + i + 1) for i in range(len(row) - 1))
            if j % 2:  # odd-row point i sits between points i and i+1 of its neighbour rows
                for nb in (j - 1, j + 1):
                    if 0 <= nb < len(rows):
                        for i in range(len(row)):
                            for k in (i, i + 1):
                                if k < len(rows[nb]):
                                    self.edges.add(tuple(sorted((starts[j] + i, starts[nb] + k))))
        lens = lens_area(r, a)
        self.p_multi = len(self.edges) * lens / (WIDTH * HEIGHT)
        self.p_covered = (len(self.sources) * math.pi * r * r
                          - len(self.edges) * lens) / (WIDTH * HEIGHT)
        self.scenario = work / "many_sources.scn"
        listing = "; ".join(f"{x!r},{y!r}" for x, y in self.sources)
        self.scenario.write_text(
            f"field_width_m = {WIDTH!r}\nfield_height_m = {HEIGHT!r}\nstrategy = explicit\n"
            f"r_rf_m = {r!r}\nnode_count = {self.nodes}\nnode_seed = {seed}\n"
            f"sources = {listing}\n", encoding="utf-8")

    def commands(self):
        common = ["--scenario", str(self.scenario), "--out", OUT]
        return [("interference", ["interference", *common]), ("deploy", ["deploy", *common])]

    def order(self):
        # one long interference; deploy and Monte Carlo before, around and after it
        return ["deploy", "mc", "mc", "interference", "mc", "deploy", "mc", "deploy"]

    def mc(self):
        return {"scenario": str(self.scenario), "strategy": None, "samples": self.mc_samples,
                "seed": self.seed}

    def check(self, ops, out, child):
        found = {name: [] for name in ops}
        self.covered_count = None
        if "error" not in ops["interference"]:
            errors = found["interference"]
            pairs, distances, multi = set(), [], 0
            for line in (out / "interference.csv").read_text().splitlines():
                if line.startswith("pair,"):
                    _, i, j, d = line.split(",")
                    pairs.add((int(i), int(j)))
                    distances.append(float(d))
                elif line.startswith("node,"):
                    multi += 1
            shown = stdout_values(ops["interference"])
            if (int(shown["source_pairs"]), int(shown["multi_fed_nodes"])) != (len(distances), multi):
                errors.append(f"stdout {shown} disagrees with interference.csv")
            if pairs != self.edges or len(distances) != len(pairs):
                errors.append(f"{len(pairs)} overlapping pairs, the lattice has "
                              f"{len(self.edges)} nearest-neighbour edges "
                              f"({len(pairs - self.edges)} extra, {len(self.edges - pairs)} missing)")
            off = sum(not close(d, self.spacing, 1e-9) for d in distances)
            if off:
                errors.append(f"{off} pair distances differ from the spacing {self.spacing}")
            problem = within_sigmas(multi, self.nodes, self.p_multi)
            if problem:
                errors.append(f"multi-fed nodes: {problem}")
        if "error" not in ops["deploy"]:
            found["deploy"] += self._check_deploy(ops["deploy"], out, self.r, WIDTH, HEIGHT,
                                                  self.p_covered, sources=self.sources)
        if child.get("mc_sources") is not None:
            same = child["mc_sources"] == [list(p) for p in self.sources]
            for name, errs in self._check_mc(ops, self.p_covered).items():
                found[name] += errs + ([] if same else ["Monte Carlo ran on another source list"])
        return found


WORKLOADS = {w.name: w for w in (DesignPoint(), ManyNodes(), ManySources())}
