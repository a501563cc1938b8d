"""The benchmark's four workloads: inputs built from a seed, the items
that run them, and the output check of every item.

An item is one unit of work whose wall time is measured: one solve, one
kernel call, or one command line process. Its check returns whether the
program claimed success and a list of problems. An item with problems
fails; if the program claimed success it is also wrong, which makes the
whole run incorrect. A solve that reports non-convergence, or a command
that exits non-zero, is a failure but not a wrong answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import anisoclusters.optimizer as optimizer
import anisoclusters.slices as slices
import anisoclusters.steiner as steiner
from anisoclusters import builders
from anisoclusters.density import Density
from anisoclusters.gauge import (
    EllipseGauge,
    EuclideanGauge,
    LpGauge,
    ShiftedDiskGauge,
    SmoothedL1Gauge,
)
from anisoclusters.geometry import hausdorff_to_segments

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    counters: Callable[[object], dict] = field(default=lambda out: {})
    spans: Path | None = None  # where a traced CLI child writes its spans


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


# ---------------------------------------------------------------- solvers

# The solver's cost is chaotic in its input: at n_arc=48 a 0.98 volume ratio
# takes 7 s, 0.97 takes 13 s, and rotating the equal bubble by 0.3 rad turns
# a 7 s solve into a 51 s failure. Seed-drawn solver inputs would swing a
# run's median by several times, so both solver workloads run a fixed panel
# and the seed sets the order in which its members are solved.
BUBBLE_RATIOS = (1.0, 0.98)
CROSS_JITTER_SEEDS = (0, 1, 2)


def _solve_counters(rep):
    return {
        "optimizer.inner_iterations": rep.inner_iterations,
        "optimizer.outer_iterations": rep.outer_iterations,
        "optimizer.crossing_rejections": rep.crossing_rejections,
    }


def check_bubble(rep, vol_tol):
    problems = []
    if not rep.success:
        problems.append(f"solve did not succeed: {rep.flags}")
    if len(rep.junctions) != 2:
        problems.append(f"expected 2 triple junctions, got {len(rep.junctions)}")
    for j in rep.junctions:
        for a in j["angles_deg"]:
            if abs(a - 120.0) > 0.5:
                problems.append(f"junction angle {a:.3f} deg is more than 0.5 deg from 120")
    worst = float(np.max(np.abs(rep.volume_errors)))
    if worst > vol_tol:
        problems.append(f"volume error {worst:.2e} above vol_tol {vol_tol:.0e}")
    return bool(rep.success), problems


def check_cross(rep, density):
    problems = []
    if not rep.success:
        problems.append(f"solve did not succeed: {rep.flags}")
    perim = optimizer.interface_perimeter(rep.cluster, density)
    if not perim <= 4.01:
        problems.append(f"interface perimeter {perim:.5f} above 4.01")
    ids = sorted({v for e in rep.cluster.edges if not e.tags.get("wall") for v in e.vertices})
    hd = hausdorff_to_segments(
        rep.cluster.vertices[ids],
        np.array([[-1.0, -1.0], [-1.0, 1.0]]),
        np.array([[1.0, 1.0], [1.0, -1.0]]),
    )
    if not hd <= 0.05:
        problems.append(f"interface strays {hd:.4f} from the diagonals (limit 0.05)")
    return bool(rep.success), problems


def bubble_items(seed):
    density = Density.constant(EuclideanGauge())
    opts = optimizer.SolveOptions(max_outer=30)
    items = []
    for ratio in BUBBLE_RATIOS:
        problem = optimizer.OptimizationProblem(
            builders.double_bubble_cluster(n_arc=48, n_mid=16), density, [1.0, ratio], opts
        )
        items.append(Item(
            f"bubble ratio={ratio}",
            lambda p=problem: optimizer.minimize(p),
            lambda rep: check_bubble(rep, opts.vol_tol),
            _solve_counters,
        ))
    return [items[k] for k in _rng(seed, 0).permutation(len(items))]


def cross_items(seed):
    density = Density.constant(LpGauge(np.inf))
    opts = optimizer.SolveOptions(max_outer=60)
    items = []
    for j in CROSS_JITTER_SEEDS:
        cluster = builders.square_cross_cluster(
            n_sub=8, jitter=0.02, rng=np.random.default_rng(j)
        )
        problem = optimizer.OptimizationProblem(cluster, density, np.ones(4), opts)
        items.append(Item(
            f"cross jitter_seed={j}",
            lambda p=problem: optimizer.minimize(p),
            lambda rep: check_cross(rep, density),
            _solve_counters,
        ))
    return [items[k] for k in _rng(seed, 0).permutation(len(items))]


# ---------------------------------------------------------------- junctions

SLICE_GAUGES = (
    EuclideanGauge(),
    EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
    SmoothedL1Gauge(0.35),
)
FERMAT_GAUGES = (
    EuclideanGauge(),
    EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
    ShiftedDiskGauge((0.2, -0.1), 1.0),
    LpGauge(3.0),
)
FERMAT_MODES = (("out",) * 3, ("in",) * 3, ("sym",) * 3)
# (gauge, reference point, number of admissible pairs)
PAIR_CASES = (
    (EuclideanGauge(), (0.0, 1.0), 1),
    (LpGauge(1.5), (0.0, 1.0), 1),
    (LpGauge(2.0), (0.0, 1.0), 1),
    (LpGauge(3.0), (0.0, 1.0), 1),
    (LpGauge(5.0), (0.0, 1.0), 1),
    (ShiftedDiskGauge((0.0, -0.5), 1.0), (0.0, 0.5), 0),
)
N_SLICES, N_TRIANGLES, PAIR_REPEATS = 90, 4, 2
SLICE_RADII = (4, 5, 6, 7, 8)


def random_slice_config(rng, gauge, n_radii, min_gap_deg=5.0, n_colors=4):
    """n_radii >= 4 radii, gaps of at least min_gap_deg, adjacent sectors
    colored differently: the configurations of acceptance criterion 07,
    there drawn with 4 to 8 radii."""
    while True:
        n = n_radii
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        if gaps.min() < np.radians(min_gap_deg):
            continue
        colors = []
        for i in range(n):
            prev = colors[i - 1] if i > 0 else None
            colors.append(int(rng.choice([c for c in range(n_colors + 1) if c != prev])))
        if colors[0] == colors[-1]:
            continue
        cfg = slices.SliceConfig(ang, colors, gauge)
        if cfg.n == n_radii:
            return cfg


def random_triangle(rng, min_side=0.4):
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(3, 2))
        sides = [np.linalg.norm(pts[i] - pts[(i + 1) % 3]) for i in range(3)]
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        area2 = abs(u[0] * v[1] - u[1] * v[0])
        if min(sides) >= min_side and area2 >= 0.1:
            return pts


def junction_cost(gauge, pts, modes, p):
    total = 0.0
    for x, mode in zip(pts, modes):
        if mode == "out":
            total += float(gauge.value(x - p))
        elif mode == "in":
            total += float(gauge.value(p - x))
        else:
            total += 0.5 * float(gauge.value(x - p) + gauge.value(p - x))
    return total


def check_fermat(res, gauge, pts, modes):
    """The returned value is the cost at the returned point, and no probe
    point at distance 1e-4 * scale in eight directions costs less."""
    problems = []
    scale = max(np.linalg.norm(pts[i] - pts[j]) for i in range(3) for j in range(3))
    cost = junction_cost(gauge, pts, modes, res.point)
    if abs(cost - res.value) > 1e-12 * (1.0 + abs(cost)):
        problems.append(f"value {res.value!r} differs from cost {cost!r} at the point")
    theta = np.arange(8) * (np.pi / 4.0)
    probes = res.point + 1e-4 * scale * np.column_stack([np.cos(theta), np.sin(theta)])
    worst = min(junction_cost(gauge, pts, modes, q) for q in probes)
    if worst < res.value - 1e-12 * (1.0 + abs(res.value)):
        problems.append(f"a nearby point costs {worst!r} < {res.value!r}")
    return True, problems


def check_slice(res):
    if res.delta > 0:
        return True, []
    return True, [f"slice move did not decrease perimeter: delta {res.delta:.3e}"]


def check_pairs(pairs, expected, tol):
    problems = []
    if len(pairs) != expected:
        problems.append(f"expected {expected} admissible pairs, got {len(pairs)}")
    for t in pairs:
        if not t.residual < tol:
            problems.append(f"pair residual {t.residual:.2e} not below tol {tol:.0e}")
    return True, problems


def junction_items(seed):
    items = []
    rng = _rng(seed, 1)
    for k in range(N_SLICES):
        # equal numbers of each size: the size sets an item's cost
        gauge = SLICE_GAUGES[k % len(SLICE_GAUGES)]
        cfg = random_slice_config(rng, gauge, SLICE_RADII[k % len(SLICE_RADII)])
        items.append(Item(
            f"slices#{k} {gauge.kind} n={cfg.n}",
            lambda c=cfg: slices.improve(c),
            check_slice,
        ))
    # Fermat solves take 12 to 5,000 iterations depending on the triangle, and
    # the per-pass total swings 1,300-9,500 between seeds, so the triangles
    # are one fixed draw and the seed only orders them with everything else.
    rng = _rng(0, 2)
    for t in range(N_TRIANGLES):
        pts = random_triangle(rng)
        for gauge in FERMAT_GAUGES:
            for modes in FERMAT_MODES:
                items.append(Item(
                    f"fermat#{t} {gauge.kind} {modes[0]}",
                    lambda g=gauge, m=modes, p=pts: steiner.fermat_point(g, *p, modes=m),
                    lambda res, g=gauge, m=modes, p=pts: check_fermat(res, g, p, m),
                    lambda res: {"steiner.fermat_point.iterations": res.iterations},
                ))
    for r in range(PAIR_REPEATS):
        for gauge, a, expected in PAIR_CASES:
            items.append(Item(
                f"pairs#{r} {gauge.kind} {gauge.params()}",
                lambda g=gauge, a=a: steiner.admissible_pairs(g, np.array(a), resolution=720),
                lambda pairs, e=expected: check_pairs(pairs, e, 1e-9),
            ))
    return [items[k] for k in _rng(seed, 3).permutation(len(items))]


# ---------------------------------------------------------------- cli

# Scenario file -> invariant on its report's "result". solve-double-bubble
# (over 90 s) and solve-square-cross (the cross workload) are left out.
def _triples_120(count):
    def inv(r):
        if r["count"] != count:
            return [f"expected {count} pairs, got {r['count']}"]
        return [
            f"pair angle {a:.4f} deg is not 120 +- 0.01"
            for t in r["pairs"] for a in (t["angle_b_deg"], t["angle_c_deg"])
            if abs(a - 120.0) > 0.01
        ]
    return inv


def _fermat_120(r):
    p = np.asarray(r["point"])
    arms = np.asarray(r["terminals"]) - p
    arms /= np.linalg.norm(arms, axis=1)[:, None]
    out = []
    for i in range(3):
        ang = np.degrees(np.arccos(np.clip(arms[i] @ arms[(i + 1) % 3], -1.0, 1.0)))
        if abs(ang - 120.0) > 1e-4:
            out.append(f"Euclidean Fermat arms meet at {ang:.6f} deg, not 120")
    return out


def _diagnose_two(r):
    out = [] if len(r["junctions"]) == 2 else [f"expected 2 junctions, got {len(r['junctions'])}"]
    for j in r["junctions"]:
        if abs(sum(j["angles_deg"]) - 360.0) > 1e-6:
            out.append(f"junction angles sum to {sum(j['angles_deg'])}")
    return out


def _is(cond, message):
    return [] if cond else [message]


CLI_SCENARIOS = {
    "diagnose-double-bubble.json": _diagnose_two,
    "fermat-euclidean.json": _fermat_120,
    # the ball passes through the corners (+-1, +-1), its farthest points
    "gaugeprobe-smoothed-l1.json": lambda r: _is(
        abs(r["h_min"] - 0.5 ** 0.5) <= 1e-9 and not r["smooth"] and r["symmetric"],
        f"h_min {r['h_min']!r} is not 1/sqrt(2), or smooth/symmetric flags wrong"),
    "perimeter-square-cross.json": lambda r: _is(
        abs(r["interface_perimeter"] - 4.0) <= 1e-9,
        f"interface perimeter {r['interface_perimeter']!r} is not 4 +- 1e-9"),
    "slices-cross-maxnorm.json": lambda r: _is(
        r["delta"] <= 1e-12 and not r["guaranteed"],
        f"max-norm cross: delta {r['delta']} or guarantee {r['guaranteed']} wrong"),
    "slices-five-radii.json": lambda r: _is(r["delta"] > 0, f"delta {r['delta']} not positive"),
    "solve-disk.json": lambda r: _is(
        r["success"] and abs(r["perimeter"] - 2 * np.pi) <= 0.01 * 2 * np.pi,
        f"disk solve success={r['success']} perimeter={r['perimeter']}"),
    "triples-euclidean.json": _triples_120(1),
    "triples-lp-2.json": _triples_120(1),
    "triples-shifted-disk.json": _triples_120(0),
}


@dataclass
class CliRun:
    returncode: int
    report: bytes | None
    svg: bytes | None
    stderr: str
    maxrss_kb: int = 0  # peak resident memory of this process alone


def schema_validator(root):
    import jsonschema

    path = root / "src" / "anisoclusters" / "schemas" / "report.schema.json"
    with open(path, encoding="utf-8") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def cli_command(root, scenario, out_dir, traced_spans=None):
    task = json.loads((root / "scenarios" / scenario).read_text())["task"]
    args = [task, "--scenario", str(root / "scenarios" / scenario), "--out", str(out_dir), "--svg"]
    if traced_spans is None:
        return [sys.executable, "-m", "anisoclusters", *args]
    return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(traced_spans), *args]


def run_cli(cmd, out_dir, env, timeout=120):
    """Run one CLI process to its end. os.wait4 gives this child's own
    resource usage; a timer kills it after `timeout` seconds."""
    err_path = Path(out_dir).with_suffix(".stderr")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reports = sorted(Path(out_dir).glob("*.json"))
    svgs = sorted(Path(out_dir).glob("*.svg"))
    return CliRun(
        proc.returncode,
        reports[0].read_bytes() if len(reports) == 1 else None,
        svgs[0].read_bytes() if len(svgs) == 1 else None,
        err_path.read_bytes().decode("utf-8", "replace")[-2000:],
        usage.ru_maxrss,
    )


def check_cli(run, scenario, validator):
    if run.returncode != 0:
        return False, [f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"]
    if run.report is None or run.svg is None:
        return True, ["expected exactly one report and one SVG"]
    report = json.loads(run.report)
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if not run.svg.lstrip().startswith(b"<svg"):
        problems.append("SVG output does not start with <svg")
    if not problems:
        problems += CLI_SCENARIOS[scenario](report["result"])
    return True, problems


def check_cli_repeats(runs_by_scenario):
    """Reports of one scenario must be byte-identical across runs."""
    problems = {}
    for scenario, runs in runs_by_scenario.items():
        texts = {r.report for r in runs if r.returncode == 0 and r.report is not None}
        if len(texts) > 1:
            problems[scenario] = f"{len(texts)} different reports across {len(runs)} runs"
    return problems


def cli_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_scenarios(seed, pass_index):
    names = sorted(CLI_SCENARIOS)
    return [names[k] for k in _rng(seed, 10 + pass_index).permutation(len(names))]


WORKLOADS = {
    "bubble": bubble_items,
    "cross": cross_items,
    "junctions": junction_items,
}
