"""Benchmark entry point.

    python3 perfbench/run.py --workload {bubble,cross,junctions,cli,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src. With --trace 0 the run builds its inputs from the seed, times whole
passes over them with tracing off for about S seconds, checks every output
and prints the end-to-end metrics. With --trace 1 it runs one pass with
tracing off and then the same pass with hooks installed, and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. `--workload all`
runs the four workloads one after another and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from load import REFERENCE_S, LoadMeter

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("bubble", "cross", "junctions", "cli")
SETUP_PROBES = 5
# An item's time is the median of its load-corrected runs (see load.py).
# Items run at least twice, and `cli` needs two runs of each scenario for
# its byte-identical check anyway. `bubble` makes one pass: its two solves
# take 12-14 s on a 2-vCPU x86-64 machine, a second pass would add that to
# every run, and the load samples taken inside each solve already hold its
# spread well inside the bound.
MIN_PASSES = {"bubble": 1, "cross": 2, "junctions": 2, "cli": 2}
OUT_DIR_NAME = ".perfbench_out"

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "item_s_p50": "s",
    "items_per_s": "1/s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "geometry.segments_properly_cross.calls": "count",
    "geometry.segments_properly_cross.total_s": "s",
    "geometry.segments_properly_cross.pair_tests": "count",
    "geometry.segments_properly_cross.bytes_computed": "bytes",
    "optimizer.crossing_rejections": "count",
    "optimizer.step_accept_ratio": "ratio",
    "optimizer.minimize.self_s": "s",
    "optimizer.inner_iterations": "count",
    "optimizer.outer_iterations": "count",
    "optimizer.resample_cluster.total_s": "s",
    "optimizer.steiner_diagnose.total_s": "s",
    "cluster.segment_weights.calls": "count",
    "cluster.segment_weights.segments": "count",
    "cluster.segment_weights.self_s": "s",
    "cluster.validate.total_s": "s",
    "density.h_at.calls": "count",
    "density.h_at.self_s": "s",
    "density.g_at.calls": "count",
    "density.g_at.points": "count",
    "density.g_at.total_s": "s",
    "steiner.junction_residual.total_s": "s",
    "builders.total_s": "s",
    "gauge.value.calls": "count",
    "gauge.value.vectors": "count",
    "gauge.value.total_s": "s",
    "gauge.grad.calls": "count",
    "gauge.grad.vectors": "count",
    "gauge.grad.total_s": "s",
    "gauge.vectors_per_call": "count",
    "slices.improve.total_s": "s",
    "slices.candidates": "count",
    "slices.oriented_weight.calls": "count",
    "slices.oriented_weight.self_s": "s",
    "steiner.fermat_point.total_s": "s",
    "steiner.fermat_point.iterations": "count",
    "steiner.fermat_point.max_iter_hits": "count",
    "steiner.admissible_pairs.total_s": "s",
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "scenario.load_scenario.total_s": "s",
    "report.write_report.total_s": "s",
    "report.write_report.bytes": "bytes",
    "svg.render.total_s": "s",
    "svg.render.bytes": "bytes",
    "cli.main.total_s": "s",
    "trace.overhead_s": "s",
}

# Counters that must repeat exactly for the same code and seed.
DETERMINISTIC = (
    "optimizer.inner_iterations",
    "optimizer.outer_iterations",
    "optimizer.crossing_rejections",
    "geometry.segments_properly_cross.pair_tests",
    "slices.oriented_weight.calls",
    "slices.candidates",
    "steiner.fermat_point.iterations",
)

# Per-layer metrics whose hook label is not their own prefix.
HOOK_OF = {
    "optimizer.crossing_rejections": "optimizer.minimize",
    "optimizer.step_accept_ratio": "optimizer.minimize",
    "optimizer.inner_iterations": "optimizer.minimize",
    "optimizer.outer_iterations": "optimizer.minimize",
    "gauge.vectors_per_call": "gauge.value",
    "slices.candidates": "slices.enumerate_moves",
    "builders.total_s": "builders",
}


@dataclass
class Result:
    label: str
    seconds: float
    start: float
    output: object = None
    error: str | None = None
    status: str = "ok"
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------- workloads


class Workload:
    """The items of each pass, built from the seed. Item labels are unique
    within a pass and name the same input in every pass."""

    def __init__(self, name, seed, root, out_dir):
        import workloads as wl

        self.name, self.seed, self.root, self.out_dir = name, seed, root, out_dir
        # an item of `cli` is a child process: the load meter samples around
        # it, not during it (see load.py)
        self.in_child = name == "cli"
        if name == "cli":
            self._validator = wl.schema_validator(root)
            self._env = wl.cli_env(root)
        else:
            self._items = wl.WORKLOADS[name](seed)

    def pass_items(self, k, traced=False):
        if self.name != "cli":
            return self._items
        import workloads as wl

        items = []
        for scenario in wl.cli_scenarios(self.seed, k):
            out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.out_dir))
            spans_path = out.with_suffix(".spans.json") if traced else None
            cmd = wl.cli_command(self.root, scenario, out, spans_path)
            items.append(wl.Item(
                scenario,
                lambda c=cmd, o=out: wl.run_cli(c, o, self._env),
                lambda r, s=scenario: wl.check_cli(r, s, self._validator),
                spans=spans_path,
            ))
        return items


def run_passes(workload, seconds, min_passes, max_passes=None, traced=False, on_item=None,
               meter=None, between=None):
    """Closed loop, one client: whole passes back to back until about
    `seconds` have elapsed. Time a running LoadMeter spends in its own
    samples is left out of item times. `between(elapsed)`, if given, runs
    before each item; its time counts neither to an item nor to the
    elapsed time. Returns the results and the wall time of the items."""
    results, items_run = [], []
    t_start = time.perf_counter()
    aside = 0.0  # time spent in `between`
    prev = 0.0  # elapsed time at the end of the previous pass
    k = 0
    while True:
        for item in workload.pass_items(k, traced):
            if between is not None:
                t_aside = time.perf_counter()
                between(t_aside - t_start - aside)
                aside += time.perf_counter() - t_aside
            around = (meter.outside() if meter is not None and workload.in_child
                      else contextlib.nullcontext())
            with around:
                paused = meter.paused if meter is not None else 0.0
                t0 = time.perf_counter()
                try:
                    out = item.run() if on_item is None else on_item(item)
                    err = None
                except Exception as exc:  # a crash is a failed item, not a crashed benchmark
                    out, err = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if meter is not None:
                    dt -= meter.paused - paused
            results.append(Result(item.label, dt, t0, out, err))
            items_run.append(item)
        k += 1
        elapsed = time.perf_counter() - t_start - aside
        last, prev = elapsed - prev, elapsed
        if max_passes is not None and k >= max_passes:
            break
        if k >= min_passes and elapsed + 0.5 * last >= seconds:
            break
    return results, items_run, time.perf_counter() - t_start - aside


def evaluate(results, items, cli=False):
    """Run every output check, and for `cli` the byte-identical repeat
    check; returns False when any output is wrong."""
    for res, item in zip(results, items):
        if res.error is not None:
            res.status, res.problems = "failed", [res.error]
            continue
        try:
            claimed, problems = item.check(res.output)
        except Exception as exc:
            claimed, problems = True, [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            res.status, res.problems = ("wrong" if claimed else "failed"), problems
    if cli:
        import workloads as wl

        by_scenario = {}
        for res in results:
            if res.output is not None:
                by_scenario.setdefault(res.label, []).append(res.output)
        for scenario, problem in wl.check_cli_repeats(by_scenario).items():
            for res in results:
                if res.label == scenario:
                    res.status = "wrong"
                    res.problems.append(problem)
    return all(r.status != "wrong" for r in results)


def sum_counters(results, items):
    total = {}
    for res, item in zip(results, items):
        if res.output is None:
            continue
        for key, val in item.counters(res.output).items():
            total[key] = total.get(key, 0) + int(val)
    return total


# ---------------------------------------------------------------- measuring


class SetupProbes:
    """Fresh interpreters that import the package and build the workload's
    inputs. They are spread over the timed phase, one between two items
    every `seconds` / SETUP_PROBES, so that a burst of foreign load hits one
    probe rather than all of them; any left over run at the end. The load
    meter samples around each probe, not during it."""

    def __init__(self, args, root, meter, seconds):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]
        self.root, self.meter, self.every = root, meter, seconds / SETUP_PROBES
        self.windows = []

    def _probe(self):
        with self.meter.outside():
            t0 = time.perf_counter()
            subprocess.run(self.cmd, cwd=self.root, check=True, capture_output=True, timeout=120)
            t1 = time.perf_counter()
        self.windows.append((t0, t1))

    def __call__(self, elapsed):
        if len(self.windows) < SETUP_PROBES and elapsed >= len(self.windows) * self.every:
            self._probe()

    def finish(self):
        """The median load-corrected time, and every corrected and raw time."""
        while len(self.windows) < SETUP_PROBES:
            self._probe()
        raw = [t1 - t0 for t0, t1 in self.windows]
        samples = [(t1 - t0) * self.meter.factor(t0, t1) for t0, t1 in self.windows]
        return statistics.median(samples), samples, raw


def peak_rss_mb(results, in_child):
    """Peak resident memory of the process that runs the items: this one,
    or for `cli` the largest CLI child (set-up probes are not counted)."""
    if not in_child:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max((r.output.maxrss_kb for r in results if r.output is not None), default=0) / 1024.0


def import_times(root):
    """import.{total_s,scipy_s,numpy_s} from `python -X importtime`."""
    import workloads as wl

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import anisoclusters"],
        cwd=root, env=wl.cli_env(root), capture_output=True, text=True, timeout=120, check=True,
    )
    total = scipy = numpy = 0.0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "anisoclusters":
            total = cum_us / 1e6
        if name.split(".")[0] == "scipy":
            scipy += self_us / 1e6
        if name.split(".")[0] == "numpy":
            numpy += self_us / 1e6
    return {"import.total_s": total, "import.scipy_s": scipy, "import.numpy_s": numpy}


def code_hash(root):
    h = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- output


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_table(title, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<48} {shown:>14} {unit:<6} {note}")


def report_items(results):
    bad = [r for r in results if r.status != "ok"]
    for r in bad:
        print(f"  {r.status}: {r.label}: {'; '.join(r.problems)[:400]}")


# ---------------------------------------------------------------- runs


def timed_run(args, root, out_dir):
    with LoadMeter() as meter:
        probes = SetupProbes(args, root, meter, args.seconds)
        workload = Workload(args.workload, args.seed, root, out_dir)
        results, items, wall = run_passes(
            workload, args.seconds, MIN_PASSES[args.workload], meter=meter, between=probes)
        setup, setup_samples, setup_raw = probes.finish()
    correct = evaluate(results, items, cli=args.workload == "cli")
    runs, raw, ok = {}, {}, {}
    for r in results:
        runs.setdefault(r.label, []).append(r.seconds * meter.factor(r.start, r.start + r.seconds))
        raw.setdefault(r.label, []).append(r.seconds)
        ok[r.label] = ok.get(r.label, True) and r.status == "ok"
    item_s = [statistics.median(v) for v in runs.values()]
    n, distinct, passed = len(results), len(runs), sum(ok.values())
    # the tail is over every run of every item: `cli` has ten scenarios but
    # twenty or more CLI processes
    tail = spans.tail_percentile([t for v in runs.values() for t in v])
    # an item passes when every run of it passed; ratios are over items, so
    # they do not depend on how many passes the run had time for
    metrics = {
        "setup_s": metric(setup, "s"),
        "item_s_p50": metric(statistics.median(item_s), "s"),
        "items_per_s": metric(passed / sum(item_s), "1/s"),
        "pass_ratio": metric(passed / distinct, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(results, workload.in_child), "MB"),
    }
    rows = [(k, v["value"], v["unit"], "") for k, v in metrics.items()]
    per_item = f"median over {n} runs of {distinct} items"
    rows[0] = rows[0][:3] + (f"median of {len(setup_samples)} fresh interpreters",)
    rows[1] = rows[1][:3] + (per_item,)
    rows[2] = rows[2][:3] + ("passing items per second of item times",)
    rows.append(("setup_s uncorrected", statistics.median(setup_raw), "s", ""))
    rows.append(("item_s_p50 uncorrected", statistics.median([statistics.median(v) for v in raw.values()]),
                 "s", per_item))
    rows.append(("reference loop", statistics.median(meter.loop_s), "s",
                 f"median of {len(meter.loop_s)} samples; {REFERENCE_S} s unloaded"))
    rows.append(("item_s_tail", tail[1] if tail else "n/a", "s",
                 f"p{tail[0]} of all {n} runs" if tail else f"fewer than 11 runs ({n})"))
    rows.append(("fail_ratio", 1 - passed / distinct, "ratio", f"{distinct - passed} of {distinct} items"))
    print_table(f"{args.workload} seed={args.seed} wall={wall:.2f}s", rows)
    report_items(results)
    failed = sum(r.status != "ok" for r in results)
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}


def _traced_pass(args, root, out_dir, rec):
    """The traced pass: hooks installed, inputs rebuilt under them."""
    if args.workload == "cli":
        workload = Workload("cli", args.seed, root, out_dir)
        results, items, wall = run_passes(workload, 0, 1, max_passes=1, traced=True)
        tables, counts, labels, missing = [], {}, set(), set()
        for item in items:
            if not item.spans.is_file():
                continue
            child = json.loads(item.spans.read_text())
            tables.append(spans.table_from_json(child["table"]))
            for key, val in child["counts"].items():
                counts[key] = counts.get(key, 0) + val
            labels.update(child["installed_labels"])
            missing.update(child["missing"])
        return results, items, wall, spans.merge_tables(tables), counts, labels, sorted(missing)

    spans.install_hooks(rec)
    try:
        workload = Workload(args.workload, args.seed, root, out_dir)
        results, items, wall = run_passes(
            workload, 0, 1, max_passes=1, on_item=lambda item: rec.span("item", item.run)
        )
    finally:
        spans.remove_hooks(rec)
    return (results, items, wall, rec.table(), dict(rec.counts),
            set(rec.installed_labels), list(rec.missing))


def layer_values(agg, counts, labels):
    """Every per-layer metric whose hook was installed; zero when the hook
    was installed but never called."""
    flat = {f"{label}.{key}": val for label, row in agg.items() for key, val in row.items()}
    flat.update({key: int(val) for key, val in counts.items()})
    accepted = counts.get("optimizer.accepted_steps", 0)
    tried = accepted + counts.get("optimizer.crossing_rejections", 0)
    flat["optimizer.step_accept_ratio"] = accepted / tried if tried else 0.0
    calls = flat.get("gauge.value.calls", 0) + flat.get("gauge.grad.calls", 0)
    vectors = flat.get("gauge.value.vectors", 0) + flat.get("gauge.grad.vectors", 0)
    flat["gauge.vectors_per_call"] = vectors / calls if calls else 0.0
    return {
        name: flat.get(name, 0.0 if unit == "s" else 0)
        for name, unit in PER_LAYER.items()
        if HOOK_OF.get(name, name.rpartition(".")[0]) in labels
    }


def check_repeats(name, counts, root, out_dir, seed):
    """Compare the deterministic counters with the last traced run of the
    same code and seed; returns the counters that differ."""
    path = out_dir.parent / f"counters-{name}-seed{seed}-{code_hash(root)}.json"
    mine = {k: int(counts[k]) for k in DETERMINISTIC if k in counts}
    if not path.is_file():
        path.write_text(json.dumps(mine, sort_keys=True))
        return {}, False
    before = json.loads(path.read_text())
    return {k: (before.get(k), mine.get(k)) for k in set(before) | set(mine)
            if before.get(k) != mine.get(k)}, True


def traced_run(args, root, out_dir):
    imports = import_times(root)
    plain = Workload(args.workload, args.seed, root, out_dir)
    res_u, items_u, wall_u = run_passes(plain, 0, 1, max_passes=1)
    rec = spans.Recorder()
    res_t, items_t, wall_t, table, counts, labels, missing = _traced_pass(args, root, out_dir, rec)
    # one evaluation over both passes: a CLI report must not change under tracing
    ok = evaluate(res_u + res_t, items_u + items_t, cli=args.workload == "cli")

    agg = spans.aggregate(table)
    vals = layer_values(agg, counts, labels)
    vals.update(imports)
    vals["trace.overhead_s"] = wall_t - wall_u
    spans.write_table(out_dir.parent / f"spans-{args.workload}-seed{args.seed}.npz", table)

    # counters from return values must agree between the untraced and traced pass
    plain_c, traced_c = sum_counters(res_u, items_u), sum_counters(res_t, items_t)
    drift = {k: (plain_c.get(k), traced_c.get(k)) for k in set(plain_c) | set(traced_c)
             if plain_c.get(k) != traced_c.get(k)}
    repeat, compared = check_repeats(args.workload, counts, root, out_dir, args.seed)
    metrics = {k: metric(vals[k], PER_LAYER[k]) for k in PER_LAYER if k in vals}

    rows = [(k, v["value"], v["unit"], "") for k, v in metrics.items()]
    print_table(f"{args.workload} seed={args.seed} traced pass {wall_t:.2f}s, "
                f"untraced pass {wall_u:.2f}s, {len(table['start'])} spans", rows)
    print(f"  hooks installed: {', '.join(sorted(labels))}")
    print(f"  hook targets not found: {', '.join(missing) or 'none'}")
    absent = [k for k in PER_LAYER if k not in metrics]
    if absent:
        print(f"  absent metrics: {', '.join(absent)}")
    print("  counters repeat across runs: "
          + ("differ: " + json.dumps(repeat) if repeat else "yes" if compared
             else "first traced run of this code and seed, saved for the next"))
    if drift:
        print(f"  counters differ between untraced and traced pass: {json.dumps(drift)}")
    report_items(res_u + res_t)
    results = res_u + res_t
    failed = sum(r.status != "ok" for r in results)
    return {"correct": bool(ok and not repeat and not drift), "attempted": len(results),
            "failed": failed, "metrics": metrics}


def run_all(args, root):
    """Each workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        out = json.loads(lines[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for key, val in out["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "anisoclusters" / "__init__.py").is_file():
        print(f"error: {root} is not a source checkout (no src/anisoclusters)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload == "all":
        return run_all(args, root)
    if args.setup_probe:
        import workloads as wl

        if args.workload == "cli":
            wl.cli_scenarios(args.seed, 0)
        else:
            wl.WORKLOADS[args.workload](args.seed)
        return 0

    (root / OUT_DIR_NAME).mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / OUT_DIR_NAME))
    try:
        result = (traced_run if args.trace else timed_run)(args, root, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
