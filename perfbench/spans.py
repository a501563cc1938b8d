"""Spans and counters recorded around calls into the program's public
functions, plus the statistics the benchmark reports.

A Recorder wraps a function so that every call leaves one span (name,
start, end, parent span) and, optionally, updates counters read from the
call's arguments or return value. Spans stay in memory in flat arrays and
are aggregated, or written out, once at the end. Nothing here changes the
program: hooks replace module or class attributes of the running process
only, and a hook whose target is missing is skipped with a warning.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Recorder:
    """In-memory span table and counters for one process."""

    def __init__(self):
        self.labels = []
        self._label_id = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.outermost = array("b")
        self.counts = defaultdict(float)
        self._stack = []
        self._active = defaultdict(int)
        self.installed = []
        self.installed_labels = set()
        self.missing = []
        self._originals = []

    def _intern(self, label):
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return self._label_id[label]

    def wrap(self, label, fn, count=None):
        """Return fn wrapped in a span; count(counts, bound_args, result)
        runs after each call when given."""
        lid = self._intern(label)
        clock = time.perf_counter
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(self.start)
            self.name.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.outermost.append(active[lid] == 0)
            self.end.append(0.0)
            stack.append(idx)
            active[lid] += 1
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                active[lid] -= 1
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return spanned

    def span(self, label, fn, *args, **kwargs):
        """Call fn once inside a span named label."""
        return self.wrap(label, fn)(*args, **kwargs)

    def table(self):
        """The span table as numpy arrays (name ids index self.labels)."""
        return {
            "labels": list(self.labels),
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "outermost": np.array(self.outermost, dtype=bool),
        }


def merge_tables(tables):
    """Concatenate span tables of several processes into one."""
    labels, lid = [], {}
    cols = defaultdict(list)
    offset = 0
    for t in tables:
        remap = []
        for lab in t["labels"]:
            if lab not in lid:
                lid[lab] = len(labels)
                labels.append(lab)
            remap.append(lid[lab])
        remap = np.asarray(remap, dtype=np.int64)
        name = np.asarray(t["name"], dtype=np.int64)
        parent = np.asarray(t["parent"], dtype=np.int64)
        cols["name"].append(remap[name] if len(name) else name)
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        for key in ("start", "end"):
            cols[key].append(np.asarray(t[key], dtype=float))
        cols["outermost"].append(np.asarray(t["outermost"], dtype=bool))
        offset += len(name)
    out = {"labels": labels}
    for key, dtype in (("name", np.int64), ("parent", np.int64), ("start", float),
                       ("end", float), ("outermost", bool)):
        parts = cols[key]
        out[key] = np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype)
    return out


def aggregate(table):
    """Per span name: calls, total_s and self_s.

    total_s is the wall time covered by the name's outermost spans, so a
    function that calls itself, or a wrapper around another wrapped method,
    is not counted twice. self_s sums each span's duration minus the time
    covered by its direct child spans.
    """
    name = table["name"]
    parent = table["parent"]
    dur = table["end"] - table["start"]
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
    self_t = dur - child
    out = {}
    for lid, label in enumerate(table["labels"]):
        sel = name == lid
        if not sel.any():
            continue
        out[label] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel & table["outermost"]].sum()),
            "self_s": float(self_t[sel].sum()),
        }
    return out


def write_table(path, table):
    np.savez_compressed(
        path,
        labels=np.asarray(table["labels"], dtype=str),
        **{k: table[k] for k in ("name", "start", "end", "parent", "outermost")},
    )


def table_to_json(table):
    return {k: (v if k == "labels" else np.asarray(v).tolist()) for k, v in table.items()}


def table_from_json(obj):
    return {
        "labels": list(obj["labels"]),
        "name": np.asarray(obj["name"], dtype=np.int64),
        "start": np.asarray(obj["start"], dtype=float),
        "end": np.asarray(obj["end"], dtype=float),
        "parent": np.asarray(obj["parent"], dtype=np.int64),
        "outermost": np.asarray(obj["outermost"], dtype=bool),
    }


# ---------------------------------------------------------------- hooks


def _n_vectors(v):
    return np.size(v) // 2


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _count_cross(fn):
    def count(c, args, kwargs, out):
        c["geometry.segments_properly_cross.pair_tests"] += len(args[0])
        c["geometry.segments_properly_cross.bytes_computed"] += sum(
            np.asarray(a).nbytes for a in args[:4]
        ) + np.asarray(out).nbytes
    return count


def _count_segments(fn):
    def count(c, args, kwargs, out):
        c["cluster.segment_weights.segments"] += len(args[1])
    return count


def _count_points(fn):
    def count(c, args, kwargs, out):
        c["density.g_at.points"] += _n_vectors(args[1])
    return count


def _count_vectors(label):
    def make(fn):
        def count(c, args, kwargs, out):
            c[label + ".vectors"] += _n_vectors(args[1])
        return count
    return make


def _count_solve(fn):
    def count(c, args, kwargs, out):
        c["optimizer.inner_iterations"] += out.inner_iterations
        c["optimizer.outer_iterations"] += out.outer_iterations
        c["optimizer.crossing_rejections"] += out.crossing_rejections
        c["optimizer.accepted_steps"] += len(out.perimeter_trace) - out.outer_iterations
    return count


def _count_fermat(fn):
    bind = _bound(fn)

    def count(c, args, kwargs, out):
        c["steiner.fermat_point.iterations"] += out.iterations
        c["steiner.fermat_point.max_iter_hits"] += out.iterations >= bind(args, kwargs)["max_iter"]
    return count


def _count_bytes(label):
    def make(fn):
        def count(c, args, kwargs, out):
            c[label + ".bytes"] += len(out.encode("utf-8"))
        return count
    return make


# (span label, "module:attribute" or "module:Class.method", counter factory)
HOOKS = [
    ("optimizer.minimize", "anisoclusters.optimizer:minimize", _count_solve),
    ("optimizer.minimize", "anisoclusters.cli:minimize", _count_solve),
    ("geometry.segments_properly_cross", "anisoclusters.optimizer:segments_properly_cross", _count_cross),
    ("cluster.segment_weights", "anisoclusters.optimizer:segment_weights", _count_segments),
    ("optimizer.resample_cluster", "anisoclusters.optimizer:resample_cluster", None),
    ("optimizer.steiner_diagnose", "anisoclusters.optimizer:steiner_diagnose", None),
    ("optimizer.steiner_diagnose", "anisoclusters.cli:steiner_diagnose", None),
    ("steiner.junction_residual", "anisoclusters.optimizer:junction_residual", None),
    ("cluster.validate", "anisoclusters.optimizer:validate", None),
    ("density.g_at", "anisoclusters.density:Density.g_at", _count_points),
    ("density.h_at", "anisoclusters.density:Density.h_at", None),
    ("builders", "anisoclusters.builders:double_bubble_cluster", None),
    ("builders", "anisoclusters.builders:square_cross_cluster", None),
    ("slices.improve", "anisoclusters.slices:improve", None),
    ("slices.improve", "anisoclusters.cli:improve", None),
    ("slices.oriented_weight", "anisoclusters.slices:oriented_weight", None),
    ("steiner.fermat_point", "anisoclusters.steiner:fermat_point", _count_fermat),
    ("steiner.fermat_point", "anisoclusters.cli:fermat_point", _count_fermat),
    ("steiner.admissible_pairs", "anisoclusters.steiner:admissible_pairs", None),
    ("steiner.admissible_pairs", "anisoclusters.cli:admissible_pairs", None),
    ("scenario.load_scenario", "anisoclusters.cli:load_scenario", None),
    ("report.write_report", "anisoclusters.cli:write_report", _count_bytes("report.write_report")),
    ("cli.main", "anisoclusters.cli:main", None),
]


def _resolve(target):
    """(owner, attribute name, function) for a hook target, or None."""
    mod_name, _, attr = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    return (owner, last, fn) if callable(fn) else None


def _missing(rec, target):
    rec.missing.append(target)
    print(f"warning: hook target {target} not found; its metrics are absent", file=sys.stderr)


def _patch(rec, label, target, factory):
    found = _resolve(target)
    if found is None:
        _missing(rec, target)
        return
    owner, attr, fn = found
    rec._originals.append((owner, attr, fn))
    setattr(owner, attr, rec.wrap(label, fn, factory(fn) if factory else None))
    rec.installed.append(target)
    rec.installed_labels.add(label)


def _gauge_classes():
    gauge_mod = importlib.import_module("anisoclusters.gauge")
    base = getattr(gauge_mod, "Gauge", None)
    if base is None:
        return []
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def _patch_svg(rec):
    svg_mod = importlib.import_module("anisoclusters.svg")
    names = [n for n in vars(svg_mod) if n.startswith("render_") and callable(getattr(svg_mod, n))]
    if not names:
        _missing(rec, "anisoclusters.svg:render_*")
    for n in sorted(names):
        _patch(rec, "svg.render", f"anisoclusters.svg:{n}", _count_bytes("svg.render"))


def _count_enumerated(rec, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            rec.counts["slices.candidates"] += 1
            yield item
    return counted


def install_hooks(rec):
    """Wrap every hook target that exists; return the list installed."""
    for label, target, factory in HOOKS:
        _patch(rec, label, target, factory)
    for cls in _gauge_classes():
        for meth in ("value", "grad"):
            if meth in cls.__dict__:
                target = f"{cls.__module__}:{cls.__qualname__}.{meth}"
                _patch(rec, f"gauge.{meth}", target, _count_vectors(f"gauge.{meth}"))
    _patch_svg(rec)
    target = "anisoclusters.slices:enumerate_moves"
    found = _resolve(target)
    if found is None:
        _missing(rec, target)
    else:
        owner, attr, fn = found
        rec._originals.append((owner, attr, fn))
        setattr(owner, attr, _count_enumerated(rec, fn))
        rec.installed.append(target)
        rec.installed_labels.add("slices.enumerate_moves")
    return rec.installed


def remove_hooks(rec):
    """Put back every function install_hooks replaced."""
    while rec._originals:
        owner, attr, fn = rec._originals.pop()
        setattr(owner, attr, fn)


# ---------------------------------------------------------------- statistics


def tail_percentile(values, beyond=10):
    """Highest whole percentile with at least `beyond` samples above it.

    Returns (percentile, value), or None when fewer than beyond + 1 samples
    exist. The value is the sample at that rank (nearest-rank rule), so
    exactly the samples ranked after it lie beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    for pct in range(99, 0, -1):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= beyond:
            return pct, float(xs[rank - 1])
    return None
