"""The benchmark's hooks still find what they wrap.

perfbench/spans.py wraps program functions by "module:attribute" (or
"module:Class.method") and reads some of their parameters and report
fields. A name that leaves its module, or a field that is renamed, drops
its metric from every traced run with no more than a warning; so does a
name that stays but is no longer called. These tests catch that in the
test suite instead. spans.py is loaded by path and only read.
"""

import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from anisoclusters import optimizer
from anisoclusters.builders import double_bubble_cluster
from anisoclusters.density import Density
from anisoclusters.gauge import EuclideanGauge
from anisoclusters.optimizer import SolveReport
from anisoclusters.steiner import fermat_point

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(spans):
    targets = [target for _, target, _ in spans.HOOKS]
    targets.append("anisoclusters.slices:enumerate_moves")
    missing = [t for t in targets if spans._resolve(t) is None]
    assert missing == [], f"hook targets not found: {', '.join(missing)}"


def test_the_fields_the_hooks_read_exist():
    assert "max_iter" in inspect.signature(fermat_point).parameters
    names = {f.name for f in fields(SolveReport)}
    read = {"inner_iterations", "outer_iterations", "crossing_rejections", "perimeter_trace"}
    assert read - names == set()


def test_the_solver_hooks_fire(spans):
    rec = spans.Recorder()
    spans.install_hooks(rec)
    try:
        problem = optimizer.OptimizationProblem(
            # the crossing guard tests pairs on this bubble; on the n_arc=12
            # one, started at its target volume, no pair comes near
            double_bubble_cluster(n_arc=48, n_mid=16),
            Density(EuclideanGauge()),
            [1.0, 1.0],
            optimizer.SolveOptions(max_outer=3),
        )
        optimizer.minimize(problem)
    finally:
        spans.remove_hooks(rec)
    fired = set(spans.aggregate(rec.table()))
    expected = {
        "optimizer.minimize",
        "optimizer.steiner_diagnose",
        "steiner.junction_residual",
        "optimizer.resample_cluster",
        "cluster.validate",
        "cluster.segment_weights",
        "geometry.segments_properly_cross",
    }
    assert expected - fired == set()
