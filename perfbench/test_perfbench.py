"""Tests of the benchmark's own machinery (not of the program)."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from anisoclusters import builders, steiner  # noqa: E402


def test_seeded_inputs_repeat_and_differ_across_seeds():
    def configs(seed):
        rng = wl._rng(seed, 1)
        return [wl.random_slice_config(rng, wl.SLICE_GAUGES[0], n) for n in (4, 5, 6, 7, 8)]

    a, b, c = configs(3), configs(3), configs(4)
    assert [(list(x.angles), x.colors) for x in a] == [(list(x.angles), x.colors) for x in b]
    assert [list(x.angles) for x in a] != [list(x.angles) for x in c]
    tri = lambda s: wl.random_triangle(wl._rng(s, 2))
    assert np.array_equal(tri(3), tri(3))
    assert wl.cli_scenarios(3, 0) == wl.cli_scenarios(3, 0)
    assert sorted(wl.cli_scenarios(3, 1)) == sorted(wl.CLI_SCENARIOS)
    labels = lambda s: [i.label for i in wl.junction_items(s)]
    assert labels(3) == labels(3)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(range(10)) is None
    assert spans.tail_percentile(range(11)) == (9, 0.0)
    pct, value = spans.tail_percentile(range(200))
    assert pct == 95 and value == 189.0
    assert sum(x > value for x in range(200)) == 10


def _table(rows):
    labels = sorted({r[0] for r in rows})
    return {
        "labels": labels,
        "name": np.array([labels.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows], float),
        "end": np.array([r[2] for r in rows], float),
        "parent": np.array([r[3] for r in rows]),
        "outermost": np.array([r[4] for r in rows], bool),
    }


def test_self_time_of_nested_spans():
    # f [0,10] > g [1,4] > h [2,3];  f [0,10] > f [5,9] (recursive call)
    agg = spans.aggregate(_table([
        ("f", 0.0, 10.0, -1, True),
        ("g", 1.0, 4.0, 0, True),
        ("h", 2.0, 3.0, 1, True),
        ("f", 5.0, 9.0, 0, False),
    ]))
    assert agg["f"] == {"calls": 2, "total_s": 10.0, "self_s": 3.0 + 4.0}
    assert agg["g"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert agg["h"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_recorder_marks_recursion_and_merges_processes():
    rec = spans.Recorder()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = rec.wrap("fact", fact)
    assert wrapped(4) == 24
    table = rec.table()
    assert list(table["parent"]) == [-1, 0, 1, 2]
    assert list(table["outermost"]) == [True, False, False, False]
    merged = spans.merge_tables([table, spans.table_from_json(spans.table_to_json(table))])
    assert list(merged["parent"]) == [-1, 0, 1, 2, -1, 4, 5, 6]
    assert spans.aggregate(merged)["fact"]["calls"] == 8


def test_missing_hook_is_absent_not_fatal(capsys):
    import anisoclusters.optimizer as optimizer

    rec = spans.Recorder()
    original = optimizer.resample_cluster
    spans._patch(rec, "x.gone", "anisoclusters.optimizer:no_such_function", None)
    spans._patch(rec, "optimizer.resample_cluster", "anisoclusters.optimizer:resample_cluster", None)
    assert rec.missing == ["anisoclusters.optimizer:no_such_function"]
    assert "not found" in capsys.readouterr().err
    assert optimizer.resample_cluster is not original
    spans.remove_hooks(rec)
    assert optimizer.resample_cluster is original
    values = run.layer_values({}, {}, {"optimizer.resample_cluster"})
    assert values == {"optimizer.resample_cluster.total_s": 0.0}


def test_output_checks_reject_wrong_results():
    bad_bubble = SimpleNamespace(
        success=True, flags=[], volume_errors=np.array([1e-3, 0.0]),
        junctions=[{"angles_deg": [119.0, 121.0, 120.0]}] * 3,
    )
    claimed, problems = wl.check_bubble(bad_bubble, 1e-6)
    assert claimed and len(problems) == 1 + 6 + 1  # junction count, six angles, volume

    density = wl.Density.constant(wl.LpGauge(np.inf))
    tangled = builders.square_cross_cluster(n_sub=8, jitter=0.2, rng=np.random.default_rng(0))
    claimed, problems = wl.check_cross(SimpleNamespace(success=True, flags=[], cluster=tangled), density)
    assert claimed and problems

    gauge, pts, modes = wl.FERMAT_GAUGES[0], wl.random_triangle(wl._rng(1, 2)), ("out",) * 3
    res = steiner.fermat_point(gauge, *pts, modes=modes)
    assert wl.check_fermat(res, gauge, pts, modes) == (True, [])
    moved = SimpleNamespace(point=res.point + 0.05, value=res.value)
    assert wl.check_fermat(moved, gauge, pts, modes)[1]

    assert wl.check_slice(SimpleNamespace(delta=0.0))[1]
    assert wl.check_pairs([], 1, 1e-9)[1]
    wrong_report = {"count": 1, "pairs": [{"angle_b_deg": 119.0, "angle_c_deg": 120.0}]}
    assert wl.CLI_SCENARIOS["triples-euclidean.json"](wrong_report)


def test_cli_repeats_must_be_byte_identical():
    same = wl.CliRun(0, b"{}", b"<svg/>", "")
    other = wl.CliRun(0, b'{"a": 1}', b"<svg/>", "")
    assert wl.check_cli_repeats({"s.json": [same, same]}) == {}
    assert "s.json" in wl.check_cli_repeats({"s.json": [same, other]})


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert set(run.DETERMINISTIC) <= set(run.PER_LAYER)


def test_load_factor_uses_the_samples_around_an_item():
    import load

    meter = load.LoadMeter(window=0.3)
    meter.times, meter.loop_s = [0.0, 1.0, 2.0], [load.REFERENCE_S, 2 * load.REFERENCE_S, load.REFERENCE_S]
    assert meter.factor(0.1, 0.9) == pytest.approx(1 / 1.5)  # samples at 0 and 1
    assert meter.factor(1.0, 1.5) == pytest.approx(0.5)  # the sample at 1
    assert meter.factor(2.5, 3.0) == pytest.approx(1.0)  # none: the nearest, at 2


def test_load_meter_samples_inside_an_item_and_reports_its_pause():
    import time

    import load

    with load.LoadMeter(every=0.02) as meter:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
    assert len(meter.times) >= 5
    assert meter.paused == pytest.approx(sum(meter.loop_s))


def test_load_meter_takes_no_samples_while_a_child_runs():
    import time

    import load

    with load.LoadMeter(every=0.02) as meter:
        with meter.outside(bracket=2):
            t0 = time.perf_counter()
            time.sleep(0.2)
            t1 = time.perf_counter()
    inside = [t for t in meter.times if t0 <= t <= t1]
    assert inside == []
    assert sum(t < t0 for t in meter.times) >= 2 and sum(t > t1 for t in meter.times) >= 2


def test_run_cli_reports_the_childs_own_peak_memory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    grow = "import sys; b = bytearray(200 * 2**20); b[::4096] = b'x' * len(b[::4096]); sys.exit(3)"
    big = wl.run_cli([sys.executable, "-c", grow], out, None)
    small = wl.run_cli([sys.executable, "-c", "pass"], out, None)
    assert big.returncode == 3 and small.returncode == 0
    assert big.maxrss_kb > 200 * 1024 > small.maxrss_kb
