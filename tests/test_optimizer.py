"""Constrained perimeter minimization and junction diagnostics."""

import hashlib
import subprocess
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anisoclusters import (
    Cluster,
    Density,
    Edge,
    EllipseGauge,
    EuclideanGauge,
    LinearGauge,
    LpGauge,
    OptimizationProblem,
    RotatedGauge,
    ShiftedDiskGauge,
    SmoothedL1Gauge,
    SolveOptions,
    ball_bound_check,
    detect_junctions,
    double_bubble_cluster,
    interface_perimeter,
    interface_sum,
    minimize,
    perimeter_breakdown,
    regular_polygon_chamber,
    render_report,
    resample_cluster,
    square_cross_cluster,
    steiner_diagnose,
    weighted_perimeter,
    weighted_volume,
)
import anisoclusters
from anisoclusters import optimizer
from anisoclusters.cluster import fan_volume_terms, orientation_rule
from anisoclusters.geometry import (
    angle_between,
    angle_of,
    box_gap,
    cross2,
    grown_boxes,
    hausdorff_to_segments,
    rotate_ccw,
    rotate_cw,
    segment_boxes,
    segment_distance,
    segments_properly_cross,
    unit_dir,
    wrap_angle,
)
from anisoclusters.steiner import arm_forces
from conftest import all_gauge_list, odd_profile_gauge

EUCLID = Density.constant(EuclideanGauge())
MAXNORM = Density.constant(LpGauge(np.inf))


def exact_double_bubble(n_arc=48, n_mid=8):
    """Equal-volume stationary double bubble built from exact circular arcs.

    Unit-radius circles centered at (-1/2, 0) and (1/2, 0), junctions at
    (0, +-sqrt(3)/2), straight vertical interface; all three arms meet at
    120 degrees by construction.
    """
    jt = np.array([0.0, np.sqrt(3) / 2])
    jb = -jt
    tl = np.linspace(np.radians(60), np.radians(300), n_arc + 1)
    left_pts = np.column_stack([np.cos(tl), np.sin(tl)]) - [0.5, 0.0]
    tr = np.linspace(np.radians(240), np.radians(480), n_arc + 1)
    right_pts = np.column_stack([np.cos(tr), np.sin(tr)]) + [0.5, 0.0]
    ys = np.linspace(jt[1], jb[1], n_mid + 1)
    mid_pts = np.column_stack([np.zeros_like(ys), ys])
    verts = [jt, jb]

    def add(pts):
        ids = list(range(len(verts), len(verts) + len(pts)))
        verts.extend(pts)
        return ids

    lid = [0] + add(left_pts[1:-1]) + [1]
    rid = [1] + add(right_pts[1:-1]) + [0]
    mid = [0] + add(mid_pts[1:-1]) + [1]
    return Cluster(
        np.array(verts), [Edge(lid, 1, 0), Edge(rid, 2, 0), Edge(mid, 2, 1)], 2
    )


def all_pairs(i0, i1):
    """All segment pairs (a < b) that share no endpoint, with no broad phase."""
    a, b = np.triu_indices(len(i0), k=1)
    share = (i0[a] == i0[b]) | (i0[a] == i1[b]) | (i1[a] == i0[b]) | (i1[a] == i1[b])
    return a[~share], b[~share]


def crossing_set(V, i0, i1):
    a, b = all_pairs(i0, i1)
    hit = segments_properly_cross(V[i0[a]], V[i1[a]], V[i0[b]], V[i1[b]])
    return set(zip(a[hit].tolist(), b[hit].tolist()))


def jittered_cluster(kind, jitter, rng):
    """A double bubble or a square cross with every vertex moved by up to
    jitter segment lengths; None when that makes two segments cross."""
    if kind == "bubble":
        cl = double_bubble_cluster(n_arc=int(rng.integers(4, 40)), n_mid=int(rng.integers(2, 12)))
    else:
        cl = square_cross_cluster(n_sub=int(rng.integers(2, 12)))
        for e in cl.edges:
            if 0 in (e.left, e.right):
                e.tags["wall"] = True
    seg = optimizer._default_resample_len(cl)
    cl.vertices = cl.vertices + rng.uniform(-jitter, jitter, cl.vertices.shape) * seg
    i0, i1, _, _, _ = cl.segment_index_arrays()
    return None if crossing_set(cl.vertices, i0, i1) else cl


def first_step(dofs, V, rng):
    """A first line-search step within dofs.step_caps: half the time a corner
    of the box, which has the largest reach, else a random point in it."""
    caps = dofs.step_caps(V)
    if rng.random() < 0.5:
        return caps * rng.choice([-1.0, 1.0], dofs.n)
    return caps * rng.uniform(-1.0, 1.0, dofs.n)


class TestClearanceCaps:
    """The per-iteration caps of _descend: no line-search step within them
    folds the boundary, and their candidate pairs hold every crossing that a
    move within the first step's reach can make."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["bubble", "cross"]), st.floats(0.0, 0.4), st.integers(0, 2**32 - 1))
    def test_steps_within_the_caps_never_cross(self, kind, jitter, seed):
        rng = np.random.default_rng(seed)
        cl = jittered_cluster(kind, jitter, rng)
        assume(cl is not None)
        dofs = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), optimizer._default_resample_len(cl))
        i0, i1, _, _, _ = cl.segment_index_arrays()
        d0 = first_step(dofs, cl.vertices, rng)
        safe, _ = optimizer._clearance_caps(cl.vertices, dofs, d0)
        caps = np.minimum(dofs.step_caps(cl.vertices), safe)
        for k in range(20):
            # the first trial, then steps scaled down per dof and clipped
            scale = 1.0 if k == 0 else rng.uniform(0.0, 1.0, dofs.n)
            d = np.clip(scale * d0, -caps, caps)
            assert not crossing_set(optimizer._apply_step(cl.vertices, dofs, d), i0, i1)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["bubble", "cross"]), st.floats(0.0, 0.4), st.integers(0, 2**32 - 1))
    def test_candidate_pairs_hold_every_crossing_within_reach(self, kind, jitter, seed):
        rng = np.random.default_rng(seed)
        cl = jittered_cluster(kind, jitter, rng)
        assume(cl is not None)
        V = cl.vertices
        dofs = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), optimizer._default_resample_len(cl))
        i0, i1, _, _, _ = cl.segment_index_arrays()
        d0 = first_step(dofs, V, rng)
        delta = np.sqrt(np.bincount(dofs.vert, weights=d0 * d0, minlength=len(V)).max())
        _, ends = optimizer._clearance_caps(V, dofs, d0)
        candidates = {tuple(e) for e in ends.T.tolist()}
        crossed = set()
        for _ in range(20):
            # any move of every vertex, pinned ones too, by at most delta
            angle = rng.uniform(0.0, 2.0 * np.pi, len(V))
            r = delta * np.sqrt(rng.uniform(0.0, 1.0, len(V)))
            Vt = V + r[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
            crossed |= {
                (int(i0[a]), int(i1[a]), int(i0[b]), int(i1[b])) for a, b in crossing_set(Vt, i0, i1)
            }
        assert crossed <= candidates


class TestMinimize:
    def test_single_chamber_reaches_round_optimum(self):
        rep = minimize(
            OptimizationProblem(regular_polygon_chamber(64, area=np.pi), EUCLID, [np.pi])
        )
        assert rep.success
        assert rep.perimeter == pytest.approx(2 * np.pi, rel=1e-3)
        assert np.max(np.abs(rep.volume_errors)) <= 1e-6

    def test_anisotropic_optimum_matches_support_identity(self):
        # for a symmetric smooth gauge the optimal single chamber satisfies
        # perimeter = 2 * sqrt(volume * ball_area) where ball_area is the
        # area of the shape whose support function is the gauge
        Q = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = Density.constant(EllipseGauge(Q))
        rep = minimize(OptimizationProblem(regular_polygon_chamber(96, area=1.0), d, [1.0]))
        oracle = 2.0 * np.sqrt(np.pi * np.sqrt(np.linalg.det(Q)))
        assert rep.success
        assert rep.perimeter == pytest.approx(oracle, rel=1e-3)

    def test_joint_scaling_leaves_geometry_alone(self):
        Q = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = Density.constant(EllipseGauge(Q))
        base = minimize(
            OptimizationProblem(regular_polygon_chamber(96, area=1.0), d, [1.0])
        )
        scaled = minimize(
            OptimizationProblem(
                regular_polygon_chamber(96, area=1.0), d.scaled(2.0), [2.0]
            )
        )
        assert scaled.perimeter == pytest.approx(2.0 * base.perimeter, rel=1e-6)

    def test_double_bubble_structure(self):
        rep = minimize(
            OptimizationProblem(
                double_bubble_cluster(n_arc=16, n_mid=5), EUCLID, [1.0, 1.0]
            )
        )
        assert rep.success
        assert np.max(np.abs(rep.volume_errors)) <= 1e-6
        assert len(rep.junctions) == 2
        for j in rep.junctions:
            assert not j["non_triple"]
            assert sorted(j["angles_deg"]) == pytest.approx([120.0] * 3, abs=2.0)

    def test_deterministic_reruns_are_bitwise_identical(self):
        def run():
            return minimize(
                OptimizationProblem(
                    double_bubble_cluster(n_arc=12, n_mid=4),
                    EUCLID,
                    [1.0, 1.0],
                )
            )

        a, b = run(), run()
        assert a.perimeter == b.perimeter
        assert np.array_equal(a.cluster.vertices, b.cluster.vertices)
        assert a.spec() == b.spec()

    def test_one_descent_then_the_junction_diagnosis(self, monkeypatch):
        # minimize is one solve from the volume-matched start, and the
        # diagnosis of that solve's final cluster
        problem = OptimizationProblem(double_bubble_cluster(n_arc=12, n_mid=4), EUCLID, [1.0, 0.98])
        solves, diagnosed = [], []
        solve, diagnose = optimizer._solve_single, optimizer.steiner_diagnose

        def recording_solve(cluster, *args):
            start = cluster.vertices.tobytes()
            rep = solve(cluster, *args)
            solves.append((start, rep))
            return rep

        def recording_diagnose(cluster, density):
            diagnosed.append(cluster)
            return diagnose(cluster, density)

        monkeypatch.setattr(optimizer, "_solve_single", recording_solve)
        monkeypatch.setattr(optimizer, "steiner_diagnose", recording_diagnose)
        rep = minimize(problem)
        ((start, single),) = solves
        assert start == optimizer._volume_matched(problem).vertices.tobytes()
        assert single is rep
        assert diagnosed == [rep.cluster]

    def test_a_solve_draws_no_random_numbers(self, monkeypatch):
        problem = OptimizationProblem(double_bubble_cluster(n_arc=12, n_mid=4), EUCLID, [1.0, 1.0])

        def forbidden(*args, **kwargs):
            raise AssertionError("a solve drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.random, "seed", forbidden)
        assert minimize(problem).success

    def test_broad_phase_leaves_the_solve_unchanged(self, monkeypatch):
        def solve():
            return minimize(
                OptimizationProblem(
                    double_bubble_cluster(n_arc=16, n_mid=5),
                    EUCLID,
                    [1.0, 1.0],
                )
            )

        pruned = solve()
        # the clearance caps leave no trial step that folds the boundary
        assert pruned.crossing_rejections == 0
        oracle_calls = []
        meshes = []

        class RecordedMesh(optimizer._Mesh):
            def __init__(self, *args):
                super().__init__(*args)
                meshes.append(self)

        def all_pairs_check(V, ends):
            # every pair of the latest mesh's segments sharing no endpoint,
            # not only the candidate pairs
            mesh = meshes[-1]
            oracle_calls.append(ends.shape[1])
            return bool(crossing_set(V, mesh.i0, mesh.i1))

        monkeypatch.setattr(optimizer, "_Mesh", RecordedMesh)
        monkeypatch.setattr(optimizer, "_has_crossing", all_pairs_check)
        oracle = solve()
        assert oracle_calls
        assert pruned.spec() == oracle.spec()

    @pytest.mark.parametrize("targets", [[2.4, 2.1], [1.0, 0.9]], ids=["near", "far"])
    def test_every_start_resamples_to_the_problem_length(self, monkeypatch, targets):
        # the solve resamples to the length of the problem's cluster, not to
        # one recomputed from the volume-matched start, which the targets
        # rescale a little (volumes 2.37 each) or a lot
        lens = []
        resample = optimizer.resample_cluster

        def recorded(cluster, target_len):
            lens.append(target_len)
            return resample(cluster, target_len)

        monkeypatch.setattr(optimizer, "resample_cluster", recorded)
        problem = OptimizationProblem(double_bubble_cluster(n_arc=12, n_mid=4), EUCLID, targets)
        length = optimizer._default_resample_len(problem.cluster)
        assert optimizer._default_resample_len(optimizer._volume_matched(problem)) != length
        minimize(problem)
        assert lens and set(lens) == {length}

    def test_report_has_no_start_fields(self):
        names = {f.name for f in dataclass_fields(optimizer.SolveReport)}
        assert not {"starts", "start_index"} & names

    def test_report_internal_consistency(self):
        rep = minimize(
            OptimizationProblem(regular_polygon_chamber(48, area=np.pi), EUCLID, [np.pi])
        )
        assert rep.perimeter == pytest.approx(
            weighted_perimeter(rep.cluster, EUCLID), abs=1e-12
        )
        assert rep.interface_perimeter == pytest.approx(
            interface_perimeter(rep.cluster, EUCLID), abs=1e-12
        )
        assert rep.volumes == pytest.approx(
            weighted_volume(rep.cluster, EUCLID), abs=1e-12
        )
        assert len(rep.perimeter_trace) > 0
        assert rep.volume_error_trace[-1] <= 1e-6
        spec = rep.spec()
        assert spec["success"] and isinstance(spec["cluster"], dict)

    def test_exhausted_budget_reports_failure(self):
        rep = minimize(
            OptimizationProblem(
                double_bubble_cluster(n_arc=16, n_mid=5),
                EUCLID,
                [1.0, 1.0],
                SolveOptions(max_outer=1),
            )
        )
        assert not rep.success
        assert "max_outer_reached" in rep.flags
        assert "non_convergence" in rep.flags


def solve_cross(density, rng, targets=np.ones(4)):
    cl = square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(rng))
    return minimize(OptimizationProblem(cl, density, targets, SolveOptions(max_outer=60)))


class TestContinuation:
    @pytest.mark.parametrize("rng", range(12))
    def test_max_norm_cross_converges_on_the_diagonals(self, rng):
        rep = solve_cross(MAXNORM, rng)
        assert rep.success, rep.flags
        assert "inner_stall_at_tolerance" not in rep.flags
        assert rep.resamples == 0
        assert interface_perimeter(rep.cluster, MAXNORM) <= 4.01
        ids = sorted({v for e in rep.cluster.edges if not e.tags.get("wall") for v in e.vertices})
        hd = hausdorff_to_segments(
            rep.cluster.vertices[ids],
            np.array([[-1.0, -1.0], [-1.0, 1.0]]),
            np.array([[1.0, 1.0], [1.0, -1.0]]),
        )
        assert hd <= 0.05

    def test_scaled_density_doubles_the_perimeter(self):
        base = solve_cross(MAXNORM, 2)
        scaled = solve_cross(MAXNORM.scaled(2.0), 2, targets=2.0 * np.ones(4))
        assert scaled.success
        assert scaled.perimeter == pytest.approx(2.0 * base.perimeter, rel=1e-6)
        assert [c["inner_iterations"] for c in scaled.continuation] == [
            c["inner_iterations"] for c in base.continuation
        ]

    def test_smooth_gauges_have_no_ladder(self, smooth_gauges):
        for g in smooth_gauges:
            assert g.continuation() == ()
        rep = minimize(
            OptimizationProblem(regular_polygon_chamber(32, area=np.pi), EUCLID, [np.pi])
        )
        assert rep.continuation == []
        assert rep.spec()["continuation"] == []

    def test_true_gauge_follows_the_last_stage(self, monkeypatch):
        gauges, inner = [], []
        descend = optimizer._descend

        def recording(cl, density, *args):
            gauges.append(density.gauge_at(None).spec())
            cl, mesh, rec = descend(cl, density, *args)
            inner.append(rec.iterations)
            return cl, mesh, rec

        monkeypatch.setattr(optimizer, "_descend", recording)
        rep = solve_cross(MAXNORM, 0)
        ladder = [g.spec() for g in LpGauge(np.inf).continuation()]
        assert ladder == [{"kind": "lp", "p": p} for p in (8.0, 32.0, 128.0)]
        assert [c["gauge"] for c in rep.spec()["continuation"]] == ladder
        n = len(ladder)
        assert gauges[:n] == ladder
        assert gauges[n:] == [{"kind": "lp", "p": "inf"}] * rep.outer_iterations
        assert [c["inner_iterations"] for c in rep.continuation] == inner[:n]
        assert rep.inner_iterations == sum(inner)


def split_cross(gap, n_sub=8):
    """The square cross with its center split into two triple junctions at
    (-gap/2, 0) and (gap/2, 0), joined by a one-segment edge between the top
    and bottom chambers."""
    verts = [np.array(v) for v in ([1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0])]
    verts += [np.array([-gap / 2, 0.0]), np.array([gap / 2, 0.0])]
    edges = [Edge([k, (k + 1) % 4], k + 1, 0, {"wall": True}) for k in range(4)]
    edges.append(Edge([4, 5], 1, 3))
    for j, corner, left, right in ((5, 0, 1, 4), (4, 1, 2, 1), (4, 2, 3, 2), (5, 3, 4, 3)):
        pts = np.linspace(verts[j], verts[corner], n_sub + 1)[1:-1]
        edges.append(Edge([j, *range(len(verts), len(verts) + len(pts)), corner], left, right))
        verts.extend(pts)
    return Cluster(np.array(verts), edges, 4)


def record_descents(monkeypatch):
    """Per call of _descend: the (lam, mu) of every _Mesh.evaluate call it
    makes, the resample_cluster calls it makes, and its record."""
    descents = []
    descend, evaluate = optimizer._descend, optimizer._Mesh.evaluate
    resample = optimizer.resample_cluster

    def recording_descend(*args):
        descents.append({"multipliers": [], "resamplings": 0})
        cl, mesh, rec = descend(*args)
        descents[-1]["record"] = rec
        return cl, mesh, rec

    def recording_evaluate(self, V, rows, lam, mu, P0):
        descents[-1]["multipliers"].append((lam.copy(), mu))
        return evaluate(self, V, rows, lam, mu, P0)

    def recording_resample(*args):
        # the resampling between outer iterations comes after a record
        if descents and "record" not in descents[-1]:
            descents[-1]["resamplings"] += 1
        return resample(*args)

    monkeypatch.setattr(optimizer, "_descend", recording_descend)
    monkeypatch.setattr(optimizer._Mesh, "evaluate", recording_evaluate)
    monkeypatch.setattr(optimizer, "resample_cluster", recording_resample)
    return descents


def solve_bubble(opts=None):
    return minimize(
        OptimizationProblem(
            double_bubble_cluster(n_arc=48, n_mid=16), EUCLID, [1.0, 1.0], opts or SolveOptions()
        )
    )


class TestRemeshOnCollapse:
    """A step that collapses a segment sends the descent through
    resample_cluster and on, in the same outer iteration."""

    def test_bubble_resamples_and_reruns_identically(self):
        a, b = solve_bubble(), solve_bubble()
        assert a.success
        assert a.resamples > 0
        assert a.spec()["resamples"] == a.resamples
        assert a.spec() == b.spec()

    def test_restarts_keep_the_multipliers_and_share_the_budget(self, monkeypatch):
        descents = record_descents(monkeypatch)
        opts = SolveOptions(max_outer=2, max_inner=30)
        rep = solve_bubble(opts)
        assert len(descents) == rep.outer_iterations
        assert rep.resamples == sum(d["resamplings"] for d in descents) > 0
        assert [d["record"].resamples for d in descents] == [d["resamplings"] for d in descents]
        assert rep.inner_iterations == sum(d["record"].iterations for d in descents)
        for d in descents:
            lam, mu = d["multipliers"][0]
            assert all(np.array_equal(l, lam) and m == mu for l, m in d["multipliers"])
            assert d["record"].iterations <= opts.max_inner

    def test_a_descent_out_of_steps_stops_on_its_budget(self, monkeypatch):
        descents = record_descents(monkeypatch)
        rep = solve_bubble(SolveOptions(max_inner=5))
        assert len(descents) == rep.outer_iterations
        assert [(d["record"].stop, d["record"].iterations) for d in descents] == [
            ("budget", 5)
        ] * rep.outer_iterations

    def test_a_clean_solve_ends_on_a_converged_descent(self, monkeypatch):
        descents = record_descents(monkeypatch)
        rep = solve_bubble()
        assert rep.success and rep.flags == []
        assert descents[-1]["record"].stop == "converged"

    def test_a_short_one_segment_edge_never_restarts(self):
        cl = split_cross(0.01)
        rs_len = optimizer._default_resample_len(cl)
        assert 0.01 < optimizer.COLLAPSE_FRACTION * rs_len
        rep = minimize(OptimizationProblem(cl, EUCLID, np.ones(4), SolveOptions(max_outer=2)))
        # the trace holds one entry per outer iteration plus one per accepted step
        assert len(rep.perimeter_trace) > rep.outer_iterations
        assert rep.resamples == 0

    def test_a_short_wall_segment_never_restarts(self):
        cl = square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(0))
        # one extra wall vertex 1e-3 from the corner (1, 1), sliding along the top wall
        cl.vertices = np.vstack([cl.vertices, [1.0 - 1e-3, 1.0]])
        cl.edges[0] = Edge([0, len(cl.vertices) - 1, 1], 1, 0, {"wall": True})
        assert 1e-3 < optimizer.COLLAPSE_FRACTION * optimizer._default_resample_len(cl)
        rep = minimize(OptimizationProblem(cl, EUCLID, np.ones(4), SolveOptions(max_outer=2)))
        # the trace holds one entry per outer iteration plus one per accepted step
        assert len(rep.perimeter_trace) > rep.outer_iterations
        assert rep.resamples == 0


class TestDescentRecord:
    """Each _Descent holds the interface perimeter, volumes and relative
    volume errors of the state its descent ended at, as the evaluation that
    produced that state gave them: equal bit for bit to a fresh evaluation
    of the cluster and mesh that _descend returns."""

    @pytest.mark.parametrize("case", ["restart-then-budget", "walled", "cross"])
    def test_holds_the_state_it_ended_at(self, case, monkeypatch):
        records = []
        descend = optimizer._descend

        def recording(*args):
            cl, mesh, rec = descend(*args)
            # evaluated here: the next descent moves cl's vertices
            _, P, vols, errors, _, _ = mesh.evaluate(cl.vertices, mesh.objective_rows, 0.0, 0.0, None)
            fresh = (P, vols, errors)
            records.append((rec, fresh))
            return cl, mesh, rec

        monkeypatch.setattr(optimizer, "_descend", recording)
        if case == "restart-then-budget":
            solve_bubble(SolveOptions(max_outer=2, max_inner=30))
            # the first descent restarts on a collapse, then runs out of steps
            assert (records[0][0].resamples, records[0][0].stop) == (1, "budget")
        elif case == "walled":
            minimize(next(pinned_solves()))
        else:
            solve_cross(MAXNORM, 0)
            assert len(records) > 3
        for rec, (P, vols, errors) in records:
            assert rec.perimeter == P
            assert rec.volumes.tobytes() == vols.tobytes()
            assert rec.errors.tobytes() == errors.tobytes()

    @pytest.mark.parametrize("case", ["restarts", "walled", "cross"])
    def test_each_descent_prices_its_start_once(self, case, monkeypatch):
        # the start's first objective gives the descent its P0, so no other
        # evaluation of the objective's rows sees the start's gather
        gathers = []
        descend, evaluate = optimizer._descend, optimizer._Mesh.evaluate

        def recording_descend(*args):
            gathers.append([])
            out = descend(*args)
            gathers.append(None)
            return out

        def recording_evaluate(self, *args):
            out = evaluate(self, *args)
            if gathers and gathers[-1] is not None and out[4] is not None:
                gathers[-1].append(out[4].copy())
            return out

        monkeypatch.setattr(optimizer, "_descend", recording_descend)
        monkeypatch.setattr(optimizer._Mesh, "evaluate", recording_evaluate)
        if case == "restarts":
            rep = solve_bubble()
            assert rep.resamples > 0
        elif case == "walled":
            minimize(next(pinned_solves()))
        else:
            solve_cross(MAXNORM, 0)
        descents = [g for g in gathers if g is not None]
        assert len(descents) > 1
        for calls in descents:
            assert sum(np.array_equal(X, calls[0]) for X in calls) == 1


def zigzag_lens():
    """Two chambers above and below a zig-zag edge tagged fixed, from (-1, 0)
    through (0, 0) to (1, 0) with corners at (+-0.5, -0.3), closed by two
    free arcs."""
    t = np.linspace(0.0, np.pi, 17)[1:-1]
    top = np.column_stack([np.cos(t), 0.8 * np.sin(t)])
    bottom = np.column_stack([np.cos(t + np.pi), 0.9 * np.sin(t + np.pi) - 0.2])
    zigzag = [[-1.0, 0.0], [-0.5, -0.3], [0.0, 0.0], [0.5, -0.3], [1.0, 0.0]]
    top_ids = list(range(5, 5 + len(top)))
    bottom_ids = list(range(5 + len(top), 5 + len(top) + len(bottom)))
    edges = [
        Edge([0, 1, 2, 3, 4], 1, 2, {"fixed": True}),
        Edge([4, *top_ids, 0], 1, 0),
        Edge([0, *bottom_ids, 4], 2, 0),
    ]
    return Cluster(np.vstack([zigzag, top, bottom]), edges, 2)


class TestFixedEdges:
    """An edge tagged fixed is counted in the objective but never moves:
    descent pins its vertices, and neither resampling nor the collapse check
    touches it."""

    def test_a_fixed_zigzag_keeps_its_vertices(self):
        cl = zigzag_lens()
        zigzag = cl.edge_points(cl.edges[0])
        resampled = optimizer.resample_cluster(cl, 0.15)
        assert np.array_equal(resampled.edge_points(resampled.edges[0]), zigzag)
        # the free arcs are resampled
        assert len(resampled.vertices) != len(cl.vertices)
        rep = minimize(OptimizationProblem(cl, EUCLID, [1.5, 1.5], SolveOptions(max_outer=10)))
        assert rep.outer_iterations > 1
        assert np.array_equal(rep.cluster.edge_points(rep.cluster.edges[0]), zigzag)

    def test_a_short_fixed_segment_never_restarts(self):
        cl = square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(0))
        # one extra vertex 1e-3 from the corner (1, 1) on the fixed interface to it
        e = cl.edges[4]
        assert e.vertices[-1] == 0
        corner, last = cl.vertices[0], cl.vertices[e.vertices[-2]]
        near = corner + 1e-3 * (last - corner) / np.linalg.norm(last - corner)
        cl.vertices = np.vstack([cl.vertices, near])
        ids = [*e.vertices[:-1], len(cl.vertices) - 1, 0]
        cl.edges[4] = Edge(ids, e.left, e.right, {"fixed": True})
        assert 1e-3 < optimizer.COLLAPSE_FRACTION * optimizer._default_resample_len(cl)
        rep = minimize(OptimizationProblem(cl, EUCLID, np.ones(4), SolveOptions(max_outer=2)))
        # the trace holds one entry per outer iteration plus one per accepted step
        assert len(rep.perimeter_trace) > rep.outer_iterations
        assert rep.resamples == 0


def walled_plus(rng, jitter=0.03, n_wall=3, n_arm=6):
    """The square [-1, 1]^2 cut into its quadrants (chambers 1-4
    counterclockwise from the top right) by four arms from a jittered
    center to the wall midpoints. Every wall side is two walls of n_wall
    segments, so the arms end at sliding vertices."""
    corners = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
    mids = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    verts = [np.array(p) for p in corners + mids] + [rng.normal(0.0, jitter, 2)]

    def run(a, b, n, jit):
        t = np.linspace(0.0, 1.0, n + 1)[1:-1, None]
        pts = (1.0 - t) * verts[a] + t * verts[b] + rng.normal(0.0, jit, (n - 1, 2))
        verts.extend(pts)
        return [a, *range(len(verts) - len(pts), len(verts)), b]

    edges = []
    for k in range(4):
        # counterclockwise from the midpoint before corner k to the one after it
        edges.append(Edge(run(4 + k, k, n_wall, 0.0), k + 1, 0, {"wall": True}))
        edges.append(Edge(run(k, 4 + (k + 1) % 4, n_wall, 0.0), k + 1, 0, {"wall": True}))
    for k in range(4):
        # the arm to midpoint k has chamber k + 1 on its left
        edges.append(Edge(run(8, 4 + k, n_arm, jitter), k + 1, k or 4))
    return Cluster(np.array(verts), edges, 4)


def matched(problem):
    """The volume-matched start of problem, and its scale factor s."""
    s = np.sqrt(problem.targets.sum() / weighted_volume(problem.cluster, problem.density).sum())
    return optimizer._volume_matched(problem), float(s)


class TestVolumeMatchedStart:
    """minimize starts every wall-free solve under a constant g from a copy
    of the problem's cluster scaled to the targets' total volume."""

    @pytest.mark.parametrize("n_arc", [12, 24, 48, 96])
    @pytest.mark.parametrize("ratio", [1.0, 0.98, 0.5, 3.0])
    @pytest.mark.parametrize("g", [1.0, 0.7, 3.3])
    def test_the_copy_meets_the_summed_targets(self, n_arc, ratio, g):
        density = Density.constant(EllipseGauge([[2.0, 0.3], [0.3, 1.0]]), g=g)
        cl = double_bubble_cluster(n_arc=n_arc, n_mid=n_arc // 3)
        targets = g * np.array([1.0, ratio])
        start, s = matched(OptimizationProblem(cl, density, targets))
        assert s != 1.0
        # s, s**2 and the vertices each round, and so does the fan sum
        assert abs(weighted_volume(start, density).sum() - targets.sum()) <= 8 * np.spacing(
            targets.sum()
        )
        # scaled about the mean of the vertices, with the edges untouched
        assert np.allclose(start.vertices.mean(axis=0), cl.vertices.mean(axis=0), atol=1e-15)
        assert [e.vertices for e in start.edges] == [e.vertices for e in cl.edges]

    def test_a_long_fan_sum_meets_them_within_its_rounding(self):
        # a chamber's volume is a sequential sum of its fan terms, whose
        # rounding grows with their number: 256 equal terms reach ~50 ulps
        cl = regular_polygon_chamber(256, area=np.pi)
        start, _ = matched(OptimizationProblem(cl, EUCLID, [1.0]))
        assert abs(weighted_volume(start, EUCLID).sum() - 1.0) <= 256 * np.spacing(1.0)

    @pytest.mark.parametrize("case", ["walls", "fixed", "callable g", "unit scale"])
    def test_the_copy_is_unscaled(self, case):
        if case == "walls":
            problem = OptimizationProblem(square_cross_cluster(n_sub=8), EUCLID, 1.2 * np.ones(4))
        elif case == "fixed":
            problem = OptimizationProblem(zigzag_lens(), EUCLID, [1.5, 1.5])
        elif case == "callable g":
            density = Density(EuclideanGauge(), g=lambda pts: 1.0 + 0.1 * pts[..., 0] ** 2)
            cl = double_bubble_cluster(n_arc=24, n_mid=8)
            problem = OptimizationProblem(cl, density, [1.0, 1.0])
        else:
            cl = double_bubble_cluster(n_arc=24, n_mid=8)
            problem = OptimizationProblem(cl, EUCLID, weighted_volume(cl, EUCLID))
        start, s = matched(problem)
        assert (s == 1.0) == (case == "unit scale")
        assert start is not problem.cluster
        assert start.vertices.tobytes() == problem.cluster.vertices.tobytes()
        if case == "unit scale":
            # a rescale by 1.0 about the mean would move some last bits
            V = problem.cluster.vertices
            c = V.mean(axis=0)
            assert (c + 1.0 * (V - c)).tobytes() != V.tobytes()

    def test_every_start_begins_from_the_scaled_copy(self, monkeypatch):
        problem = OptimizationProblem(
            double_bubble_cluster(n_arc=24, n_mid=8),
            EUCLID,
            [1.0, 0.98],
            SolveOptions(max_outer=2),
        )
        start, s = matched(problem)
        assert s < 0.9
        # the copy is far from the unscaled cluster, beyond its own step caps
        caps = optimizer._Mesh(start, EUCLID, problem.targets, 1.0).base_caps.max()
        assert np.abs(start.vertices - problem.cluster.vertices).max() > 5 * caps
        starts = []
        solve = optimizer._solve_single

        def recording(cluster, *args):
            starts.append(cluster.vertices.copy())
            return solve(cluster, *args)

        monkeypatch.setattr(optimizer, "_solve_single", recording)
        minimize(problem)
        assert [V.tobytes() for V in starts] == [start.vertices.tobytes()]

    @pytest.mark.parametrize("ratio", [1.0, 0.98])
    def test_the_bubble_panel_resamples_at_most_once(self, ratio):
        # shrinking a cluster shortens every segment: from the builder's
        # start, at 2.4 times its target volumes, each of these solves
        # resamples six times in its first outer iteration
        rep = minimize(
            OptimizationProblem(
                double_bubble_cluster(n_arc=48, n_mid=16),
                EUCLID,
                [1.0, ratio],
                SolveOptions(max_outer=30),
            )
        )
        assert rep.success and rep.flags == []
        assert rep.resamples <= 1


def first_multipliers(descents):
    """The (lam, mu) of the first objective call of each recorded descent."""
    return [d["multipliers"][0] for d in descents]


def dilation_rate(problem, lam):
    """The finite-difference derivative of the objective at mu = 0 along the
    dilation about the vertex mean, at the volume-matched start of problem
    and with P0 its own perimeter."""
    start = optimizer._volume_matched(problem)
    mesh = optimizer._Mesh(
        start, problem.density, problem.targets, optimizer._default_resample_len(problem.cluster)
    )
    V = start.vertices
    _, P0, _, e, _, diffs = mesh.evaluate(V, mesh.all_rows, lam, 0.0, None)
    field = ((V - V.mean(axis=0))[mesh.vert] * mesh.uvec).sum(axis=1)
    return float(mesh.gradient_from(diffs, lam, 0.0, e) @ field)


class TestStartMultipliers:
    """A dilatable start under a uniform gauge runs its ladder and its first
    outer iteration at the multipliers lam_i = -T_i / (2 sum T), which make
    the objective stationary along a dilation of the volume-matched start;
    every other start runs them at lam = 0."""

    @pytest.mark.parametrize(
        "gauge",
        [
            EuclideanGauge(),
            EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
            LpGauge(3.0),
            ShiftedDiskGauge((0.2, -0.1), 1.0),
            odd_profile_gauge(),
        ],
        ids=lambda g: g.kind,
    )
    @pytest.mark.parametrize("ratio", [1.0, 0.98, 0.6])
    def test_the_start_is_stationary_along_a_dilation(self, gauge, ratio):
        density = Density.constant(gauge)
        problem = OptimizationProblem(
            double_bubble_cluster(n_arc=48, n_mid=16), density, [1.0, ratio]
        )
        lam = optimizer._start_multipliers(problem.cluster, density, problem.targets)
        assert lam.tolist() == (-problem.targets / (2.0 * (1.0 + ratio))).tolist()
        # h is 1-homogeneous, so P / P0 grows at rate 1; the volumes grow at
        # twice their own size, which the multipliers weigh to exactly -1
        assert dilation_rate(problem, np.zeros(2)) == pytest.approx(1.0, abs=1e-9)
        assert abs(dilation_rate(problem, lam)) <= 1e-9

    @pytest.mark.parametrize("case", ["walls", "fixed", "callable g", "gauge field"])
    def test_every_other_start_begins_at_zero(self, case, monkeypatch):
        cl = double_bubble_cluster(n_arc=12, n_mid=4)
        if case == "walls":
            cl, density, targets = square_cross_cluster(n_sub=8), EUCLID, 1.2 * np.ones(4)
        elif case == "fixed":
            cl, density, targets = zigzag_lens(), EUCLID, [1.5, 1.5]
        elif case == "callable g":
            density = Density(EuclideanGauge(), g=lambda pts: 1.0 + 0.1 * pts[..., 0] ** 2)
            targets = [1.0, 1.0]
        else:
            density = Density(lambda x: EuclideanGauge())
            targets = [1.0, 1.0]
        problem = OptimizationProblem(cl, density, targets, SolveOptions(max_outer=1, max_inner=3))
        lam = optimizer._start_multipliers(cl, density, problem.targets)
        assert lam.tolist() == [0.0] * cl.m
        descents = record_descents(monkeypatch)
        minimize(problem)
        assert [(l.tolist(), m) for l, m in first_multipliers(descents)] == [
            ([0.0] * cl.m, optimizer.PENALTY0)
        ]

    @pytest.mark.parametrize("case", ["scaled", "unit scale", "ladder"])
    def test_every_descent_of_every_start_begins_there(self, case, monkeypatch):
        opts = SolveOptions(max_outer=1, max_inner=3)
        if case == "scaled":
            problem = OptimizationProblem(
                double_bubble_cluster(n_arc=24, n_mid=8), EUCLID, [1.0, 0.98], opts
            )
            assert matched(problem)[1] != 1.0
        elif case == "unit scale":
            cl = double_bubble_cluster(n_arc=24, n_mid=8)
            problem = OptimizationProblem(cl, EUCLID, weighted_volume(cl, EUCLID), opts)
            assert matched(problem)[1] == 1.0
        else:
            problem = OptimizationProblem(
                regular_polygon_chamber(64, area=1.3), MAXNORM, [1.0], opts
            )
        descents = record_descents(monkeypatch)
        minimize(problem)
        # one descent, after one per stage of the max norm's ladder
        assert len(descents) == 1 + 3 * (case == "ladder")
        lam = -problem.targets / (2.0 * problem.targets.sum())
        assert lam.tolist() == optimizer._start_multipliers(
            problem.cluster, problem.density, problem.targets
        ).tolist()
        assert [(l.tolist(), m) for l, m in first_multipliers(descents)] == [
            (lam.tolist(), optimizer.PENALTY0)
        ] * len(descents)

    def test_a_polygon_at_its_pressure_converges_at_once(self):
        # the regular 64-gon is stationary at its own pressure: from the
        # volume-matched start the first convergence check passes (it took
        # 39 steps and 14 outer iterations from lam = 0)
        rep = minimize(OptimizationProblem(regular_polygon_chamber(64, area=1.3), EUCLID, [1.0]))
        assert rep.success and rep.flags == []
        assert (rep.outer_iterations, rep.inner_iterations) == (1, 1)

    def test_the_double_bubble_starts_near_its_closed_form_pressure(self, monkeypatch):
        # the standard double bubble of two unit areas has arcs of radius r
        # and both chambers at pressure 1 / r (Foisy et al. 1993). A chamber's
        # pressure in the objective is -(lam_i + mu e_i) P0 / T_i
        r = 1.0 / np.sqrt(2.0 * np.pi / 3.0 + np.sqrt(3.0) / 4.0)
        calls = []
        evaluate = optimizer._Mesh.evaluate

        def recording(mesh, V, rows, lam, mu, P0):
            out = evaluate(mesh, V, rows, lam, mu, P0)
            P, e = out[1], out[3]
            # a descent's start passes None: its own perimeter is its P0
            if e is not None:
                calls.append(-(lam + mu * e) * (P if P0 is None else P0) / mesh.targets)
            return out

        monkeypatch.setattr(optimizer._Mesh, "evaluate", recording)
        rep = solve_bubble()
        assert rep.success
        # the start's pressure is the Euler pressure of the volume-matched
        # builder's cluster (0.6 % high); the solve ends within 0.06 %
        assert calls[0][0] == calls[0][1]
        assert np.all(np.abs(calls[0] * r - 1.0) <= 1e-2)
        assert np.all(np.abs(calls[-1] * r - 1.0) <= 1e-3)


def assert_scaled_solve(base, scaled, a):
    """scaled, the solve of base's problem with g, h and the targets all
    multiplied by a, took the same iterates, bit for bit."""
    assert scaled.cluster.vertices.tobytes() == base.cluster.vertices.tobytes()
    assert scaled.inner_iterations == base.inner_iterations
    assert scaled.outer_iterations == base.outer_iterations
    assert scaled.resamples == base.resamples
    assert scaled.success == base.success
    assert np.array_equal(scaled.volume_errors, base.volume_errors)
    assert scaled.perimeter == a * base.perimeter
    assert scaled.perimeter_trace == [a * P for P in base.perimeter_trace]


class TestCommonScaling:
    """The objective divides the perimeter by the start's and the volume
    errors by the targets, so a common factor a on g, h and the targets
    cancels. A power of two multiplies every float exactly, so there the
    iterates are the same bit for bit; other factors round, and may change
    the step count."""

    @pytest.mark.parametrize("a", [2.0, 0.5])
    def test_a_rescaled_wall_free_bubble(self, a):
        ellipse = Density.constant(EllipseGauge([[2.0, 0.3], [0.3, 1.0]]))

        def solve(density, targets):
            problem = OptimizationProblem(
                double_bubble_cluster(n_arc=24, n_mid=8), density, targets
            )
            assert matched(problem)[1] != 1.0
            return minimize(problem)

        base = solve(ellipse, [1.0, 0.9])
        assert base.success
        assert_scaled_solve(base, solve(ellipse.scaled(a), [a, 0.9 * a]), a)

    @pytest.mark.parametrize("a", [2.0, 0.5])
    def test_the_walled_cross(self, a):
        base = solve_cross(MAXNORM, 2)
        assert base.success and base.continuation
        scaled = solve_cross(MAXNORM.scaled(a), 2, targets=a * np.ones(4))
        assert_scaled_solve(base, scaled, a)
        assert [c["inner_iterations"] for c in scaled.continuation] == [
            c["inner_iterations"] for c in base.continuation
        ]


class TestAffineEquivalence:
    """For a linear map A with det A > 0 and cof A = det(A) A^-T, rotating
    A e by 90 degrees gives cof A applied to the rotated e, so a cluster's
    perimeter under h at A E is its perimeter under h through cof A at E, and
    its volumes scale by det A. The two problems have the same minimisers up
    to A. Resampling and the step caps are Euclidean, so the solves take
    different paths: compare perimeters, not iterates. l^3 is left out: it
    has stationary points that are not minima, and the two solves can end on
    different ones."""

    @pytest.mark.parametrize("base", [EuclideanGauge(), ShiftedDiskGauge((0.0, -0.3))], ids=lambda g: g.kind)
    @pytest.mark.parametrize("A", [np.diag([1.0, 0.5]), np.array([[1.0, 0.4], [0.0, 1.0]])], ids=["diag", "shear"])
    def test_the_image_problem_solves_to_the_same_perimeter(self, base, A):
        det = float(np.linalg.det(A))
        through = Density.constant(LinearGauge(base, det * np.linalg.inv(A).T))
        start = double_bubble_cluster(n_arc=48, n_mid=16)
        image = start.copy()
        image.vertices = start.vertices @ A.T
        direct = Density.constant(base)
        P_start = weighted_perimeter(start, through)
        assert abs(weighted_perimeter(image, direct) - P_start) <= 1e-14 * P_start
        opts = SolveOptions(max_outer=30)
        rep = minimize(OptimizationProblem(start, through, [1.0, 1.0], opts))
        rep_image = minimize(OptimizationProblem(image, direct, [det, det], opts))
        assert rep.success and rep_image.success, (rep.flags, rep_image.flags)
        assert abs(rep.perimeter - rep_image.perimeter) <= 2e-4 * rep_image.perimeter


def analytic_gradient(mesh, V, lam, mu, e, P0):
    """mesh.gradient in closed form, for a uniform gauge and constant g.

    A segment's weight depends on h(n) and h(-n) at n = rotate_cw(Q - P),
    whose derivative in Q is rotate_ccw(grad h(n)); its fan volume term is
    g cross(P, Q) / 2, with derivatives g rotate_cw(Q) / 2 in P and
    g rotate_ccw(P) / 2 in Q."""
    gauge = mesh.density.gauge_at(None)
    P, Q = V[mesh.i0], V[mesh.i1]
    n = rotate_cw(Q - P)
    dw = rotate_ccw(
        orientation_rule(gauge.grad(n), -gauge.grad(-n), mesh.left[:, None], mesh.right[:, None])
    )
    dw = np.where(mesh.active[:, None], dw, 0.0) / P0
    c = (lam + mu * e) / mesh.targets
    a = np.where(mesh.left > 0, c[mesh.left - 1], 0.0) - np.where(
        mesh.right > 0, c[mesh.right - 1], 0.0
    )
    dv = 0.5 * mesh.density.g_const * a[:, None]
    G = np.zeros_like(V)
    np.add.at(G, mesh.i0, dv * rotate_cw(Q) - dw)
    np.add.at(G, mesh.i1, dv * rotate_ccw(P) + dw)
    return (G[mesh.vert] * mesh.uvec).sum(axis=1)


GRADIENT_GAUGES = all_gauge_list() + [
    LpGauge(3.0),
    RotatedGauge(EllipseGauge([[2.0, 0.3], [0.3, 1.0]]), 0.3),
    LinearGauge(ShiftedDiskGauge((0.2, -0.1)), [[1.2, 0.4], [-0.1, 0.8]]),
]


class TestGradient:
    """The finite-difference shape gradient against its closed form."""

    @pytest.mark.parametrize("gauge", GRADIENT_GAUGES, ids=lambda g: g.kind)
    @pytest.mark.parametrize("kind", ["bubble", "walled"])
    def test_matches_the_analytic_gradient(self, gauge, kind):
        rng = np.random.default_rng(7)
        if kind == "bubble":
            cl = double_bubble_cluster(n_arc=12, n_mid=4)
            cl.vertices = cl.vertices + rng.uniform(-0.02, 0.02, cl.vertices.shape)
        else:
            cl = walled_plus(rng)
        density = Density.constant(gauge, g=1.7)
        targets = 1.05 * weighted_volume(cl, density)
        mesh = optimizer._Mesh(cl, density, targets, optimizer._default_resample_len(cl))
        if kind == "walled":
            assert len(mesh.wall_dof) > 0
        V = cl.vertices
        lam = np.linspace(-0.3, 0.4, cl.m)
        _, P0, _, e, _, diffs = mesh.evaluate(V, mesh.all_rows, lam, 20.0, None)
        fd = mesh.gradient_from(diffs, lam, 20.0, e)
        exact = analytic_gradient(mesh, V, lam, 20.0, e, P0)
        assert np.max(np.abs(fd - exact)) <= 1e-7 * np.max(np.abs(exact))


def per_vertex_dof_map(cl, char_len):
    """The dof map and stencil of _Mesh, built vertex by vertex from Python
    lists of incident segments: the reference for its array construction.
    Its finite-difference steps are 1e-6 of the local length."""
    V = cl.vertices
    i0, i1, _, _, eid = cl.segment_index_arrays()
    wall_seg = np.array([bool(cl.edges[k].tags.get("wall")) for k in eid], dtype=bool)
    incident = [[] for _ in V]
    for s in range(len(i0)):
        incident[i0[s]].append(s)
        incident[i1[s]].append(s)
    seglen = np.linalg.norm(V[i1] - V[i0], axis=1)
    fixed = {v for e in cl.edges if e.tags.get("fixed") for v in e.vertices}
    vert, uvec, local, wall_nbs = [], [], [], []
    for v in range(len(V)):
        if not incident[v] or v in fixed:
            continue
        loc = max(float(np.mean(seglen[incident[v]])), 1e-9 * char_len)
        wsegs = [s for s in incident[v] if wall_seg[s]]
        if not wsegs:
            vert += [v, v]
            uvec += [[1.0, 0.0], [0.0, 1.0]]
            local += [loc, loc]
            continue
        nbs, dirs = [], []
        for s in wsegs:
            o = i1[s] if i0[s] == v else i0[s]
            d = V[o] - V[v]
            if np.linalg.norm(d) >= 1e-300:
                nbs.append(int(o))
                dirs.append(d / np.linalg.norm(d))
        if dirs and all(abs(d[0] * dirs[0][1] - d[1] * dirs[0][0]) <= 1e-9 for d in dirs):
            vert.append(v)
            uvec.append(dirs[0])
            local.append(loc)
            wall_nbs.append((len(vert) - 1, nbs))
    dofs_of = [[j for j, u in enumerate(vert) if u == v] for v in range(len(V))]
    ent = [
        (s, slot, j)
        for s in range(len(i0))
        for slot, v in enumerate((i0[s], i1[s]))
        for j in dofs_of[v]
    ]
    return {
        "vert": np.array(vert, dtype=int),
        "uvec": np.array(uvec, dtype=float).reshape(-1, 2),
        "local_len": np.array(local),
        "h_fd": 1e-6 * np.array(local),
        "wall_nbs": wall_nbs,
        "ent": np.array(ent, dtype=int).reshape(-1, 3),
    }


def wall_nbs(mesh):
    """The mesh's (sliding dof, wall neighbour) pairs as a list of a dof and
    its neighbours, in dof order: the per-vertex construction's form."""
    out = []
    for j, n in zip(mesh.wall_dof.tolist(), mesh.wall_nb.tolist()):
        if out and out[-1][0] == j:
            out[-1][1].append(n)
        else:
            out.append((j, [n]))
    return out


def looped_step_caps(mesh, V):
    """step_caps as a Python loop over every sliding dof and its wall
    neighbours, one 1-d np.linalg.norm per pair: the reference for its one
    pass."""
    caps = mesh.base_caps.copy()
    for j, nbs in wall_nbs(mesh):
        d = min(float(np.linalg.norm(V[n] - V[mesh.vert[j]])) for n in nbs)
        caps[j] = min(caps[j], 0.4 * d)
    return caps


class TestMesh:
    @pytest.mark.parametrize("kind", ["bubble", "cross", "polygon", "walled"])
    def test_dof_map_matches_the_per_vertex_construction(self, kind):
        cl = mesh_kind(kind)
        rs_len = optimizer._default_resample_len(cl)
        mesh = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), rs_len)
        ref = per_vertex_dof_map(cl, rs_len)
        assert mesh.n == len(ref["vert"])
        for name in ("vert", "uvec", "local_len", "h_fd"):
            assert np.array_equal(getattr(mesh, name), ref[name]), name
        assert wall_nbs(mesh) == ref["wall_nbs"]
        ent = np.column_stack([mesh.ent_seg, mesh.ent_slot, mesh.ent_dof])
        assert np.array_equal(ent, ref["ent"])

    @pytest.mark.parametrize("kind", ["bubble", "walled"])
    def test_step_caps_copy_only_where_a_wall_caps_a_vertex(self, kind):
        cl = mesh_kind(kind)
        mesh = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), optimizer._default_resample_len(cl))
        caps = mesh.step_caps(cl.vertices)
        assert not mesh.base_caps.flags.writeable
        if kind == "bubble":
            assert not len(mesh.wall_dof) and caps is mesh.base_caps
            return
        ref = looped_step_caps(mesh, cl.vertices)
        assert caps.flags.writeable and caps.tobytes() == ref.tobytes()
        assert (caps < mesh.base_caps).any()

    def test_step_caps_equal_the_per_dof_loop(self):
        # walled meshes of several jitters, at their own and at random
        # positions, near and far from their walls
        rng = np.random.default_rng(12)
        for k in range(6):
            cl = walled_plus(np.random.default_rng(k), n_wall=2 + k % 3)
            if k % 2:
                cl.edges[-1].tags["fixed"] = True
            mesh = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), optimizer._default_resample_len(cl))
            assert len(mesh.wall_dof)
            for scale in (0.0, 1e-9, 1e-3, 0.1, 10.0):
                V = cl.vertices + rng.normal(0.0, scale, cl.vertices.shape)
                assert mesh.step_caps(V).tobytes() == looped_step_caps(mesh, V).tobytes()


def assert_same(a, b, name):
    """a and b equal value for value: arrays in dtype, shape and bytes,
    sequences item by item, anything else by ==."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), name
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), name
        for x, y in zip(a, b):
            assert_same(x, y, name)
    else:
        assert a == b, name


def assert_same_mesh(mesh, fresh):
    """mesh equals fresh, a _Mesh of the same cluster built without prev,
    array for array; the neighbour list aside, which fresh builds at its
    first near_ends call."""
    assert vars(mesh).keys() == vars(fresh).keys()
    for name, value in vars(mesh).items():
        if name == "step_buffer":
            # _apply_step's scratch space: only its length and the -0.0
            # after the step are fixed
            value, fresh_value = value[-1:], fresh.step_buffer[-1:]
            assert len(mesh.step_buffer) == len(fresh.step_buffer)
            assert_same(value, fresh_value, name)
        elif name != "_near":
            assert_same(value, getattr(fresh, name), name)


def mesh_kind(kind):
    if kind == "bubble":
        return double_bubble_cluster(n_arc=48, n_mid=16)
    if kind == "cross":
        return square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(3))
    if kind == "polygon":
        return regular_polygon_chamber(64, area=1.0)
    cl = walled_plus(np.random.default_rng(0))
    cl.edges[-1].tags["fixed"] = True
    return cl


def same_numbering_resampling(cl, rng):
    """As the solver meets them between outer iterations: a resampled cl,
    its mesh after a near_ends call, and the cluster that a step of that
    mesh, moving every dof by up to a tenth of its caps, resamples to.
    Checks that the two clusters share their vertex numbering."""
    rs_len = optimizer._default_resample_len(cl)
    first = optimizer.resample_cluster(cl, rs_len)
    prev = optimizer._Mesh(first, EUCLID, np.ones(cl.m), rs_len)
    prev.near_ends(first.vertices, 0.0)
    moved = first.copy()
    d = 0.1 * prev.step_caps(first.vertices) * rng.uniform(-1.0, 1.0, prev.n)
    moved.vertices = optimizer._apply_step(first.vertices, prev, d)
    second = optimizer.resample_cluster(moved, rs_len)
    assert [e.vertices for e in second.edges] == [e.vertices for e in first.edges]
    assert not np.array_equal(second.vertices, first.vertices)
    return prev, second


class TestCarriedMesh:
    """A mesh built with prev, the mesh of a cluster of the same vertex
    numbering, against one built without it."""

    @pytest.mark.parametrize("kind", ["bubble", "cross", "walled"])
    def test_equals_a_fresh_mesh_after_a_resampling(self, kind):
        prev, cl = same_numbering_resampling(mesh_kind(kind), np.random.default_rng(4))
        rs_len, targets = prev.skin, np.ones(cl.m)
        mesh = optimizer._Mesh(cl, EUCLID, targets, rs_len, prev)
        fresh = optimizer._Mesh(cl, EUCLID, targets, rs_len)
        # carried: the index tables and the neighbour list are prev's own
        assert mesh.i0 is prev.i0 and mesh.vert is prev.vert
        assert mesh._near is prev._near is not None and fresh._near is None
        assert_same_mesh(mesh, fresh)
        assert (kind == "walled") == bool(len(mesh.wall_dof))
        for delta in (0.0, 0.3 * rs_len):
            assert np.array_equal(
                columns_sorted(mesh.near_ends(cl.vertices, delta)),
                columns_sorted(fresh.near_ends(cl.vertices, delta)),
            )

    def test_a_wall_vertex_that_stops_sliding_rebuilds_the_dofs(self):
        # the arm end at the right wall's midpoint slides until the wall
        # vertex next to it moves off the wall's line
        cl = mesh_kind("walled")
        rs_len = optimizer._default_resample_len(cl)
        prev = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), rs_len)
        bent = cl.copy()
        bent.vertices[cl.edges[0].vertices[1]] += [0.05, 0.0]
        mesh = optimizer._Mesh(bent, EUCLID, np.ones(cl.m), rs_len, prev)
        assert mesh.i0 is prev.i0 and mesh.n < prev.n
        assert_same_mesh(mesh, optimizer._Mesh(bent, EUCLID, np.ones(cl.m), rs_len))

    def test_another_numbering_builds_afresh(self):
        cl = mesh_kind("bubble")
        rs_len = optimizer._default_resample_len(cl)
        prev = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), rs_len)
        prev.near_ends(cl.vertices, 0.0)
        coarse = optimizer.resample_cluster(cl, 2.0 * rs_len)
        mesh = optimizer._Mesh(coarse, EUCLID, np.ones(cl.m), rs_len, prev)
        assert mesh._near is None and mesh.i0 is not prev.i0
        assert_same_mesh(mesh, optimizer._Mesh(coarse, EUCLID, np.ones(cl.m), rs_len))

    @pytest.mark.parametrize("kind", ["bubble", "cross", "walled", "l3"])
    def test_a_solve_on_fresh_meshes_is_the_same(self, kind, monkeypatch):
        # every mesh built without prev, as each was before meshes carried
        def problem():
            if kind == "l3":
                cl = double_bubble_cluster(n_arc=24)
                return OptimizationProblem(cl, Density.constant(LpGauge(3.0)), [1.0, 1.0])
            return neighbour_list_problem(kind)

        carried = []
        Mesh = optimizer._Mesh

        class CountedMesh(Mesh):
            def __init__(self, *args):
                super().__init__(*args)
                carried.append(len(args) > 4 and args[4] is not None and self.i0 is args[4].i0)

        monkeypatch.setattr(optimizer, "_Mesh", CountedMesh)
        rep = minimize(problem())
        assert any(carried)

        class FreshMesh(Mesh):
            def __init__(self, cluster, density, targets, char_len, prev=None):
                super().__init__(cluster, density, targets, char_len)

        monkeypatch.setattr(optimizer, "_Mesh", FreshMesh)
        fresh = minimize(problem())
        assert fresh.spec() == rep.spec()
        assert fresh.cluster.vertices.tobytes() == rep.cluster.vertices.tobytes()


def reference_resample(cluster, target_len):
    """resample_cluster edge by edge, each with np.linalg.norm, np.linspace,
    np.interp and np.column_stack: the reference for its arithmetic."""
    _, _, kept = optimizer._edge_roles(cluster)
    keep = []
    for e, k in zip(cluster.edges, kept):
        for v in e.vertices if k else [e.vertices[0], e.vertices[-1]]:
            if v not in keep:
                keep.append(v)
    old2new = {old: k for k, old in enumerate(keep)}
    blocks, nverts, edges = [cluster.vertices[keep]], len(keep), []
    for e, k in zip(cluster.edges, kept):
        if k:
            edges.append(Edge([old2new[v] for v in e.vertices], e.left, e.right, dict(e.tags)))
            continue
        pts = cluster.edge_points(e)
        seg = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
        L = float(seg.sum())
        n_new = int(optimizer._resample_count(L, optimizer._min_count(e), target_len)) if L > 0 else 1
        ids = [old2new[e.vertices[0]]]
        if n_new > 1:
            s = np.concatenate([[0.0], np.cumsum(seg)])
            s_new = np.linspace(0.0, L, n_new + 1)[1:-1]
            xs = np.interp(s_new, s, pts[:, 0])
            ys = np.interp(s_new, s, pts[:, 1])
            blocks.append(np.column_stack([xs, ys]))
            ids.extend(range(nverts, nverts + n_new - 1))
            nverts += n_new - 1
        ids.append(old2new[e.vertices[-1]])
        edges.append(Edge(ids, e.left, e.right, dict(e.tags)))
    return Cluster(np.concatenate(blocks), edges, cluster.m)


def two_rectangles():
    """[0, 2] x [0, 1] and [2, 4] x [0, 1]: two outer edges of exact length
    5 through the corners, and the one-segment interface x = 2."""
    V = [[2.0, 0.0], [2.0, 1.0], [0.0, 0.0], [0.0, 1.0], [4.0, 1.0], [4.0, 0.0]]
    return Cluster(V, [Edge([0, 2, 3, 1], 1, 0), Edge([1, 4, 5, 0], 2, 0), Edge([0, 1], 1, 2)], 2)


def resample_cases():
    """(name, cluster, target length) for the reference test."""
    for n_arc in (12, 24, 48, 96):
        cl = double_bubble_cluster(n_arc=n_arc)
        base = optimizer._default_resample_len(cl)
        for f in (0.3, 0.55, 1.0, 1.7, 3.0, 5.0):
            yield f"bubble {n_arc} x{f}", cl, f * base
    walled = mesh_kind("walled")
    for f in (0.4, 1.0, 2.5):
        yield f"walled plus, fixed edge, x{f}", walled, f * optimizer._default_resample_len(walled)
    polygon = regular_polygon_chamber(64, area=1.0)
    for target in (1.5, 10.0):
        # 2.4 and 0.4 segments round to 2 and 0: the closed edge keeps 3
        yield f"polygon {target}", polygon, target
    flat = double_bubble_cluster(n_arc=12, n_mid=1)
    yield "one-segment edge", flat, 0.1
    yield "one-segment edges", resample_cluster(flat, 100.0), 0.2
    zero = flat.copy()
    zero.vertices[zero.edges[2].vertices[1]] = zero.vertices[zero.edges[2].vertices[0]]
    yield "free edge of length 0", zero, 0.1
    # 5 / 2 = 2.5 rounds to 2, 0.5 to 0; at 1 every point is a corner
    yield "half to even", two_rectangles(), 2.0
    yield "points on corners", two_rectangles(), 1.0
    yield "3.5 rounds to 4", two_rectangles(), 5.0 / 3.5


class TestResampleReference:
    @pytest.mark.parametrize("name, cl, target", list(resample_cases()), ids=lambda x: x if isinstance(x, str) else "")
    def test_matches_the_per_edge_loop(self, name, cl, target):
        got, ref = optimizer.resample_cluster(cl, target), reference_resample(cl, target)
        assert got.vertices.tobytes() == ref.vertices.tobytes()
        assert got.m == ref.m
        assert [(e.vertices, e.left, e.right, e.tags) for e in got.edges] == [
            (e.vertices, e.left, e.right, e.tags) for e in ref.edges
        ]

    def test_the_cases_reach_every_rule(self):
        rect = two_rectangles()
        assert [len(e.vertices) - 1 for e in resample_cluster(rect, 2.0).edges] == [2, 2, 1]
        assert [len(e.vertices) - 1 for e in resample_cluster(rect, 5.0 / 3.5).edges] == [4, 4, 1]
        polygon = regular_polygon_chamber(64, area=1.0)
        assert len(resample_cluster(polygon, 10.0).edges[0].vertices) == 4
        for name, cl, target in resample_cases():
            if name == "free edge of length 0":
                L = np.linalg.norm(np.diff(cl.edge_points(cl.edges[2]), axis=0), axis=1).sum()
                assert L == 0.0 and len(resample_cluster(cl, target).edges[2].vertices) == 2


def numbering(cl):
    """What a carried mesh requires of two clusters: as many vertices, and
    every edge's vertex list, labels and tags equal."""
    return len(cl.vertices), [(list(e.vertices), e.left, e.right, e.tags) for e in cl.edges]


def benchmark_problem(name):
    """The solves of perfbench's bubble and cross workloads."""
    kind, arg = name.split()
    if kind == "bubble":
        cl = double_bubble_cluster(n_arc=48, n_mid=16)
        return OptimizationProblem(cl, EUCLID, [1.0, float(arg)], SolveOptions(max_outer=30))
    cl = square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(int(arg)))
    return OptimizationProblem(cl, MAXNORM, np.ones(4), SolveOptions(max_outer=60))


class TestMeshCarry:
    @pytest.mark.parametrize(
        "name, counts",
        [
            ("bubble 1.0", (2, 5, 4)),
            ("bubble 0.98", (7, 10, 9)),
            ("cross 0", (3, 4, 0)),
            ("cross 1", (3, 4, 0)),
            ("cross 2", (3, 4, 0)),
        ],
    )
    def test_a_mesh_of_the_same_numbering_shares_its_tables(self, name, counts, monkeypatch):
        # (carried meshes, meshes, resamplings) of each benchmark solve
        builds, resamples = [], []
        Mesh, resample = optimizer._Mesh, optimizer.resample_cluster

        class RecordedMesh(Mesh):
            def __init__(self, cluster, density, targets, char_len, prev=None):
                super().__init__(cluster, density, targets, char_len, prev)
                builds.append((numbering(cluster), prev, self))

        def recorded_resample(cl, target_len):
            resamples.append(numbering(cl))
            return resample(cl, target_len)

        monkeypatch.setattr(optimizer, "_Mesh", RecordedMesh)
        monkeypatch.setattr(optimizer, "resample_cluster", recorded_resample)
        minimize(benchmark_problem(name))
        assert builds[0][1] is None
        carried = 0
        for (before, _, prev), (after, given, mesh) in zip(builds, builds[1:]):
            assert given is prev
            shared = [mesh.seg_ends is prev.seg_ends, mesh.ent_dof is prev.ent_dof]
            assert shared == [before == after] * 2
            carried += before == after
        assert (carried, len(builds), len(resamples)) == counts


def two_sided_weights(density, P, Q, left, right):
    """Segment weights with each side priced by its own gauge call: the
    uniform gauge's value, or h_at at the midpoints for a gauge field."""
    n = rotate_cw(Q - P)
    if density.uniform_gauge:
        h = density.gauge_at(None).value
    else:
        mid = 0.5 * (P + Q)
        h = lambda v: density.h_at(mid, v)
    return orientation_rule(h(n), h(-n), left, right)


def reference_volumes(mesh, V):
    t = fan_volume_terms(mesh.density, V[mesh.i0], V[mesh.i1])
    out = np.zeros(len(mesh.targets))
    sel = mesh.left > 0
    np.add.at(out, mesh.left[sel] - 1, t[sel])
    sel = mesh.right > 0
    np.add.at(out, mesh.right[sel] - 1, -t[sel])
    return out


def reference_objective(mesh, V, lam, mu, P0):
    sel = mesh.active
    P = float(
        two_sided_weights(
            mesh.density, V[mesh.i0[sel]], V[mesh.i1[sel]], mesh.left[sel], mesh.right[sel]
        ).sum()
    )
    e = (reference_volumes(mesh, V) - mesh.targets) / mesh.targets
    return P / P0 + float((lam * e).sum()) + 0.5 * mu * float((e * e).sum()), P, e


def reference_gradient(mesh, V, lam, mu, e, P0):
    """mesh.gradient evaluated sign by sign: the + and - stencils priced by
    separate calls, two-sided weights by one gauge call per side, and the
    entries added to their dofs by np.add.at."""
    seg, slot, dof = mesh.ent_seg, mesh.ent_slot, mesh.ent_dof
    P, Q = V[mesh.i0[seg]], V[mesh.i1[seg]]
    h = mesh.h_fd[dof]
    disp = mesh.uvec[dof] * h[:, None]
    on0 = (slot == 0)[:, None]
    Pp, Qp = np.where(on0, P + disp, P), np.where(on0, Q, Q + disp)
    Pm, Qm = np.where(on0, P - disp, P), np.where(on0, Q, Q - disp)
    sl, sr = mesh.left[seg], mesh.right[seg]
    wp = two_sided_weights(mesh.density, Pp, Qp, sl, sr)
    wm = two_sided_weights(mesh.density, Pm, Qm, sl, sr)
    dval = np.where(mesh.active[seg], (wp - wm) / P0, 0.0)
    c = (lam + mu * e) / mesh.targets
    a = np.where(mesh.left > 0, c[mesh.left - 1], 0.0) - np.where(
        mesh.right > 0, c[mesh.right - 1], 0.0
    )
    dval = dval + a[seg] * (
        fan_volume_terms(mesh.density, Pp, Qp) - fan_volume_terms(mesh.density, Pm, Qm)
    )
    g = np.zeros(mesh.n)
    np.add.at(g, dof, dval / (2.0 * h))
    return g


def reference_collapsed(mesh, V, target_len):
    cut = np.flatnonzero(~mesh.kept_edge[mesh.eid])
    d = V[mesh.i1[cut]] - V[mesh.i0[cut]]
    lens = np.hypot(d[:, 0], d[:, 1])
    L = np.zeros(len(mesh.min_count))
    np.add.at(L, mesh.eid[cut], lens)
    spacing = L / np.maximum(mesh.min_count, np.rint(L / target_len))
    return bool((lens < optimizer.COLLAPSE_FRACTION * spacing[mesh.eid[cut]]).any())


def reference_apply_step(V, mesh, d):
    out = V.copy()
    np.add.at(out, mesh.vert, mesh.uvec * d[:, None])
    return out


def reference_clearance_caps(V, mesh, d):
    nv = len(V)
    reach = np.zeros(nv)
    np.add.at(reach, mesh.vert, d * d)
    a, b = optimizer.crossing_pairs(V, mesh.i0, mesh.i1, margin=float(np.sqrt(reach.max())))
    ends = np.stack([mesh.i0[a], mesh.i1[a], mesh.i0[b], mesh.i1[b]])
    clearance = np.full(nv, np.inf)
    for k, (p1, q1, p2, q2) in enumerate(ends.T):
        dist = float(segment_distance(V[p1], V[q1], V[p2], V[q2]))
        for v in (p1, q1, p2, q2):
            clearance[v] = min(clearance[v], dist)
    ndof = np.zeros(nv)
    np.add.at(ndof, mesh.vert, 1.0)
    return 0.49 * clearance[mesh.vert] / np.sqrt(ndof[mesh.vert]), ends


def oracle_mesh(kind, rng):
    if kind == "bubble":
        cl = double_bubble_cluster(n_arc=10, n_mid=4)
        cl.vertices = cl.vertices + rng.uniform(-0.02, 0.02, cl.vertices.shape)
    elif kind == "cross":
        cl = square_cross_cluster(n_sub=12, jitter=0.02, rng=rng)
    else:
        cl = walled_plus(rng, n_arm=4)
        cl.edges[-1].tags["fixed"] = True
    return cl


ORACLE_DENSITIES = {
    "euclidean": Density.constant(EuclideanGauge()),
    "l3": Density.constant(LpGauge(3.0), g=1.3),
    "odd-profile": Density.constant(odd_profile_gauge()),
    "shifted-disk": Density.constant(ShiftedDiskGauge(np.array([0.0, -0.3]))),
    # a gauge field and a volume density that both vary with position
    "field": Density(
        lambda x: RotatedGauge(EllipseGauge([[1.0, 0.0], [0.0, 0.5]]), float(np.tanh(x[0]))),
        g=lambda p: 1.0 + 0.3 * np.tanh(p[..., 0] * p[..., 1]),
    ),
}


class TestFusedEvaluations:
    """_Mesh's evaluations and the step helpers of _descend against the
    same formulas written one call per stencil sign, per side and per
    scatter entry: equal bit for bit."""

    @pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
    @pytest.mark.parametrize("name", ORACLE_DENSITIES)
    @pytest.mark.parametrize("kind", ["bubble", "cross", "walled"])
    def test_match_the_unfused_reference(self, kind, name, carried):
        density = ORACLE_DENSITIES[name]
        rng = np.random.default_rng(11)
        cl = oracle_mesh(kind, rng)
        V = cl.vertices
        rs_len = optimizer._default_resample_len(cl)
        targets = 1.05 * weighted_volume(cl, density)
        prev = None
        if carried:
            # the mesh of the same numbering dilated, with its neighbour
            # list built there: the walls stay straight and the vertices
            # drift by up to 1e-3
            dilated = cl.copy()
            dilated.vertices = (1.0 + 1e-3) * V
            prev = optimizer._Mesh(dilated, EUCLID, np.ones(cl.m), rs_len)
            prev.near_ends(dilated.vertices, 0.0)
        mesh = optimizer._Mesh(cl, density, targets, rs_len, prev)
        assert (mesh.i0 is getattr(prev, "i0", None)) == carried
        # the walled oracle's stencil has rows of inactive segments, which
        # the gradient prices at 0.0, and the cross and the walled oracle
        # have kept edges, to which collapsed() gives no spacing
        inactive_rows = not mesh.active[mesh.ent_seg].all()
        assert inactive_rows == (kind == "walled")
        assert mesh.kept_edge.any() == (kind != "bubble")
        assert mesh.n > 0
        symmetric = density.uniform_gauge and density.gauge_at(None).symmetric
        assert symmetric == (name in ("euclidean", "l3"))
        lam, mu = np.linspace(-0.3, 0.4, cl.m), 20.0
        _, P0, start_vols, _, _, _ = mesh.evaluate(V, mesh.objective_rows, lam, mu, None)
        assert P0 == reference_objective(mesh, V, lam, mu, 1.0)[1]
        assert start_vols.tolist() == reference_volumes(mesh, V).tolist()
        f, P, vols, e, X, _ = mesh.evaluate(V, mesh.objective_rows, lam, mu, P0)
        rf, rP, re = reference_objective(mesh, V, lam, mu, P0)
        assert (f, P, e.tolist()) == (rf, rP, re.tolist())
        assert vols.tolist() == reference_volumes(mesh, V).tolist()
        diffs = mesh.evaluate(V, mesh.stencil_rows, lam, mu, P0)[5]
        g = mesh.gradient_from(diffs, lam, mu, e)
        assert g.tolist() == reference_gradient(mesh, V, lam, mu, e, P0).tolist()
        # all the rows in one call price each row as the two calls do
        ff, fP, fvols, fe, fX, fdiffs = mesh.evaluate(V, mesh.all_rows, lam, mu, P0)
        assert (ff, fP) == (f, P)
        assert X.tobytes() == V.take(mesh.seg_ends, axis=0).tobytes()
        assert [a.tobytes() for a in (fvols, fe, fX, *fdiffs)] == [a.tobytes() for a in (vols, e, X, *diffs)]
        caps = mesh.step_caps(V)
        # the largest first step, a random one with some zero entries, and -g
        steps = [caps, caps * rng.uniform(-1.0, 1.0, mesh.n) * (rng.random(mesh.n) < 0.8)]
        steps.append(np.clip(-g, -caps, caps))
        for d in steps:
            Vt = optimizer._apply_step(V, mesh, d)
            assert Vt.tolist() == reference_apply_step(V, mesh, d).tolist()
            safe, ends = optimizer._clearance_caps(V, mesh, d)
            ref_safe, ref_ends = reference_clearance_caps(V, mesh, d)
            assert safe.tolist() == ref_safe.tolist()
            assert np.array_equal(columns_sorted(ends), columns_sorted(ref_ends))
            # at 100 rs_len resampling leaves one segment per open edge
            for target_len in (rs_len, 100.0 * rs_len):
                Xt = Vt.take(mesh.seg_ends, axis=0)
                assert mesh.collapsed(Xt, target_len) == reference_collapsed(mesh, Vt, target_len)
        # the caps of the largest step see pairs, and some step collapses
        assert np.isfinite(reference_clearance_caps(V, mesh, caps)[0]).any()
        assert reference_collapsed(mesh, V, 100.0 * rs_len) or kind == "walled"


def columns_sorted(ends):
    """The columns of ends, (4, P) endpoint indices of segment pairs, in
    lexicographic order: two arrays hold the same pairs exactly when these
    are equal."""
    return ends[:, np.lexsort(ends[::-1])]


class WholeListNeighbours:
    """_Mesh.near_ends without its list's sort by box gap: the whole list
    filtered at every step, and rebuilt once 2 (drift + delta) exceeds the
    margin, which keeps half the margin for rounding. The reference of the
    walk test; builds counts its sweeps."""

    def __init__(self, mesh):
        self.mesh, self.near, self.builds = mesh, None, 0

    def __call__(self, V, delta):
        mesh = self.mesh
        rebuild = self.near is None
        if not rebuild:
            V0, margin, ends = self.near
            rebuild = 2.0 * (float(np.abs(V - V0).max()) + delta) > margin
        if rebuild:
            margin = max(mesh.skin, 2.0 * delta)
            a, b = optimizer.crossing_pairs(V, mesh.i0, mesh.i1, margin=margin)
            ends = np.stack([mesh.i0[a], mesh.i1[a], mesh.i0[b], mesh.i1[b]])
            self.near = (V.copy(), margin, ends)
            self.builds += 1
        pa, qa, pb, qb = V.take(ends, axis=0)
        xlo_a, ylo_a, xhi_a, yhi_a = grown_boxes(pa, qa, delta)
        xlo_b, ylo_b, xhi_b, yhi_b = grown_boxes(pb, qb, delta)
        keep = (xlo_a <= xhi_b) & (xlo_b <= xhi_a) & (ylo_a <= yhi_b) & (ylo_b <= yhi_a)
        return ends[:, keep]


def neighbour_list_problem(kind):
    """The n_arc=48 bubble at volume ratio 0.98, which collapses and
    resamples; the jittered max-norm cross, with walls and the continuation
    ladder; walled_plus with a fixed edge."""
    if kind == "bubble":
        return OptimizationProblem(double_bubble_cluster(n_arc=48, n_mid=16), EUCLID, [1.0, 0.98])
    if kind == "cross":
        cl = square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(0))
        return OptimizationProblem(cl, MAXNORM, np.ones(4), SolveOptions(max_outer=60))
    cl = walled_plus(np.random.default_rng(5))
    cl.edges[-1].tags["fixed"] = True
    targets = weighted_volume(cl, EUCLID) * np.array([1.1, 0.9, 1.05, 0.95])
    return OptimizationProblem(cl, EUCLID, targets, SolveOptions(max_outer=5))


class TestNeighbourList:
    """The broad phase of _clearance_caps reads a neighbour list built once
    per mesh (_Mesh.near_ends) and rebuilt only after enough drift; every
    step still sees the pairs of a fresh sweep, in some order."""

    @pytest.mark.parametrize("kind", ["bubble", "cross", "walled"])
    def test_every_step_sees_the_sweeps_pairs(self, kind, monkeypatch):
        caps = optimizer._clearance_caps
        pairs = []
        # each list read, with the first mesh that read it
        readers = {}

        def checked(V, mesh, d):
            safe, ends = caps(V, mesh, d)
            delta = float(np.sqrt(np.bincount(mesh.vert, weights=d * d, minlength=len(V)).max()))
            a, b = optimizer.crossing_pairs(V, mesh.i0, mesh.i1, margin=delta)
            fresh = np.stack([mesh.i0[a], mesh.i1[a], mesh.i0[b], mesh.i1[b]])
            assert np.array_equal(columns_sorted(ends), columns_sorted(fresh))
            # the pairs on the list, those the step keeps, and whether the
            # list came with the mesh from an earlier one of its numbering
            first = readers.setdefault(id(mesh._near), (mesh, mesh._near))[0]
            pairs.append((len(mesh._near[3]), len(a), first is not mesh))
            return safe, ends

        monkeypatch.setattr(optimizer, "_clearance_caps", checked)
        rep = minimize(neighbour_list_problem(kind))
        listed, kept, carried = np.array(pairs).T
        assert len(pairs) >= 50 and (listed > kept).any()
        if kind == "bubble":
            assert rep.resamples > 0 and kept.any() and carried.any()
        elif kind == "cross":
            assert rep.continuation
        else:
            assert kept.any()

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("walk", ["straight", "random"])
    @pytest.mark.parametrize("kind", ["bubble", "cross"])
    def test_walks_past_the_rebuild_threshold_see_the_sweeps_pairs(self, kind, walk, offset):
        # no solve: the vertices walk far past the drift that rebuilds the
        # list, under offsets whose rounding the slack must cover. On a
        # straight walk every coordinate moves the same distance each step
        # in a fixed direction, so facing box sides close in at exactly twice
        # the drift. Every other reach puts a pair's boxes at V just on the
        # edge of overlapping, half of those one ulp either side of it
        rng = np.random.default_rng([int(offset), len(walk), len(kind)])
        cl = oracle_mesh(kind, rng)
        mesh = optimizer._Mesh(cl, EUCLID, np.ones(cl.m), optimizer._default_resample_len(cl))
        whole = WholeListNeighbours(mesh)
        V = cl.vertices + offset
        step = mesh.skin / 25.0
        signs = rng.choice([-1.0, 1.0], V.shape)
        builds, near = 0, None
        for k in range(150):
            V = V + step * (signs if walk == "straight" else rng.normal(0.0, 2.0, V.shape))
            a, b = optimizer.crossing_pairs(V, mesh.i0, mesh.i1, margin=mesh.skin / 2)
            lo, hi = segment_boxes(V[mesh.i0], V[mesh.i1])
            gap = box_gap(lo[a], hi[a], lo[b], hi[b])
            gap = gap[gap >= 0.0]
            if k % 2 and len(gap):
                delta = float(rng.choice(gap)) / 2.0
                if k % 4 == 1:
                    delta = float(np.nextafter(delta, rng.choice([0.0, np.inf])))
            else:
                delta = float(rng.uniform(0.0, mesh.skin / 3.0))
            a, b = optimizer.crossing_pairs(V, mesh.i0, mesh.i1, margin=delta)
            fresh = columns_sorted(np.stack([mesh.i0[a], mesh.i1[a], mesh.i0[b], mesh.i1[b]]))
            assert np.array_equal(columns_sorted(mesh.near_ends(V, delta)), fresh), k
            assert np.array_equal(columns_sorted(whole(V, delta)), fresh), k
            builds += mesh._near is not near
            near = mesh._near
        assert 3 <= builds <= whole.builds

    @pytest.mark.parametrize("kind", ["bubble", "cross"])
    def test_the_pairs_order_leaves_the_solve_unchanged(self, kind, monkeypatch):
        # _clearance_caps takes a per-vertex minimum over the pairs and
        # _has_crossing an any(), so the order of near_ends' pairs is free
        unpatched = minimize(neighbour_list_problem(kind))
        near_ends = optimizer._Mesh.near_ends
        longest = [0]

        def reversed_ends(mesh, V, delta):
            ends = near_ends(mesh, V, delta)
            longest[0] = max(longest[0], ends.shape[1])
            return ends[:, ::-1]

        monkeypatch.setattr(optimizer._Mesh, "near_ends", reversed_ends)
        reversed_ = minimize(neighbour_list_problem(kind))
        assert reversed_.spec() == unpatched.spec()
        assert reversed_.cluster.vertices.tobytes() == unpatched.cluster.vertices.tobytes()
        # the bubble's steps see several pairs at once; no cross step sees one
        assert longest[0] > 1 if kind == "bubble" else longest[0] == 0

    def test_the_sweep_runs_far_less_often_than_the_steps(self, monkeypatch):
        sweep = optimizer.box_crossing_pairs
        calls = []
        monkeypatch.setattr(
            optimizer, "box_crossing_pairs", lambda *args, **kw: calls.append(1) or sweep(*args, **kw)
        )
        numberings = set()
        caps = optimizer._clearance_caps

        def recording(V, mesh, d):
            numberings.add(repr(mesh.numbering))
            return caps(V, mesh, d)

        monkeypatch.setattr(optimizer, "_clearance_caps", recording)
        rep = minimize(neighbour_list_problem("bubble"))
        assert rep.success and rep.resamples > 0
        # at least one build per vertex numbering whose meshes took a step:
        # a mesh of the numbering before carries its list, and a descent
        # that converges at its first check never sweeps. The rule builds
        # 4 times here, for 10 meshes of 3 such numberings; 6 leaves room
        # for solver changes, while one build per mesh (9) fails
        assert len(numberings) <= len(calls) <= 6
        calls.clear()
        rep = minimize(neighbour_list_problem("cross"))
        assert rep.success
        assert len(calls) <= rep.inner_iterations // 10


@pytest.mark.parametrize("gauge", all_gauge_list(), ids=lambda g: g.kind)
def test_a_callable_of_one_gauge_prices_like_the_constant_density(gauge):
    # Density's callable fork, fed one gauge everywhere, evaluates that
    # gauge point by point and must agree with the batched constant density
    # bit for bit
    const = Density.constant(gauge)
    field = Density(lambda x: gauge)
    assert not field.uniform_gauge
    cl = double_bubble_cluster(n_arc=12, n_mid=4)
    cl.vertices = cl.vertices + np.random.default_rng(5).normal(0.0, 0.01, cl.vertices.shape)
    assert field.h_range(cl.vertices) == const.h_range(cl.vertices)
    assert perimeter_breakdown(cl, field).tolist() == perimeter_breakdown(cl, const).tolist()
    assert steiner_diagnose(cl, field).spec() == steiner_diagnose(cl, const).spec()
    lam, mu = np.array([0.3, -0.2]), 10.0
    grads = []
    for density in (field, const):
        mesh = optimizer._Mesh(cl, density, [1.0, 1.0], optimizer._default_resample_len(cl))
        _, P0, _, e, _, _ = mesh.evaluate(cl.vertices, mesh.objective_rows, lam, mu, None)
        diffs = mesh.evaluate(cl.vertices, mesh.stencil_rows, lam, mu, P0)[5]
        grads.append(mesh.gradient_from(diffs, lam, mu, e).tolist())
    assert grads[0] == grads[1]


def test_a_solve_imports_no_masked_arrays():
    # numpy.ma costs ~10 ms to import and no solve needs it; np.unique
    # imports it on first use. A walled cross runs the wall-slide grouping
    src = str(Path(anisoclusters.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import anisoclusters as ac; "
        "p = ac.OptimizationProblem(ac.square_cross_cluster(n_sub=4), "
        "ac.Density.constant(ac.LpGauge(float('inf'))), [1.0] * 4, ac.SolveOptions(max_outer=1, max_inner=5)); "
        "ac.minimize(p); "
        "q = ac.OptimizationProblem(ac.double_bubble_cluster(n_arc=12, n_mid=4), "
        "ac.Density.constant(ac.EuclideanGauge()), [1.0, 1.0], ac.SolveOptions(max_outer=1, max_inner=5)); "
        "ac.minimize(q); print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def pinned_solves():
    """Solves beyond the shipped scenarios, each reaching a path of the
    solver that they do not: sliding wall vertices beside a fixed edge, a
    gauge field with a callable g, an asymmetric gauge, the stall rule, an
    exhausted budget, the max norm's ladder from a jittered cross and a
    restart on collapse."""
    cl = walled_plus(np.random.default_rng(5))
    cl.edges[-1].tags["fixed"] = True
    targets = weighted_volume(cl, EUCLID) * np.array([1.1, 0.9, 1.05, 0.95])
    yield OptimizationProblem(cl, EUCLID, targets, SolveOptions(max_outer=5))
    field = ORACLE_DENSITIES["field"]
    cl = double_bubble_cluster(n_arc=12, n_mid=4)
    targets = weighted_volume(cl, field) * np.array([1.05, 0.95])
    yield OptimizationProblem(cl, field, targets, SolveOptions(max_outer=2, max_inner=4))
    shifted = Density.constant(ShiftedDiskGauge(np.array([0.0, -0.3])))
    yield OptimizationProblem(double_bubble_cluster(n_arc=24, n_mid=8), shifted, [1.0, 1.0])
    smoothed = Density.constant(SmoothedL1Gauge(0.35))
    yield OptimizationProblem(regular_polygon_chamber(64, area=1.3), smoothed, [1.0])
    yield OptimizationProblem(
        double_bubble_cluster(n_arc=48, n_mid=16), EUCLID, [1.0, 0.98], SolveOptions(max_outer=2, max_inner=7)
    )
    cl = square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(7))
    yield OptimizationProblem(cl, MAXNORM, np.ones(4), SolveOptions(max_outer=60))
    yield OptimizationProblem(double_bubble_cluster(n_arc=48, n_mid=16), EUCLID, [1.0, 0.98])


def test_solve_outputs_are_pinned():
    # one digest over the report and the final vertex bytes of each pinned
    # solve
    reports = [minimize(problem) for problem in pinned_solves()]
    assert [(rep.success, rep.flags[:1], rep.resamples > 0) for rep in reports] == [
        (False, ["max_outer_reached"], False),
        (False, ["max_outer_reached"], False),
        (True, [], False),
        (True, ["inner_stall_at_tolerance"], False),
        (False, ["max_outer_reached"], False),
        (True, [], False),
        (True, [], True),
    ]
    digest = hashlib.sha256()
    for rep in reports:
        digest.update(render_report(rep.spec()).encode())
        digest.update(rep.cluster.vertices.tobytes())
    assert digest.hexdigest() == "0b483528cf9e05ee75eede42b737ad693a9e5d8de993cb08b3de76dcaffcd30e"


def separate_descend(cl, density, targets, lam, mu, opts, rs_len, mesh):
    """_descend with its objective and its gradient priced apart, as every
    descent priced them before a point's first pricing took its stencil's
    rows: the objective's rows of each point first, and the stencil's rows
    alone at the start, at each restart and after each accepted step. The
    reference for the first-trial rule."""

    def objective(mesh, V, P0):
        return mesh.evaluate(V, mesh.objective_rows, lam, mu, P0)[:5]

    def gradient(mesh, V, e, P0):
        return mesh.gradient_from(mesh.evaluate(V, mesh.stencil_rows, lam, mu, P0)[5], lam, mu, e)

    mesh = optimizer._Mesh(cl, density, targets, rs_len, mesh)
    V = cl.vertices
    f, P0, vols, e, X = objective(mesh, V, None)
    Pint = P0
    trace = [P0]
    rejections = resamples = it = 0
    stop = "budget"
    while True:
        if mesh.n == 0:
            stop = "converged"
            break
        g = gradient(mesh, V, e, P0)
        g_prev = None
        d_prev = None
        t = None
        collapsed = False
        recent = [f]
        while it < opts.max_inner:
            it += 1
            gn = float(np.max(np.abs(g)))
            if gn * rs_len <= opts.grad_tol:
                stop = "converged"
                break
            if g_prev is not None:
                y = g - g_prev
                sy = float(d_prev @ y)
                t = float(d_prev @ d_prev) / sy if sy > 1e-300 else 2.0 * t
            if t is None or not np.isfinite(t) or t <= 0:
                t = 0.05 * rs_len / gn
            caps = mesh.step_caps(V)
            safe, ends = optimizer._clearance_caps(V, mesh, np.minimum(np.maximum(-t * g, -caps), caps))
            caps = np.minimum(caps, safe)
            low = -caps
            accepted = False
            tt = t
            f_ref = max(recent)
            for _ in range(60):
                d = np.minimum(np.maximum(-tt * g, low), caps)
                gd = float(g @ d)
                if gd >= 0.0:
                    break
                Vt = optimizer._apply_step(V, mesh, d)
                ft, Pt, vt, et, Xt = objective(mesh, Vt, P0)
                if ft <= f_ref + 1e-4 * gd:
                    if optimizer._has_crossing(Vt, ends):
                        rejections += 1
                        tt *= 0.5
                        continue
                    V, X, f, Pint, vols, e = Vt, Xt, ft, Pt, vt, et
                    d_prev = d
                    accepted = True
                    break
                tt *= 0.5
            if not accepted:
                stop = "stalled"
                break
            recent.append(f)
            if len(recent) > 8:
                recent.pop(0)
            trace.append(Pint)
            if mesh.collapsed(X, rs_len):
                collapsed = True
                break
            g_prev = g
            g = gradient(mesh, V, e, P0)
            t = tt
        cl.vertices = V
        if not collapsed or it == opts.max_inner:
            break
        cl = optimizer.resample_cluster(cl, rs_len)
        mesh = optimizer._Mesh(cl, density, targets, rs_len, mesh)
        V = cl.vertices
        f, Pint, vols, e, X = objective(mesh, V, P0)
        resamples += 1
    return cl, mesh, optimizer._Descent(it, stop, trace, rejections, resamples, Pint, vols, e)


def first_trial_problem(case):
    """The benchmark's five solves, the seven pinned solves, and the l^3
    bubble and the walled plus of TestCarriedMesh."""
    if case.startswith("pinned"):
        return list(pinned_solves())[int(case.split()[1])]
    if case == "l3":
        return OptimizationProblem(double_bubble_cluster(n_arc=24), Density.constant(LpGauge(3.0)), [1.0, 1.0])
    if case == "walled":
        return neighbour_list_problem("walled")
    return benchmark_problem(case)


BENCHMARK_SOLVES = ["bubble 1.0", "bubble 0.98", "cross 0", "cross 1", "cross 2"]


class TestFirstTrialPricing:
    """Under a uniform gauge _descend prices a point's stencil rows with its
    objective's rows at the start, at each restart and at the first trial of
    every step; under a gauge field, with the objective's rows first and the
    stencil's alone once the point is accepted. Either way the iterates are
    those of the objective and the gradient priced apart."""

    @pytest.mark.parametrize(
        "case", BENCHMARK_SOLVES + [f"pinned {k}" for k in range(7)] + ["l3", "walled"]
    )
    def test_solves_match_the_separate_pricing(self, case, monkeypatch):
        rep = minimize(first_trial_problem(case))
        monkeypatch.setattr(optimizer, "_descend", separate_descend)
        ref = minimize(first_trial_problem(case))
        assert rep.spec() == ref.spec()
        assert rep.cluster.vertices.tobytes() == ref.cluster.vertices.tobytes()

    @pytest.mark.parametrize("name, calls", zip(BENCHMARK_SOLVES, [83, 202, 134, 209, 234]))
    def test_one_segment_weights_call_per_evaluation(self, name, calls, monkeypatch):
        # priced apart, the objectives and the gradients took 126, 295, 223,
        # 329 and 390 calls
        weights, evaluate = optimizer.segment_weights, optimizer._Mesh.evaluate
        counts = {"weights": 0, "evaluations": 0}

        def counted_weights(*args):
            counts["weights"] += 1
            return weights(*args)

        def counted_evaluate(*args):
            counts["evaluations"] += 1
            return evaluate(*args)

        monkeypatch.setattr(optimizer, "segment_weights", counted_weights)
        monkeypatch.setattr(optimizer._Mesh, "evaluate", counted_evaluate)
        minimize(benchmark_problem(name))
        assert counts == {"weights": calls, "evaluations": calls}

    def test_a_gauge_field_prices_the_stencil_of_accepted_points_alone(self, monkeypatch):
        # h_at prices point by point, so a first trial's stencil rows would
        # save no call and cost a whole stencil whenever the trial fails
        evaluate = optimizer._Mesh.evaluate
        calls = []

        def recording(mesh, V, rows, *args):
            assert rows in (mesh.objective_rows, mesh.stencil_rows)
            calls.append((rows == mesh.objective_rows, V.tobytes()))
            return evaluate(mesh, V, rows, *args)

        monkeypatch.setattr(optimizer._Mesh, "evaluate", recording)
        problem = list(pinned_solves())[1]
        assert not problem.density.uniform_gauge
        minimize(problem)
        stencils = [k for k, (objective, _) in enumerate(calls) if not objective]
        assert len(stencils) > 4
        # each stencil priced at the point whose objective came just before
        assert all(calls[k - 1] == (True, calls[k][1]) for k in stencils)


class TestProblemValidation:
    def test_wrong_target_count(self):
        with pytest.raises(ValueError):
            OptimizationProblem(regular_polygon_chamber(16), EUCLID, [1.0, 1.0])

    def test_nonpositive_target(self):
        with pytest.raises(ValueError):
            OptimizationProblem(regular_polygon_chamber(16), EUCLID, [-1.0])

    def test_non_finite_target_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                OptimizationProblem(regular_polygon_chamber(16), EUCLID, [bad])

    def test_invalid_cluster_rejected(self):
        bad = Cluster([[0.0, 0], [1, 0], [0, 1]], [Edge([0, 1, 2, 0], 1, 1)], 1)
        with pytest.raises(ValueError):
            OptimizationProblem(bad, EUCLID, [0.5])

    def test_targets_too_far_from_initial_volumes(self):
        with pytest.raises(ValueError):
            OptimizationProblem(regular_polygon_chamber(16, area=np.pi), EUCLID, [100.0])


class TestSolveOptions:
    """SolveOptions takes the scenario loader's bounds: integers >= 1 for the
    budgets, positive finite numbers for the tolerances."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_outer": 0},
            {"max_outer": 2.5},
            {"max_outer": True},
            {"max_inner": 0},
            {"max_inner": -3},
            {"vol_tol": 0.0},
            {"vol_tol": np.inf},
            {"grad_tol": np.nan},
            {"grad_tol": -1e-5},
            {"grad_tol": "1e-5"},
        ],
        ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()),
    )
    def test_out_of_bounds_options_are_rejected(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            SolveOptions(**bad)

    @pytest.mark.parametrize("retired", ["multi_start", "seed"])
    def test_retired_options_are_not_fields(self, retired):
        # a solve has one deterministic start, so nothing reads a seed
        with pytest.raises(TypeError, match=retired):
            SolveOptions(**{retired: 2})

    def test_numpy_scalars_within_bounds_are_accepted(self):
        opts = SolveOptions(max_outer=np.int64(3), max_inner=np.int64(50), vol_tol=np.float64(1e-4))
        assert (opts.max_outer, opts.max_inner, opts.vol_tol) == (3, 50, 1e-4)


class TestJunctionDetection:
    def test_double_bubble_has_two_triples(self):
        js = detect_junctions(exact_double_bubble())
        assert len(js) == 2
        for j in js:
            assert j.n_arms == 3
            assert not j.non_triple
            assert sorted(j.sector_colors) == [0, 1, 2]

    def test_cross_center_is_non_triple(self):
        js = detect_junctions(square_cross_cluster(n_sub=4))
        by_arms = sorted(js, key=lambda j: j.n_arms)
        assert [j.n_arms for j in by_arms] == [3, 3, 3, 3, 4]
        assert by_arms[-1].non_triple
        assert sorted(by_arms[-1].sector_colors) == [1, 2, 3, 4]

    def test_arms_ordered_clockwise(self):
        for j in detect_junctions(exact_double_bubble()):
            ang = np.array([a["angle"] for a in j.arms])
            gaps = (ang - np.roll(ang, -1)) % (2 * np.pi)
            assert gaps.sum() == pytest.approx(2 * np.pi, abs=1e-12)


def arm_tangent(pts):
    """The tangent optimizer._arm_tangents gives an arm of three or more
    points pts."""
    return optimizer._arm_tangents(pts[None, :3], np.array([3]))[0]


class TestSteinerDiagnose:
    def test_exact_bubble_is_stationary(self):
        diag = steiner_diagnose(exact_double_bubble(), EUCLID)
        assert len(diag.junctions) == 2
        for j in diag.junctions:
            assert j.angles_deg == pytest.approx([120.0] * 3, abs=1e-9)
            assert j.residual_norm < 1e-12
            assert j.flags == []
        # 48 segments over a 240 degree arc turn 5 degrees each
        assert diag.max_turning == pytest.approx(np.radians(5.0), abs=1e-9)

    def test_squeezed_interface_is_not_stationary(self):
        cl = exact_double_bubble()
        # drag the interface sideways: angles leave 120 degrees
        for ids in [cl.edges[2].vertices[1:-1]]:
            cl.vertices[np.asarray(ids), 0] += 0.3
        diag = steiner_diagnose(cl, EUCLID)
        assert max(j.residual_norm for j in diag.junctions) > 1e-2

    def test_non_triple_junction_residual_skipped(self):
        diag = steiner_diagnose(square_cross_cluster(n_sub=4), EUCLID)
        center = [j for j in diag.junctions if j.non_triple]
        assert len(center) == 1
        assert center[0].residual is None
        assert any("non-triple" in f for f in center[0].flags)

    @pytest.mark.parametrize("travel", [1.0, -1.0], ids=["ccw", "cw"])
    def test_tangent_is_exact_on_circles_and_lines(self, travel):
        # unequal spacing: the circle through three points is the arc's own
        t = 0.4 + travel * np.array([0.0, 0.05, 0.17, 0.3])
        center, r = np.array([0.3, -1.2]), 2.5
        arc = center + r * np.column_stack([np.cos(t), np.sin(t)])
        exact = travel * np.array([-np.sin(t[0]), np.cos(t[0])])
        assert np.abs(arm_tangent(arc) - exact).max() <= 1e-12
        u = travel * np.array([0.6, -0.8])
        line = np.array([1.0, 2.0]) + np.array([0.0, 0.1, 0.35, 0.4])[:, None] * u
        assert np.abs(arm_tangent(line) - u).max() <= 1e-12

    def test_tangent_is_second_order_on_an_ellipse(self):
        # off a circle the error shrinks with the square of the spacing
        def error(h):
            t = 0.7 + h * np.arange(3)
            pts = np.column_stack([np.cos(t), 0.5 * np.sin(t)])
            tangent = arm_tangent(pts)
            exact = np.array([-np.sin(t[0]), 0.5 * np.cos(t[0])])
            return abs(np.arctan2(cross2(exact, tangent), exact @ tangent))

        errors = [error(h) for h in (0.1, 0.05, 0.025, 0.0125)]
        assert errors[-1] < 1e-4
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= 3.5 * fine

    def test_a_two_point_arm_takes_its_chord(self):
        diag = steiner_diagnose(exact_double_bubble(n_mid=1), EUCLID)
        assert len(diag.junctions) == 2
        for j, chord in zip(diag.junctions, ([0.0, -1.0], [0.0, 1.0])):
            # the straight interface's one segment joins the two junctions
            assert np.abs(j.tangents - chord).max(axis=1).min() <= 1e-15

    def test_wall_corners_of_the_solved_cross_are_pinned(self):
        cl = square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(0))
        rep = minimize(OptimizationProblem(cl, MAXNORM, np.ones(4), SolveOptions(max_outer=60)))
        assert rep.success
        corners = [j for j in rep.junctions if not j["non_triple"]]
        assert sorted(j["vertex"] for j in corners) == [0, 1, 2, 3]
        for j in corners:
            assert j["residual"] is None and j["residual_norm"] is None
            assert j["flags"] == ["pinned junction: residual skipped"]

    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_a_junction_sliding_along_a_wall_reads_the_force_along_it(self, tilt):
        # the box [-1, 1] x [0, 1], walled, split by an interface from the
        # middle of its bottom wall to its top wall: both ends slide
        top = [tilt, 1.0]
        mids = np.linspace([0.0, 0.0], top, 6)[1:-1]
        V = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], top, [-1.0, 1.0], *mids])
        edges = [
            Edge([1, 2, 3, 4], 2, 0, {"wall": True}),
            Edge([4, 5, 0, 1], 1, 0, {"wall": True}),
            Edge([1, 6, 7, 8, 9, 4], 1, 2),
        ]
        diag = steiner_diagnose(Cluster(V, edges, 2), EUCLID)
        assert [j.vertex for j in diag.junctions] == [1, 4]
        # a Euclidean arm pulls along its unit tangent, and the wall line
        # reads its x component: 0 at 90 degrees, sin(atan 0.3) tilted
        for j in diag.junctions:
            assert j.flags == [] and j.residual[1] == 0.0
            assert j.residual_norm == pytest.approx(np.sin(np.arctan(tilt)), abs=1e-12)


def reference_wall_slide(V, v, others):
    """(u, nbs) when the far ends of vertex v's wall segments (others) not at
    v itself (nbs) lie on one line through v, u the unit direction to the
    first of them; None at a wall corner."""
    nbs, dirs = [], []
    for o in others:
        d = V[o] - V[v]
        nd = np.linalg.norm(d)
        if nd < 1e-300:
            continue
        nbs.append(int(o))
        dirs.append(d / nd)
    if dirs and not any(abs(cross2(dirs[0], d)) > 1e-9 for d in dirs[1:]):
        return dirs[0], nbs
    return None


def reference_arm_tangent(pts):
    """The tangent at pts[0] of the circle through pts[:3], or the chord of
    two points."""
    theta = angle_of(pts[1] - pts[0])
    if len(pts) > 2:
        turn = angle_of(pts[2] - pts[0]) - angle_of(pts[2] - pts[1])
        theta = theta + wrap_angle(turn + np.pi) - np.pi
    return unit_dir(theta)


def reference_junction_residual(density, origin, directions, colors):
    """junction_residual with np.roll and np.isclose."""
    gauge = density.gauge_at(origin)
    dirs = np.asarray(directions, dtype=float)
    th = angle_of(dirs)
    assert np.isclose(wrap_angle(th - np.roll(th, -1)).sum(), 2 * np.pi, atol=1e-9)
    colors = np.asarray(colors, dtype=int)
    whites = np.flatnonzero(colors == 0)
    w = whites[0] if len(whites) else 0
    dirs, colors = np.roll(dirs, -w, axis=0), np.roll(colors, -w)
    return arm_forces(gauge, dirs, np.roll(colors, 1), colors).sum(axis=0)


def reference_diagnose(cluster, density):
    """steiner_diagnose junction by junction, arm by arm and edge by edge:
    the reference for its batched arithmetic."""
    wall, pinned, _ = optimizer._edge_roles(cluster)
    junctions, flags = [], []
    for info in detect_junctions(cluster):
        jflags, tangents, walls = [], [], []
        for a in info.arms:
            ids = np.asarray(cluster.edges[a["edge"]].vertices, dtype=int)[:: 1 if a["forward"] else -1]
            tangents.append(reference_arm_tangent(cluster.vertices[ids[:3]]))
            if wall[a["edge"]]:
                walls.append(ids[1])
        tangents = np.asarray(tangents)
        ang = angle_of(tangents)
        order = np.argsort(-ang, kind="stable")
        tangents = tangents[order]
        arms = [info.arms[i] for i in order]
        colors = [a["right"] for a in arms]
        gaps = wrap_angle(ang[order] - np.roll(ang[order], -1))
        residual = rnorm = None
        fixed = any(pinned[a["edge"]] for a in info.arms)
        slid = None if fixed or not walls else reference_wall_slide(cluster.vertices, info.vertex, walls)
        if (fixed or walls) and slid is None:
            jflags.append("pinned junction: residual skipped")
        elif slid is not None:
            sides = np.array([(0, 0) if wall[a["edge"]] else (a["left"], a["right"]) for a in arms])
            force = arm_forces(density.gauge_at(info.point), tangents, *sides.T).sum(axis=0)
            along = float(force @ slid[0])
            residual, rnorm = along * slid[0], abs(along)
        elif info.non_triple:
            jflags.append("non-triple junction: residual skipped")
        else:
            residual = reference_junction_residual(density, info.point, tangents, colors)
            rnorm = float(np.linalg.norm(residual))
        junctions.append(
            optimizer.JunctionDiagnostic(
                vertex=info.vertex,
                point=info.point,
                n_arms=info.n_arms,
                non_triple=info.non_triple,
                sector_colors=colors,
                angles_deg=[float(np.degrees(x)) for x in gaps],
                tangents=tangents,
                residual=residual,
                residual_norm=rnorm,
                flags=jflags,
            )
        )
        flags.extend(jflags)
    arc_turning = []
    for e in cluster.edges:
        vec = np.diff(cluster.edge_points(e), axis=0)
        arc_turning.append(0.0 if len(vec) < 2 else float(angle_between(vec[:-1], vec[1:]).max()))
    return optimizer.DiagnoseReport(junctions, arc_turning, max(arc_turning, default=0.0), flags)


def diagnosed_clusters():
    """The final clusters of the pinned solves and of the panel's walled
    max-norm crosses, with their densities."""
    for problem in pinned_solves():
        yield minimize(problem).cluster, problem.density
    for j in (0, 1, 2):
        problem = benchmark_problem(f"cross {j}")
        yield minimize(problem).cluster, problem.density


class TestDiagnoseReference:
    def test_matches_the_per_arm_and_per_edge_loops(self):
        kinds = set()
        for cl, density in diagnosed_clusters():
            got, ref = steiner_diagnose(cl, density), reference_diagnose(cl, density)
            assert got.spec() == ref.spec()
            for a, b, info in zip(got.junctions, ref.junctions, detect_junctions(cl)):
                assert a.tangents.tobytes() == b.tangents.tobytes()
                if a.residual is not None:
                    assert a.residual.tobytes() == b.residual.tobytes()
                at_wall = any(cl.edges[arm["edge"]].tags.get("wall") for arm in info.arms)
                kinds.add((a.n_arms, at_wall, a.residual is None, tuple(a.flags)))
        # free triple junctions, sliding and pinned wall junctions, and
        # four-arm centres, one of them on a fixed edge
        assert kinds == {
            (3, False, False, ()),
            (3, True, False, ()),
            (3, True, True, ("pinned junction: residual skipped",)),
            (4, False, True, ("non-triple junction: residual skipped",)),
            (4, False, True, ("pinned junction: residual skipped",)),
        }


class TestJunctionRefinement:
    @pytest.mark.parametrize(
        "gauge", [EuclideanGauge(), EllipseGauge(np.diag([1.0, 0.5]))], ids=["euclidean", "ellipse"]
    )
    def test_the_worst_residual_falls_under_refinement(self, gauge):
        worst = []
        for n_arc in (24, 48, 96):
            cl = double_bubble_cluster(n_arc=n_arc, n_mid=n_arc // 3)
            problem = OptimizationProblem(cl, Density.constant(gauge), [1.0, 1.0], SolveOptions(max_outer=30))
            worst.append(max(j["residual_norm"] for j in minimize(problem).junctions))
        assert worst[0] > worst[1] > worst[2]


class TestBallBound:
    def test_bubble_boundary_is_uniformly_sparse(self):
        cl = exact_double_bubble()
        rng = np.random.default_rng(4)
        centers = rng.uniform(-1.4, 1.4, size=(40, 2))
        rep = ball_bound_check(cl, EUCLID, centers, np.full(40, 0.3))
        assert rep.ok
        assert rep.bound == pytest.approx(7.0)
        assert rep.worst_ratio < rep.bound
        assert len(rep.ratios) == 40

    def test_scalar_radius_broadcasts(self):
        cl = exact_double_bubble()
        rep = ball_bound_check(cl, EUCLID, [[0.0, 0.0], [0.5, 0.0]], [0.25])
        assert len(rep.ratios) == 2

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_bound_check(exact_double_bubble(), EUCLID, [[0.0, 0.0]], [0.0])

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="positive finite"):
            ball_bound_check(exact_double_bubble(), EUCLID, [[0.0, 0.0]], [radius])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ball_bound_check(
                exact_double_bubble(), EUCLID, [[0.0, 0.0], [1.0, 0.0]], [0.1, 0.2, 0.3]
            )


class TestInterfacePerimeter:
    def test_sum_of_a_breakdown_is_the_interface_perimeter(self):
        cl = square_cross_cluster(n_sub=4, jitter=0.05)
        parts = perimeter_breakdown(cl, MAXNORM)
        assert interface_sum(cl, parts) == interface_perimeter(cl, MAXNORM)
        assert interface_sum(cl, parts) < float(parts.sum())

    def test_walls_excluded(self):
        cl = square_cross_cluster(n_sub=4)
        total = weighted_perimeter(cl, EUCLID)
        inner = interface_perimeter(cl, EUCLID)
        # outer wall contributes 8, diagonals 4 * sqrt(2)
        assert total == pytest.approx(8.0 + 4.0 * np.sqrt(2.0), abs=1e-12)
        assert inner == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-12)
