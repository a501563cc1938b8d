"""Slice configurations, competitor moves, and path shortcutting."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from anisoclusters import (
    EllipseGauge,
    EuclideanGauge,
    LpGauge,
    ShiftedDiskGauge,
    SliceConfig,
    SmoothedL1Gauge,
    improve,
    oriented_weight,
    path_length_gauge,
    shortcut_path,
    strict_convexity_margin,
)
from anisoclusters import slices
from anisoclusters.geometry import polyline_self_intersects, rotate_cw
from anisoclusters.slices import enumerate_moves

from conftest import odd_profile_gauge, random_slice_config, star_polygon


class TestOrientedWeight:
    def setup_method(self):
        self.gauge = ShiftedDiskGauge((0.2, -0.1), 1.0)
        self.vec = np.array([0.7, 0.4])

    def test_same_label_is_free(self):
        assert oriented_weight(self.gauge, self.vec, 2, 2) == 0.0

    def test_white_on_right_uses_cw_normal(self):
        n = rotate_cw(self.vec)
        assert oriented_weight(self.gauge, self.vec, 1, 0) == pytest.approx(
            float(self.gauge.value(n))
        )

    def test_white_on_left_uses_ccw_normal(self):
        n = rotate_cw(self.vec)
        assert oriented_weight(self.gauge, self.vec, 0, 1) == pytest.approx(
            float(self.gauge.value(-n))
        )

    def test_interface_averages_both_sides(self):
        n = rotate_cw(self.vec)
        expect = 0.5 * float(self.gauge.value(n) + self.gauge.value(-n))
        assert oriented_weight(self.gauge, self.vec, 1, 2) == pytest.approx(expect)

    def test_asymmetry_shows_in_one_sided_weights(self):
        a = oriented_weight(self.gauge, self.vec, 1, 0)
        b = oriented_weight(self.gauge, self.vec, 0, 1)
        assert abs(a - b) > 1e-6


class TestSliceConfig:
    def test_perimeter_is_sum_of_radius_weights(self):
        gauge = EllipseGauge([[2.0, 0.3], [0.3, 1.0]])
        cfg = SliceConfig(np.radians([10, 80, 150, 220, 300]), [1, 2, 3, 4, 2], gauge)
        pts = cfg.points()
        expect = sum(
            oriented_weight(gauge, pts[i], cfg.colors[i], cfg.colors[i - 1])
            for i in range(cfg.n)
        )
        assert cfg.perimeter() == pytest.approx(expect, abs=1e-12)

    def test_batch_matches_single_vectors(self):
        gauge = ShiftedDiskGauge((0.2, -0.1), 1.0)
        vec = np.random.default_rng(3).normal(size=(12, 2))
        left = [0, 1, 2, 2, 0, 3, 1, 0, 2, 4, 1, 0]
        right = [1, 0, 2, 1, 3, 0, 0, 2, 4, 2, 1, 0]
        batch = oriented_weight(gauge, vec, left, right)
        assert batch.shape == (12,)
        for k in range(12):
            assert batch[k] == oriented_weight(gauge, vec[k], left[k], right[k])

    def test_adjacent_whites_merge(self):
        cfg = SliceConfig(np.radians([0, 90, 180, 270]), [0, 0, 1, 2], EuclideanGauge())
        assert cfg.n == 3
        assert 0 in cfg.colors
        for i in range(cfg.n):
            assert not (cfg.colors[i] == 0 and cfg.colors[i - 1] == 0)
        # a run of whites from radius 3 on wraps past index 0: it keeps its
        # first radius, 180 deg, and radii 4, 5 and 0 go
        cfg = SliceConfig(np.radians([0, 60, 120, 180, 240, 300]), [0, 1, 2, 0, 0, 0], EuclideanGauge())
        np.testing.assert_array_equal(cfg.angles, np.radians([60, 120, 180]))
        assert cfg.colors == [1, 2, 0]

    def test_angles_come_out_sorted(self):
        cfg = SliceConfig(np.radians([300, 10, 150]), [1, 2, 3], EuclideanGauge())
        assert np.all(np.diff(cfg.angles) > 0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SliceConfig(np.radians([0, 90]), [1], EuclideanGauge())

    def test_negative_colors_rejected(self):
        with pytest.raises(ValueError):
            SliceConfig(np.radians([0, 90]), [1, -2], EuclideanGauge())

    def test_duplicate_angles_rejected(self):
        with pytest.raises(ValueError):
            SliceConfig(np.radians([0, 0, 90]), [1, 2, 3], EuclideanGauge())

    def test_coincident_radii_across_angle_zero_rejected(self):
        # a gap of 1e-13 is rejected mid-circle, so across angle 0 as well
        for angles in ([1.0, 1.0 + 1e-13, 2.5, 4.0, 5.0], [0.0, 1.0, 2.5, 4.0, 2 * np.pi - 1e-13]):
            with pytest.raises(ValueError, match="strictly increasing"):
                SliceConfig(angles, [1, 2, 3, 4, 2], EuclideanGauge())

    def test_points_and_gaps_are_fixed(self):
        cfg = SliceConfig(np.radians([10, 80, 150, 220]), [1, 2, 3, 4], EuclideanGauge())
        assert cfg.points() is cfg.points() and cfg.gaps() is cfg.gaps()
        assert np.array_equal(cfg.points(), np.column_stack([np.cos(cfg.angles), np.sin(cfg.angles)]))
        assert cfg.gaps().sum() == pytest.approx(2 * np.pi, abs=1e-12)
        for a in (cfg.angles, cfg.points(), cfg.gaps()):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_all_white_collapses(self):
        with pytest.raises(ValueError):
            SliceConfig(np.radians([0, 90, 180]), [0, 0, 0], EuclideanGauge())

    def test_spec_round_trips(self):
        cfg = SliceConfig(np.radians([10, 80, 150, 220]), [1, 2, 3, 4], EuclideanGauge())
        spec = cfg.spec()
        back = SliceConfig(np.radians(spec["angles_deg"]), spec["colors"], EuclideanGauge())
        assert np.allclose(back.angles, cfg.angles)
        assert back.colors == cfg.colors


def trace_angles(net):
    """The angles, in [0, 2 pi) and rounded to 12 digits, at which the
    segment ends of net lie on the unit circle."""
    ends = np.concatenate([net.p0, net.p1])
    on = np.abs(np.linalg.norm(ends, axis=1) - 1.0) < 1e-9
    return sorted({round(float(np.arctan2(y, x)) % (2.0 * np.pi), 12) for x, y in ends[on]})


class TestMoves:
    def test_moves_preserve_circle_trace(self):
        from anisoclusters.slices import enumerate_moves

        cfg = SliceConfig(
            np.radians([10, 80, 150, 220, 300]),
            [1, 2, 0, 3, 2],
            EuclideanGauge(),
        )
        base_trace = trace_angles(cfg.base_network())
        count = 0
        for desc, net in enumerate_moves(cfg):
            assert trace_angles(net) == base_trace, desc
            count += 1
        assert count > 5

    def test_chord_skips_wide_sectors(self):
        cfg = SliceConfig(np.radians([0, 90, 150]), [1, 2, 3], EuclideanGauge())
        # sector from 150 deg back to 0 deg spans 210 deg
        moves = dict(enumerate_moves(cfg))
        assert moves.get(("chord", 2)) is None
        assert moves.get(("chord", 0)) is not None

    def test_chord_cuts_euclidean_fan(self):
        # two radii 60 deg apart: chord replaces the far radius pattern;
        # compare against a hand-built competitor perimeter
        cfg = SliceConfig(np.radians([0, 60, 180, 240]), [1, 2, 1, 2], EuclideanGauge())
        net = dict(enumerate_moves(cfg)).get(("chord", 0))
        assert net is not None
        assert net.perimeter() < cfg.perimeter()

    def test_join_whites_clips_interior_radii(self):
        cfg = SliceConfig(
            np.radians([0, 40, 80, 180, 300]), [1, 2, 0, 3, 0], EuclideanGauge()
        )
        net = dict(enumerate_moves(cfg)).get(("join-whites", 0, 1))
        assert net is not None
        # pieces under the chord carry white on the outside
        whites = [s for s in net.segments if s.right == 0]
        assert len(whites) >= 2
        assert trace_angles(net) == trace_angles(cfg.base_network())

    def test_join_whites_needs_white_flanks(self):
        cfg = SliceConfig(
            np.radians([0, 40, 80, 180, 300]), [1, 2, 0, 3, 4], EuclideanGauge()
        )
        assert [desc for desc, _ in enumerate_moves(cfg) if desc[0] == "join-whites"] == []

    def test_join_whites_skips_wide_spans(self):
        cfg = SliceConfig(
            np.radians([0, 170, 200, 300]), [1, 0, 2, 0], EuclideanGauge()
        )
        # span {0} covers 170 degrees; widen it past pi via the other span
        wide = SliceConfig(
            np.radians([0, 100, 200, 250, 300]), [1, 2, 0, 3, 0], EuclideanGauge()
        )
        assert dict(enumerate_moves(wide)).get(("join-whites", 0, 1)) is None


    def test_moves_keep_side_labels_consistent(self):
        # around every vertex, the region between two neighbouring arms has
        # one label, read on the counterclockwise side of the one and the
        # clockwise side of the other; at the circle the arcs keep their
        # sector's label inside and the exterior (-1) outside
        rng = np.random.default_rng(5)
        checked = set()
        for _ in range(15):
            cfg = random_slice_config(rng, EuclideanGauge())
            for desc, net in enumerate_moves(cfg):
                assert side_label_faults(cfg, net) == [], desc
                checked.add(desc[0])
        assert checked == {"chord", "join-whites", "slide", "tripod"}


def side_label_faults(cfg, net):
    """Vertices of net where neighbouring arms disagree on the label between
    them; the circle's arcs count as arms at each radius endpoint."""
    arms = {}

    def add(p, d, ccw, cw):
        key = (round(float(p[0]), 9), round(float(p[1]), 9))
        arms.setdefault(key, []).append((float(np.arctan2(d[1], d[0])), ccw, cw))

    for s in net.segments:
        add(s.p0, s.p1 - s.p0, s.left, s.right)
        add(s.p1, s.p0 - s.p1, s.right, s.left)
    for i, p in enumerate(cfg.points()):
        tangent = np.array([-p[1], p[0]])
        add(p, tangent, cfg.colors[i], -1)
        add(p, -tangent, -1, cfg.colors[i - 1])
    faults = []
    for key, around in arms.items():
        around.sort()
        if any(a[1] != b[2] for a, b in zip(around, around[1:] + around[:1])):
            faults.append(key)
    return faults

class TestImprove:
    def test_needs_more_than_three_radii(self):
        cfg = SliceConfig(np.radians([0, 120, 240]), [1, 2, 3], EuclideanGauge())
        with pytest.raises(ValueError):
            improve(cfg)

    def test_report_is_self_consistent(self):
        cfg = SliceConfig(
            np.radians([10, 80, 150, 220, 300]), [1, 2, 0, 3, 2], EuclideanGauge()
        )
        res = improve(cfg)
        assert res.perimeter_before == pytest.approx(cfg.perimeter(), abs=1e-12)
        assert res.perimeter_after == pytest.approx(
            res.network.perimeter(), abs=1e-12
        )
        assert res.delta == pytest.approx(
            res.perimeter_before - res.perimeter_after, abs=1e-12
        )

    @pytest.mark.parametrize(
        "gauge",
        [EuclideanGauge(), EllipseGauge([[2.0, 0.3], [0.3, 1.0]])],
        ids=["euclid", "ellipse"],
    )
    def test_strictly_convex_sweep_always_improves(self, gauge):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            cfg = random_slice_config(rng, gauge)
            res = improve(cfg)
            assert res.delta > 0, cfg.spec()
            assert res.guaranteed

    def test_guarantee_margin_is_computed_once_per_gauge(self, monkeypatch):
        calls = []

        def counting_margin(gauge, n_dirs):
            calls.append(gauge)
            return strict_convexity_margin(gauge, n_dirs)

        monkeypatch.setattr(slices, "strict_convexity_margin", counting_margin)
        rng = np.random.default_rng(7)
        gauges = [EuclideanGauge(), EllipseGauge([[2.0, 0.3], [0.3, 1.0]])]
        for k in range(12):
            assert improve(random_slice_config(rng, gauges[k % 2])).guaranteed
        assert calls == gauges

    def test_guarantee_on_criterion_07_draws(self):
        # the draws and gauges of the acceptance criterion; the flag is the
        # uncached 256-direction margin test
        rng = np.random.default_rng(20240817)
        gauges = [
            EuclideanGauge(),
            EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
            SmoothedL1Gauge(0.35),
        ]
        expected = [g.smooth and strict_convexity_margin(g, n_dirs=256) > 1e-9 for g in gauges]
        assert expected == [True, True, False]
        for trial in range(200):
            cfg = random_slice_config(rng, gauges[trial % 3])
            if trial < 12:
                assert improve(cfg).guaranteed == expected[trial % 3]
            assert slices._strictly_convex(cfg.gauge) == expected[trial % 3]

    def test_smoothed_l1_improves_without_guarantee(self):
        rng = np.random.default_rng(99)
        gauge = SmoothedL1Gauge(0.35)
        cfg = random_slice_config(rng, gauge)
        res = improve(cfg)
        assert res.delta > 0
        assert not res.guaranteed

    def test_max_norm_cross_is_already_optimal(self):
        cfg = SliceConfig(
            np.radians([45, 135, 225, 315]), [1, 2, 3, 4], LpGauge(np.inf)
        )
        res = improve(cfg)
        assert res.delta <= 1e-12
        assert not res.guaranteed


def scalar_perimeter(net, memo):
    """Test-only oracle: the orientation rule written out one segment at a
    time, with single-vector gauge calls, added in segment order one at a
    time. memo holds the weights of segments already seen on the same
    gauge."""
    total = 0.0
    for s in net.segments:
        key = (s.p0.tobytes(), s.p1.tobytes(), s.left, s.right)
        if key not in memo:
            n = rotate_cw(s.p1 - s.p0)
            if s.left == s.right:
                memo[key] = 0.0
            elif s.right == 0:
                memo[key] = float(net.gauge.value(n))
            elif s.left == 0:
                memo[key] = float(net.gauge.value(-n))
            else:
                memo[key] = 0.5 * float(net.gauge.value(n) + net.gauge.value(-n))
        total += memo[key]
    return total


def criterion_07_draws():
    """The configurations of acceptance criterion 07, in its order."""
    rng = np.random.default_rng(20240817)
    gauges = [EuclideanGauge(), EllipseGauge([[2.0, 0.3], [0.3, 1.0]]), SmoothedL1Gauge(0.35)]
    draws = [random_slice_config(rng, gauges[t % 3]) for t in range(200)]
    for gauge in (LpGauge(np.inf), LpGauge(1.0), EuclideanGauge()):
        draws.append(SliceConfig(np.radians([45, 135, 225, 315]), [1, 2, 3, 4], gauge))
    return draws


def test_improve_matches_the_scalar_oracle():
    # improve prices the base network (row 0 of its table) and then every
    # candidate; each price is the oracle's, bit for bit, and improve
    # returns the oracle's move, the first of the largest oracle deltas
    for cfg in criterion_07_draws():
        res = improve(cfg)
        rows, prices = slices._priced(cfg)
        memo = {}
        oracle_base = scalar_perimeter(cfg.base_network(), memo)
        assert prices[0] == oracle_base, cfg.spec()
        enumerated = list(enumerate_moves(cfg))
        assert len(prices) - 1 == len(enumerated), cfg.spec()
        best = None
        for (desc, net), move, p in zip(enumerated, rows.moves[1:], prices[1:]):
            assert desc == move, cfg.spec()
            q = scalar_perimeter(net, memo)
            assert p == q, cfg.spec()
            if best is None or oracle_base - q > best[0]:
                best = (oracle_base - q, desc)
        assert res.move == best[1], cfg.spec()
        assert res.delta == best[0], cfg.spec()


def reference_improve(config):
    """Test-only reference: improve as a loop over the enumerated networks,
    each priced by its own oriented_weight call and summed in segment
    order, keeping the first strictly largest delta."""
    base = config.perimeter()
    best = None
    for desc, net in enumerate_moves(config):
        delta = base - net.perimeter()
        if best is None or delta > best[0]:
            best = (delta, desc, net)
    delta, desc, net = best
    return desc, delta, base, base - delta, net


def white_sector_draws():
    """Random configurations, most with white sectors, under asymmetric and
    kinked gauges."""
    rng = np.random.default_rng(4242)
    gauges = [ShiftedDiskGauge((0.2, -0.1), 1.0), odd_profile_gauge(), LpGauge(np.inf), LpGauge(1.0)]
    return [random_slice_config(rng, gauges[t % 4]) for t in range(60)]


def test_improve_equals_the_per_network_loop():
    draws = criterion_07_draws() + white_sector_draws()
    families = set()
    for cfg in draws:
        res = improve(cfg)
        move, delta, before, after, net = reference_improve(cfg)
        assert res.move == move, cfg.spec()
        assert res.delta == delta, cfg.spec()
        assert res.perimeter_before == before, cfg.spec()
        assert res.perimeter_after == after, cfg.spec()
        assert len(res.network.segments) == len(net.segments), cfg.spec()
        for a, b in zip(res.network.segments, net.segments):
            assert np.array_equal(a.p0, b.p0) and np.array_equal(a.p1, b.p1), cfg.spec()
            assert (a.left, a.right) == (b.left, b.right), cfg.spec()
        families.update(desc[0] for desc, _ in enumerate_moves(cfg))
    assert families == {"chord", "join-whites", "slide", "tripod"}
    assert sum(0 in cfg.colors for cfg in draws) >= 100


def improve_outcome(res):
    """improve's result as bytes: delta, move, both perimeters, the
    guarantee flag, and the winning network's four arrays."""
    net = res.network
    fields = (res.delta, res.move, res.perimeter_before, res.perimeter_after, res.guaranteed)
    arrays = (net.p0, net.p1, net.left, net.right)
    return repr(fields).encode() + b"".join(repr((a.dtype.str, a.shape)).encode() + a.tobytes() for a in arrays)


def test_improve_outputs_are_pinned():
    # one digest over improve's results on 413 configurations: criterion 07's
    # draws, the white-sector draws, and 150 seeded configurations of 4 to 8
    # radii under the Euclidean, ellipse and smoothed-l1 gauges; taken from
    # the table stacked from one table per family, before the families
    # wrote their rows in place
    rng = np.random.default_rng(30)
    gauges = [EuclideanGauge(), EllipseGauge([[2.0, 0.3], [0.3, 1.0]]), SmoothedL1Gauge(0.35)]
    seeded = [random_slice_config(rng, gauges[t % 3]) for t in range(150)]
    digest = hashlib.sha256()
    for cfg in [*criterion_07_draws(), *white_sector_draws(), *seeded]:
        digest.update(improve_outcome(improve(cfg)))
    assert digest.hexdigest() == "dd8af5c53f21d0f5e640b13761ad11f59d6eac5fd9ba41336f8fefeb618921a4"


def test_improve_result_retains_little_memory():
    # the result keeps the configuration and the winning move, not the
    # winner's segments: ~225 B, against ~1,200 B with the network's arrays
    cfg = SliceConfig(np.radians([0, 40, 100, 150, 200, 250, 290, 330]), [1, 2, 3, 1, 2, 3, 1, 2], EuclideanGauge())
    improve(cfg)  # the gauge's guarantee flag is cached on the first call
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [improve(cfg) for _ in range(10)]
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / len(results)
    finally:
        tracemalloc.stop()
    assert cfg.n == 8 and len(results[0].network.segments) == 9
    assert retained < 450


def test_network_segments_read_the_arrays():
    cfg = SliceConfig(np.radians([0, 60, 180, 240]), [1, 2, 1, 2], EuclideanGauge())
    net = dict(enumerate_moves(cfg))[("chord", 0)]
    segs = net.segments
    assert [(s.left, s.right) for s in segs] == list(zip(net.left.tolist(), net.right.tolist()))
    assert all(type(s.left) is int and type(s.right) is int for s in segs)
    assert np.array_equal([s.p0 for s in segs], net.p0) and np.array_equal([s.p1 for s in segs], net.p1)
    assert net.perimeter() == scalar_perimeter(net, {})


def test_network_perimeter_adds_in_segment_order():
    # 2^53 + 1 + 1 is 2^53 one term at a time; the builtin sum() of Python
    # 3.12 and later compensates its rounding and gives 2^53 + 2
    p1 = np.array([[2.0 ** 53, 0.0], [1.0, 0.0], [1.0, 0.0]])
    net = slices.CompetitorNetwork(np.zeros((3, 2)), p1, np.ones(3, int), np.zeros(3, int), EuclideanGauge())
    assert net.perimeter() == 2.0 ** 53


class TestPathLength:
    def test_reverse_matters_for_asymmetric_gauge(self):
        gauge = ShiftedDiskGauge((0.2, -0.1), 1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
        fwd = path_length_gauge(gauge, pts)
        rev = path_length_gauge(gauge, pts, reverse=True)
        assert abs(fwd - rev) > 1e-6
        assert rev == pytest.approx(path_length_gauge(gauge, pts[::-1]), abs=1e-12)

    def test_symmetric_gauge_is_direction_blind(self):
        gauge = EllipseGauge([[2.0, 0.3], [0.3, 1.0]])
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
        assert path_length_gauge(gauge, pts) == pytest.approx(
            path_length_gauge(gauge, pts, reverse=True), abs=1e-12
        )

    @pytest.mark.parametrize(
        "gauge",
        [EuclideanGauge(), LpGauge(3.0), ShiftedDiskGauge((0.2, -0.1), 1.0)],
        ids=["euclid", "lp3", "shifted"],
    )
    def test_path_at_least_chord(self, gauge):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pts = rng.normal(size=(6, 2))
            path = path_length_gauge(gauge, pts)
            chord = float(gauge.value(pts[-1] - pts[0]))
            assert path >= chord - 1e-12


class TestShortcut:
    def test_straightens_a_convex_bulge(self):
        tau1 = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        tau2 = np.array([[2.0, 0.0], [1.0, -0.2], [0.0, 0.0]])
        tau = shortcut_path(tau1, tau2)
        assert np.allclose(tau[0], tau1[0])
        assert np.allclose(tau[-1], tau1[-1])
        g = EuclideanGauge()
        two_sided = path_length_gauge(g, tau) + path_length_gauge(g, tau, reverse=True)
        total = path_length_gauge(g, tau1) + path_length_gauge(g, tau2)
        assert two_sided <= total + 1e-12

    def test_random_star_splits_never_lose(self):
        rng = np.random.default_rng(2718)
        gauges = [
            EuclideanGauge(),
            EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
            ShiftedDiskGauge((0.2, -0.1), 1.0),
        ]
        for trial in range(50):
            poly = star_polygon(rng, int(rng.integers(6, 14)))
            k = int(rng.integers(2, len(poly) - 1))
            tau1 = poly[: k + 1]
            tau2 = np.vstack([poly[k:], poly[:1]])
            tau = shortcut_path(tau1, tau2)
            assert np.allclose(tau[0], tau1[0]) and np.allclose(tau[-1], tau1[-1])
            assert not polyline_self_intersects(tau)
            g = gauges[trial % len(gauges)]
            two_sided = path_length_gauge(g, tau) + path_length_gauge(
                g, tau, reverse=True
            )
            total = path_length_gauge(g, tau1) + path_length_gauge(g, tau2)
            assert two_sided <= total + 1e-12, trial

    def test_endpoint_mismatch_rejected(self):
        tau1 = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        tau2 = np.array([[2.0, 0.0], [1.0, -0.2], [0.5, 0.0]])
        with pytest.raises(ValueError):
            shortcut_path(tau1, tau2)

    def test_crossing_chains_rejected(self):
        tau1 = np.array([[0.0, 0.0], [2.0, 1.0], [2.0, 0.0]])
        tau2 = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            shortcut_path(tau1, tau2)

    @pytest.mark.parametrize(
        "tau1, tau2",
        [
            # quarter-grid split 7: P = Q
            (
                [[0.75, -0.75], [-0.25, 0.5], [0.75, -0.75]],
                [[0.75, -0.75], [-0.75, -1.0], [0.0, 0.0], [0.75, -0.75]],
            ),
            # split 791: Q lies on tau1's first segment
            (
                [[0.75, 1.0], [0.75, -0.75], [1.0, 0.25], [0.75, 0.0]],
                [[0.75, 0.0], [-1.0, 0.0], [0.75, 1.0]],
            ),
            # split 870: tau1 and tau2 both pass through (-0.25, 1.0)
            (
                [[-1.0, -1.0], [-0.25, 1.0], [0.5, -0.25], [-0.75, -0.5], [-0.25, 1.0], [-0.5, 0.75]],
                [[-0.5, 0.75], [-0.25, 1.0], [-1.0, -1.0]],
            ),
        ],
        ids=["p-equals-q", "vertex-on-edge", "repeated-vertex"],
    )
    def test_touching_chains_rejected(self, tau1, tau2):
        # no proper crossing, but the polygon is not simple, and no convex
        # corner is left to cut
        with pytest.raises(ValueError, match="paths touch"):
            shortcut_path(np.array(tau1), np.array(tau2))

    def test_straight_chain_gives_the_chord(self):
        # every chord of the straight tau1 has a vertex on it, and none of its
        # corners is convex
        tau1 = np.array([[1.5, 0.5], [0.25, 0.5], [-0.5, 0.5], [-2.0, 0.5]])
        tau2 = np.array([[-2.0, 0.5], [-1.75, -0.75], [-0.25, -1.0], [0.25, -0.25], [1.5, 0.5]])
        assert np.array_equal(shortcut_path(tau1, tau2), tau1[[0, -1]])

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            shortcut_path(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))


def split_at(poly, k):
    """The two paths between vertices 0 and k of a closed polygon."""
    return poly[: k + 1], np.vstack([poly[k:], poly[:1]])


def criterion_08_splits():
    """The star splits of acceptance criterion 08, in its order."""
    rng = np.random.default_rng(20240818)
    for _ in range(500):
        rng.normal(size=(int(rng.integers(2, 9)), 2))
    for _ in range(500):
        poly = star_polygon(rng, int(rng.integers(6, 16)))
        yield split_at(poly, int(rng.integers(2, len(poly) - 1)))


def quarter_grid_splits(count=1200):
    """Splits of polygons with vertices on a 1/4 grid, so that collinear,
    touching, repeated and crossing vertices all occur: star polygons
    rounded to the grid, and random grid points sorted by angle about
    their mean or left in random order."""
    rng = np.random.default_rng(27)
    for _ in range(count):
        kind = int(rng.integers(3))
        if kind == 0:
            poly = np.round(4.0 * star_polygon(rng, int(rng.integers(6, 16)), 0.5, 2.5)) / 4.0
        else:
            poly = rng.integers(-4, 5, size=(int(rng.integers(5, 11)), 2)) / 4.0
            if kind == 1:
                c = poly - poly.mean(axis=0)
                poly = poly[np.argsort(np.arctan2(c[:, 1], c[:, 0]), kind="stable")]
        yield split_at(poly, int(rng.integers(2, len(poly) - 1)))


def shortcut_outcome(tau1, tau2):
    """shortcut_path's output as bytes, or its error's type and message."""
    try:
        tau = shortcut_path(tau1, tau2)
    except (ValueError, RuntimeError) as e:
        return f"{type(e).__name__}: {e}".encode()
    return repr(tau.shape).encode() + tau.tobytes()


def test_shortcut_outputs_are_pinned():
    # one digest over every output and error on 1,700 splits, taken from the
    # scalar predicates that geometry's batched ones replaced; 350 of the
    # grid splits cross, and 6 touch without crossing and have no convex
    # corner, which raised RuntimeError until touching paths were rejected
    # with ValueError; every path returned stayed the same. 16 other
    # touching splits return a path. Grid split 1016 runs straight through
    # (-0.5, 0) and takes the retry without it
    digest = hashlib.sha256()
    for tau1, tau2 in [*criterion_08_splits(), *quarter_grid_splits()]:
        digest.update(shortcut_outcome(tau1, tau2))
    assert digest.hexdigest() == "2cdc1d2efc1904628318f41771b5394308c91bc2fc786180eec855d22a82c229"
