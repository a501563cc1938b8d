"""Cluster data structure, weighted perimeter/volume, and diagnostics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoclusters import (
    Cluster,
    Density,
    DiskDomain,
    Edge,
    EllipseGauge,
    EuclideanGauge,
    LinearGauge,
    LpGauge,
    Rect,
    ShiftedDiskGauge,
    chamber_perimeter,
    double_bubble_cluster,
    growth_estimate,
    isoperimetric_check,
    perimeter_breakdown,
    polygon_chamber,
    regular_polygon_chamber,
    relative_perimeter,
    resample_cluster,
    square_cross_cluster,
    union_perimeter,
    validate,
    weighted_perimeter,
    weighted_volume,
    weighted_volume_plain,
)
from anisoclusters.cluster import (
    crossing_pairs,
    fan_volume_terms,
    orientation_rule,
    oriented_weight,
    segment_weights,
    vertex_arms,
)
from anisoclusters.geometry import (
    TRIANGLE_RULE,
    clip_segments_to_disk,
    cross2,
    hausdorff_to_segments,
    polyline_self_intersects,
    rotate_cw,
    segment_distance,
    segments_properly_cross,
)
from conftest import odd_profile_gauge


def unit_disk_polygon(n=512):
    t = np.arange(n) * (2 * np.pi / n)
    return np.column_stack([np.cos(t), np.sin(t)])


class TestCrossUnderMaxNorm:
    """The axis-aligned cross partition of a square is exactly computable."""

    def setup_method(self):
        self.cluster = square_cross_cluster(n_sub=4)
        self.density = Density.constant(LpGauge(np.inf))

    def test_total_perimeter(self):
        # outer square contributes 8, the four interior arms (counted with
        # the symmetrized two-sided weight) contribute 4
        assert weighted_perimeter(self.cluster, self.density) == pytest.approx(12.0, abs=1e-12)

    def test_breakdown_sums_to_total(self):
        parts = perimeter_breakdown(self.cluster, self.density)
        assert len(parts) == len(self.cluster.edges)
        assert parts.sum() == pytest.approx(weighted_perimeter(self.cluster, self.density))

    def test_chamber_volumes(self):
        vols = weighted_volume(self.cluster, self.density)
        assert vols == pytest.approx(np.ones(4), abs=1e-12)
        assert weighted_volume_plain(self.cluster) == pytest.approx(np.ones(4), abs=1e-12)

    def test_relative_perimeter_clips_to_disk(self):
        # a radius-1/2 disk at the center meets only the four diagonal arms,
        # each clipped to length 1/2 with two-sided max-norm weight 1/sqrt(2)
        got = relative_perimeter(self.cluster, self.density, np.zeros(2), 0.5)
        assert got == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_chamber_and_union_perimeter(self):
        # chambers are corner triangles: one side of length 2 plus two
        # half-diagonals of length sqrt(2)
        eu = Density.constant(EuclideanGauge())
        for label in range(1, 5):
            assert chamber_perimeter(self.cluster, eu, label) == pytest.approx(
                2.0 + 2.0 * np.sqrt(2.0), abs=1e-12
            )
        assert union_perimeter(self.cluster, eu) == pytest.approx(8.0, abs=1e-12)


def outward_perimeter(gauge, poly):
    """Perimeter of a counterclockwise polygon as a standalone set: the gauge
    at each side's outward normal, the clockwise turn of the side."""
    poly = np.asarray(poly, dtype=float)
    return float(gauge.value(rotate_cw(np.roll(poly, -1, axis=0) - poly)).sum())


@pytest.mark.parametrize(
    "gauge",
    [ShiftedDiskGauge((0.2, -0.1), 1.0), odd_profile_gauge()],
    ids=["shifted-disk", "odd-profile"],
)
class TestChamberPerimeterUnderAsymmetricGauge:
    """A triangle split into two chambers by a segment from its apex. Both
    gauges weigh inward normals differently from outward ones, so a normal
    swapped on some of a chamber's segments shows under either. Swapped on
    all of them it shows only under the odd profile: the shifted disk's odd
    part is linear, h(v) - h(-v) = -2 v.c / (R^2 - |c|^2), and sums to zero
    around a closed boundary."""

    T0, M, T1, T2 = [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.5]

    def cluster(self):
        edges = [Edge([0, 1], 1, 0), Edge([1, 2, 3], 2, 0), Edge([3, 0], 1, 0), Edge([1, 3], 1, 2)]
        cluster = Cluster(np.array([self.T0, self.M, self.T1, self.T2]), edges, 2)
        assert validate(cluster) == []
        return cluster

    def test_chambers(self, gauge):
        cluster, density = self.cluster(), Density.constant(gauge)
        for label, poly in ((1, [self.T0, self.M, self.T2]), (2, [self.M, self.T1, self.T2])):
            expect = outward_perimeter(gauge, poly)
            got = chamber_perimeter(cluster, density, label)
            assert got == pytest.approx(expect, abs=1e-12), label

    def test_union(self, gauge):
        expect = outward_perimeter(gauge, [self.T0, self.T1, self.T2])
        got = union_perimeter(self.cluster(), Density.constant(gauge))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_cross_chambers(self, gauge):
        # the square cross's chambers are the triangles (O, A, B), (O, B, C),
        # (O, C, D), (O, D, A) for corners A..D counterclockwise from (1, 1)
        cluster = square_cross_cluster(n_sub=4)
        O, A, B, C, D = [0.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]
        for label, (P, Q) in enumerate(((A, B), (B, C), (C, D), (D, A)), start=1):
            expect = outward_perimeter(gauge, [O, P, Q])
            got = chamber_perimeter(cluster, Density.constant(gauge), label)
            assert got == pytest.approx(expect, abs=1e-12), label


def test_odd_profile_tells_outward_from_inward_normals():
    # the premise of the odd-profile cases above: the inward-normal
    # perimeter of each chamber differs from the outward one
    gauge = odd_profile_gauge()
    T0, M, T1, T2 = [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.5]
    for poly in ([T0, M, T2], [M, T1, T2], [T0, T1, T2], [T0, [1.0, 1.0], [-1.0, 1.0]]):
        assert abs(outward_perimeter(gauge, poly) - outward_perimeter(gauge, poly[::-1])) > 0.01


class _FixedWeights:
    """A uniform density that is its own symmetric gauge, whose value
    returns given weights."""

    uniform_gauge = True
    symmetric = True

    def __init__(self, h):
        self.h = h

    def gauge_at(self, x):
        return self

    def value(self, normal):
        return self.h


def test_symmetric_weights_are_the_orientation_rule_bit_for_bit():
    # segment_weights prices a symmetric density's segments with one where
    # on the labels; orientation_rule(h, h, ...) must give the same bits:
    # equal labels 0, white on either side h, two chambers 0.5 * (h + h)
    tiny = np.nextafter(0.0, 1.0)
    h = np.array([0.0, tiny, 1e-300, 0.3, 1.0, 2.0 / 3.0, 7.5, 1e300, np.finfo(float).max / 2])
    density = _FixedWeights(h)
    p = q = np.zeros((len(h), 2))
    n = len(h)
    for left, right in itertools.product(range(3), repeat=2):
        for lab in ((left, right), (np.full(n, left), np.full(n, right))):
            got = segment_weights(density, p, q, *lab)
            assert got.tobytes() == orientation_rule(h, h, *lab).tobytes(), lab
            assert got.tolist() == (np.zeros(n) if left == right else h).tolist()
    # boolean labels, as chamber_perimeter passes them
    left, right = np.array([True, False, True] * 3), np.array([True, True, False] * 3)
    got = segment_weights(density, p, q, left, right)
    assert got.tobytes() == orientation_rule(h, h, left, right).tobytes()


def test_uniform_segment_weights_are_oriented_weight_bit_for_bit(all_gauges):
    # a uniform density prices its segments through oriented_weight, whose
    # one-sided evaluation of a symmetric gauge gives the bits of the rule
    # on both sides
    rng = np.random.default_rng(5)
    p, q = rng.normal(size=(2, 60, 2))
    labels = rng.integers(0, 3, (2, 60))
    n = rotate_cw(q - p)
    for gauge in all_gauges + [odd_profile_gauge()]:
        density = Density.constant(gauge)
        for left, right in (labels, labels == 1):
            got = segment_weights(density, p, q, left, right)
            assert got.tobytes() == oriented_weight(gauge, q - p, left, right).tobytes()
            rule = orientation_rule(gauge.value(n), gauge.value(-n), left, right)
            assert got.tobytes() == rule.tobytes(), gauge


class TestSingleChamber:
    def test_unit_square_perimeter_and_area(self):
        square = polygon_chamber(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
        d = Density.constant(EuclideanGauge())
        assert weighted_perimeter(square, d) == pytest.approx(4.0, abs=1e-12)
        assert weighted_volume(square, d) == pytest.approx([1.0], abs=1e-12)

    def test_regular_polygon_hits_target_area(self):
        poly = regular_polygon_chamber(128, area=np.pi)
        d = Density.constant(EuclideanGauge())
        assert weighted_volume(poly, d)[0] == pytest.approx(np.pi, rel=1e-12)
        # perimeter of a 128-gon of area pi is just above 2 pi
        P = weighted_perimeter(poly, d)
        assert 2 * np.pi < P < 2 * np.pi * 1.001

    def test_asymmetric_gauge_sides_differ(self):
        # one chamber traversed ccw: exterior weight uses the outward normal
        square = polygon_chamber(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
        from anisoclusters import ShiftedDiskGauge

        d = Density.constant(ShiftedDiskGauge((0.0, 0.4), 1.0))
        P = weighted_perimeter(square, d)
        g = d.gauge_at(np.zeros(2))
        expect = sum(
            g.value(np.array(n, dtype=float))
            for n in [(0, -1), (1, 0), (0, 1), (-1, 0)]
        )
        assert P == pytest.approx(expect, rel=1e-12)

    def test_variable_g_volume(self):
        # g(x, y) = 1 + x over the unit square: integral is 3/2
        square = polygon_chamber(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
        d = Density(EuclideanGauge(), g=lambda p: 1.0 + p[..., 0])
        assert weighted_volume(square, d)[0] == pytest.approx(1.5, rel=1e-12)

    def test_constant_g_volume_terms_match_the_quadrature_bit_for_bit(self):
        # a callable g takes the quadrature path; the same constant given as
        # a number skips the quadrature points but must keep every bit
        rng = np.random.default_rng(7)
        p, q = rng.normal(size=(2, 100_000, 2))
        for g in (1.0, 0.7, 3.3):
            const = Density(EuclideanGauge(), g=g)
            field = Density(EuclideanGauge(), g=lambda pts, g=g: np.full(pts.shape[:-1], g))
            assert const.g_const == g and field.g_const is None
            assert np.array_equal(fan_volume_terms(const, p, q), fan_volume_terms(field, p, q))

    def test_the_stored_rule_sum_is_the_inline_expression(self):
        # Density keeps the constant-g factor of fan_volume_terms; it must be
        # the sum the kernel once formed on every call, bit for bit, for a
        # constant density and for its scaled copies
        rng = np.random.default_rng(8)
        p, q = rng.normal(size=(2, 1000, 2))
        areas = 0.5 * cross2(p, q)
        for g in (1.0, 0.7, 3.3, 1e-3, 2.0**0.5, 7e5):
            base = Density(EuclideanGauge(), g=g)
            for d in (base, base.scaled(0.3), base.scaled(np.pi), base.scaled(0.3).scaled(11.0)):
                inline = (d.g_const * TRIANGLE_RULE[1]).sum()
                assert d.g_rule_sum == inline
                assert np.array_equal(fan_volume_terms(d, p, q), areas * inline)
        field = Density(EuclideanGauge(), g=lambda pts: np.ones(pts.shape[:-1]))
        assert field.g_rule_sum is None and field.scaled(2.0).g_rule_sum is None


class TestDensityFields:
    def test_disk_domain_samples_fill_the_closed_disk(self):
        dom = DiskDomain([1.0, -2.0], 0.5)
        assert dom.contains([[1.5, -2.0], [1.0, -1.5], [1.0, -2.0]]).all()
        assert not dom.contains([[1.51, -2.0], [0.0, 0.0]]).any()
        pts = dom.sample(np.random.default_rng(4), 4000)
        assert pts.shape == (4000, 2) and dom.contains(pts).all()
        # uniform in area: a quarter of the points within half the radius
        r = np.linalg.norm(pts - dom.center, axis=1)
        assert abs(np.mean(r < 0.25) - 0.25) < 0.03

    def test_scaling_a_gauge_field_scales_h_and_g(self):
        field = lambda x: ShiftedDiskGauge((0.1 * np.tanh(x[0]), 0.0), 1.0)
        d = Density(field, g=lambda p: 1.0 + (p * p).sum(axis=-1), domain=DiskDomain([0.0, 0.0], 2.0))
        s = d.scaled(1.7)
        assert not s.uniform_gauge and s.g_const is None
        rng = np.random.default_rng(6)
        pts, v = rng.normal(size=(2, 50, 2))
        np.testing.assert_allclose(s.h_at(pts, v), 1.7 * d.h_at(pts, v), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(s.g_at(pts), 1.7 * d.g_at(pts), rtol=1e-15, atol=0.0)
        assert (s.h_min, s.h_max) == (1.7 * d.h_min, 1.7 * d.h_max)


class TestTriangleRule:
    # the rule is exact up to degree 5
    def test_weights_sum_to_one(self):
        _, wts = TRIANGLE_RULE
        assert abs(wts.sum() - 1.0) <= 2 * np.spacing(1.0)

    def test_monomials_are_integrated_exactly(self):
        # the mean of l1^a l2^b l3^c over a triangle is 2 a! b! c! / (a+b+c+2)!
        bary, wts = TRIANGLE_RULE
        for a, b, c in itertools.product(range(6), repeat=3):
            if a + b + c > 5:
                continue
            got = float((wts * bary[:, 0] ** a * bary[:, 1] ** b * bary[:, 2] ** c).sum())
            f = math.factorial
            assert abs(got - 2 * f(a) * f(b) * f(c) / f(a + b + c + 2)) <= 1e-14, (a, b, c)


class TestSpecRoundTrip:
    def test_round_trip_preserves_everything(self):
        cl = square_cross_cluster(n_sub=3, jitter=0.05, rng=np.random.default_rng(3))
        cl.edges[0].tags["wall"] = True
        spec = cl.spec()
        back = Cluster.from_spec(spec)
        assert np.allclose(back.vertices, cl.vertices)
        assert back.m == cl.m
        assert len(back.edges) == len(cl.edges)
        for a, b in zip(back.edges, cl.edges):
            assert a.vertices == list(b.vertices)
            assert (a.left, a.right) == (b.left, b.right)
            assert a.tags == b.tags

    def test_copy_is_deep(self):
        cl = square_cross_cluster(n_sub=2)
        cp = cl.copy()
        cp.vertices[0] += 10.0
        cp.edges[0].tags["probe"] = True
        assert not np.allclose(cl.vertices[0], cp.vertices[0])
        assert "probe" not in cl.edges[0].tags


class TestValidate:
    def test_clean_clusters_pass(self):
        for cl in (
            square_cross_cluster(n_sub=4),
            double_bubble_cluster(n_arc=16, n_mid=6),
            regular_polygon_chamber(32),
        ):
            assert validate(cl) == []

    def test_repeated_vertex_flagged(self):
        cl = Cluster(
            [[0.0, 0], [1, 0], [1, 1]],
            [Edge([0, 1, 1, 2, 0], 1, 0)],
            1,
        )
        assert any("repeated" in p for p in validate(cl))

    def test_label_out_of_range(self):
        cl = Cluster([[0.0, 0], [1, 0], [0, 1]], [Edge([0, 1, 2, 0], 5, 0)], 1)
        assert any("label" in p for p in validate(cl))

    def test_equal_labels(self):
        cl = Cluster([[0.0, 0], [1, 0], [0, 1]], [Edge([0, 1, 2, 0], 1, 1)], 1)
        assert any("equal labels" in p for p in validate(cl))

    def test_clockwise_chamber_is_nonpositive_area(self):
        cl = Cluster([[0.0, 0], [0, 1], [1, 0]], [Edge([0, 1, 2, 0], 1, 0)], 1)
        assert any("nonpositive area" in p for p in validate(cl))

    def test_crossing_edges_flagged(self):
        cl = Cluster(
            [[0.0, 0], [2, 2], [0, 2], [2, 0]],
            [Edge([0, 1], 1, 0), Edge([2, 3], 0, 1)],
            1,
        )
        probs = validate(cl)
        assert any("cross" in p for p in probs)

    def test_vertex_index_out_of_range(self):
        cl = Cluster([[0.0, 0], [1, 0]], [Edge([0, 7], 1, 0)], 1)
        assert any("out of range" in p for p in validate(cl))


def wedge_reference(cluster):
    """The wedge check as it was before vertex_arms ordered the arms: each
    vertex's arms sorted counterclockwise as (angle, left, right, edge)
    tuples, the label left of one arm compared with the label right of the
    next."""
    problems = []
    for v, arms in vertex_arms(cluster).items():
        if len(arms) < 2:
            continue
        ends = sorted(
            (np.arctan2(a["chord"][1], a["chord"][0]), a["left"], a["right"], a["edge"]) for a in arms
        )
        for a, b in zip(ends, ends[1:] + ends[:1]):
            if a[1] != b[2]:
                problems.append(
                    f"vertex {v}: wedge between edges {a[3]} and {b[3]} sees labels {a[1]} vs {b[2]}"
                )
    return problems


class TestWedgeViolations:
    def test_messages_match_the_tuple_sort(self):
        # swapping one edge's labels breaks the wedges at both its ends
        for base in (square_cross_cluster(n_sub=3), double_bubble_cluster(n_arc=12, n_mid=4)):
            for k in range(len(base.edges)):
                cl = base.copy()
                e = cl.edges[k]
                e.left, e.right = e.right, e.left
                want = wedge_reference(cl)
                assert want
                assert [p for p in validate(cl) if "wedge" in p] == want


def all_pairs(V, i0, i1):
    """Oracle for crossing_pairs: all n(n-1)/2 segment pairs (a < b) that
    share no endpoint, with no broad phase."""
    a, b = np.triu_indices(len(i0), k=1)
    share = (i0[a] == i0[b]) | (i0[a] == i1[b]) | (i1[a] == i0[b]) | (i1[a] == i1[b])
    return a[~share], b[~share]


def crossing_hits(pair_builder, V, i0, i1):
    a, b = pair_builder(V, i0, i1)
    hit = segments_properly_cross(V[i0[a]], V[i1[a]], V[i0[b]], V[i1[b]])
    return sorted(zip(a[hit].tolist(), b[hit].tolist()))


def assert_broad_phase_exact(V, i0, i1):
    """crossing_pairs is the oracle's pairs with overlapping closed boxes,
    and both give the same properly crossing pairs."""
    V = np.asarray(V, dtype=float)
    i0, i1 = np.asarray(i0), np.asarray(i1)
    a, b = all_pairs(V, i0, i1)
    lo = np.minimum(V[i0], V[i1])
    hi = np.maximum(V[i0], V[i1])
    boxes = np.all((lo[a] <= hi[b]) & (lo[b] <= hi[a]), axis=1)
    pa, pb = crossing_pairs(V, i0, i1)
    assert np.all(pa < pb)
    pruned = sorted(zip(pa.tolist(), pb.tolist()))
    assert pruned == sorted(zip(a[boxes].tolist(), b[boxes].tolist()))
    hits = crossing_hits(crossing_pairs, V, i0, i1)
    assert hits == crossing_hits(all_pairs, V, i0, i1)
    return hits


def closed_polygon(n):
    i0 = np.arange(n)
    return i0, np.roll(i0, -1)


# coordinates on a 1/8 grid keep the crossing arithmetic exact, so the
# degenerate cases (collinear, touching, tied boxes) carry no rounding noise
grid_points = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=3, max_size=40
).map(lambda pts: np.array(pts, dtype=float) / 8.0)


class TestCrossingBroadPhase:
    @settings(max_examples=300, deadline=None)
    @given(grid_points)
    def test_random_grid_polygons_match_the_oracle(self, V):
        assert_broad_phase_exact(V, *closed_polygon(len(V)))
        # an open polyline: every pair of segments that are not neighbours
        a, b = np.triu_indices(len(V) - 1, k=2)
        oracle = segments_properly_cross(V[a], V[a + 1], V[b], V[b + 1]).any()
        assert polyline_self_intersects(V) == oracle

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 80), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_jittered_polygons_match_the_oracle(self, n, jitter, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(n) * (2.0 * np.pi / n)
        V = np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0.0, jitter, (n, 2))
        assert_broad_phase_exact(V, *closed_polygon(n))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["bubble", "cross"]), st.floats(0.0, 0.2), st.integers(0, 2**32 - 1))
    def test_jittered_clusters_match_the_oracle(self, kind, jitter, seed):
        rng = np.random.default_rng(seed)
        if kind == "bubble":
            n_arc, n_mid = rng.integers(4, 40), rng.integers(2, 12)
            cl = double_bubble_cluster(n_arc=int(n_arc), n_mid=int(n_mid))
        else:
            cl = square_cross_cluster(n_sub=int(rng.integers(2, 12)))
        V = cl.vertices + rng.normal(0.0, jitter, cl.vertices.shape)
        i0, i1, _, _, _ = cl.segment_index_arrays()
        assert_broad_phase_exact(V, i0, i1)

    def test_boxes_touching_along_one_side(self):
        # boxes [0,1]^2 and [1,2]x[0,1] share the side x = 1
        V = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [2.0, 1.0]]
        assert assert_broad_phase_exact(V, [0, 2], [1, 3]) == []
        assert len(crossing_pairs(np.array(V), np.array([0, 2]), np.array([1, 3]))[0]) == 1
        # axis-parallel segments have zero-width boxes that meet only on
        # their boundaries, yet these two cross at (1, 1)
        V = [[0.0, 1.0], [2.0, 1.0], [1.0, 0.0], [1.0, 2.0]]
        assert assert_broad_phase_exact(V, [0, 2], [1, 3]) == [(0, 1)]

    def test_equal_xmin_ties_in_any_order(self):
        V = np.array(
            [[0.0, 0.0], [2.0, 2.0], [0.0, 2.0], [2.0, 0.0], [0.0, 5.0], [1.0, 5.0],
             [0.0, -1.0], [0.0, 3.0]]
        )
        segs = [(0, 1), (2, 3), (4, 5), (6, 7)]
        for perm in itertools.permutations(segs):
            i0, i1 = np.array(perm).T
            hits = assert_broad_phase_exact(V, i0, i1)
            first, second = perm.index((0, 1)), perm.index((2, 3))
            assert hits == [(min(first, second), max(first, second))]

    def test_collinear_segments_on_one_wall_line(self):
        # disjoint, abutting and overlapping pieces of the line y = 0
        x = [0.0, 1.0, 2.0, 3.0, 0.5, 2.5, 3.0, 4.0]
        V = np.column_stack([x, np.zeros(8)])
        assert assert_broad_phase_exact(V, [0, 2, 4, 6], [1, 3, 5, 7]) == []

    def test_collinear_disjoint_segments_are_never_tested(self):
        # disjoint pieces of a slanted line have disjoint boxes, so the
        # broad phase never passes them on to the narrow phase
        rng = np.random.default_rng(5)
        for _ in range(2000):
            d, o = rng.normal(size=2), rng.normal(size=2)
            t = np.sort(rng.uniform(-3.0, 3.0, 4))
            V = o + t[:, None] * d
            assert len(crossing_pairs(V, np.array([0, 2]), np.array([1, 3]))[0]) == 0

    def test_collinear_segments_on_slanted_lines_never_cross(self):
        # points rounded onto random slanted lines, up to 1000 line lengths
        # from the origin: overlapping, nested and disjoint pieces of one
        # line are parallel, whatever rounding leaves in their cross product
        rng = np.random.default_rng(8)
        for scale in (0.0, 1.0, 10.0, 1000.0):
            d = rng.normal(size=(20_000, 2))
            o = scale * rng.normal(size=(20_000, 2))
            t = np.sort(rng.uniform(-3.0, 3.0, (20_000, 4)), axis=1)
            P = o[:, None, :] + t[..., None] * d[:, None, :]
            for a, b, c, e in ((0, 2, 1, 3), (0, 3, 1, 2), (0, 1, 2, 3)):
                assert not segments_properly_cross(P[:, a], P[:, b], P[:, c], P[:, e]).any()
        # a genuine crossing at a tiny angle still counts
        for angle in (1e-6, 1e-12):
            u = np.array([np.cos(angle), np.sin(angle)])
            assert segments_properly_cross([-1.0, 0.0], [1.0, 0.0], -u, u)

    def test_shared_end_points_never_cross(self):
        # every orientation of two segments with one common end point b,
        # over random triples (a, b, c)
        rng = np.random.default_rng(11)
        a, b, c = rng.normal(size=(3, 200_000, 2))
        for pair in ((a, b, c, b), (a, b, b, c), (b, a, c, b), (b, a, b, c)):
            assert not segments_properly_cross(*pair).any()

    def test_margin_grows_every_box(self):
        rng = np.random.default_rng(9)
        for margin in (0.0, 0.01, 0.1, 0.5):
            V = rng.uniform(-1.0, 1.0, (60, 2))
            i0, i1 = closed_polygon(60)
            a, b = all_pairs(V, i0, i1)
            lo = np.minimum(V[i0], V[i1]) - margin
            hi = np.maximum(V[i0], V[i1]) + margin
            boxes = np.all((lo[a] <= hi[b]) & (lo[b] <= hi[a]), axis=1)
            pa, pb = crossing_pairs(V, i0, i1, margin)
            assert sorted(zip(pa.tolist(), pb.tolist())) == sorted(
                zip(a[boxes].tolist(), b[boxes].tolist())
            )

    def test_endpoint_touching_a_segment_interior(self):
        # T junctions from either side, and a vertex of a polyline on a
        # non-adjacent segment of the same polyline
        V = [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, -1.0]]
        assert assert_broad_phase_exact(V, [0, 2, 4], [1, 3, 2]) == []
        V = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [2.0, 2.0], [2.0, 0.0], [1.0, -1.0]])
        assert assert_broad_phase_exact(V, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5]) == []
        assert not polyline_self_intersects(V)

    def test_validate_lists_crossings_in_pair_order(self):
        rng = np.random.default_rng(3)
        V = rng.uniform(-1.0, 1.0, (40, 2))
        loops = [Edge(list(range(20)) + [0], 1, 0), Edge(list(range(20, 40)) + [20], 2, 0)]
        cl = Cluster(V, loops, 2)
        i0, i1, _, _, eid = cl.segment_index_arrays()
        expected = [
            f"segments of edges {eid[a]} and {eid[b]} cross"
            for a, b in crossing_hits(all_pairs, V, i0, i1)[:20]
        ]
        got = [p for p in validate(cl) if p.startswith("segments of edges")]
        assert len(crossing_hits(all_pairs, V, i0, i1)) > 20
        assert got == expected


def segment_point_distance(p, a, b):
    """Distances from points p to segments ab, by the foot of the
    perpendicular clamped to the segment: the scalar oracle."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = np.maximum((ab * ab).sum(-1), 1e-300)
    t = np.clip(((p - a) * ab).sum(-1) / denom, 0.0, 1.0)
    foot = a + t[..., None] * ab
    return np.linalg.norm(foot - p, axis=-1)


class TestSegmentDistance:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))
    def test_matches_a_dense_sample(self, coords):
        p1, q1, p2, q2 = np.reshape(coords, (4, 2))
        d = segment_distance(p1, q1, p2, q2)
        # the distance to segment 2 is 1-Lipschitz along segment 1, so the
        # least sampled value is at most half a sample step above the minimum
        s = np.linspace(0.0, 1.0, 2001)[:, None]
        sampled = segment_point_distance(p1 + s * (q1 - p1), p2, q2).min()
        assert d <= sampled + 1e-12
        assert d >= sampled - 0.5 * np.linalg.norm(q1 - p1) / 2000 - 1e-12
        assert segment_distance(q2, p2, q1, p1) == pytest.approx(d, abs=1e-12)

    def test_hand_built_cases(self):
        cases = [
            ([0, 0], [2, 0], [0, 0.5], [2, 0.5], 0.5),  # parallel
            ([0, 0], [2, 0], [3, 0], [4, 0], 1.0),  # collinear, disjoint
            ([0, 0], [2, 0], [1, -1], [1, 1], 0.0),  # crossing
            ([0, 0], [2, 0], [1, 0], [1, 1], 0.0),  # T junction
            ([0, 0], [2, 0], [2, 0], [3, 5], 0.0),  # shared endpoint
            ([0, 0], [2, 0], [3, 1], [5, 1], np.sqrt(2)),  # corner to corner
        ]
        p1, q1, p2, q2, want = (np.array(c, dtype=float) for c in zip(*cases))
        assert np.allclose(segment_distance(p1, q1, p2, q2), want, rtol=0, atol=1e-15)

    def test_hausdorff_to_segments_is_the_per_point_loop(self):
        rng = np.random.default_rng(11)
        for n_pts, n_segs in [(3, 1), (5, 2)] + [(40, 12)] * 20:
            a, b = rng.uniform(-2.0, 2.0, (2, n_segs, 2))
            b[::3] = a[::3]  # segments of length zero
            pts = rng.uniform(-2.0, 2.0, (n_pts, 2))
            # points on a segment, at an end and at a point segment
            pts[:3] = [0.3 * a[-1] + 0.7 * b[-1], b[-1], a[0]]
            want = max(segment_point_distance(pt, a, b).min() for pt in pts)
            assert abs(hausdorff_to_segments(pts, a, b) - want) <= 1e-12


def clip_segment_to_disk(p, q, center, radius, eps=1e-12):
    """The scalar clip of one segment that clip_segments_to_disk replaced,
    kept as its reference: [t0, t1] of p + t (q - p) inside the closed disk,
    or None when that is empty or a tangency no longer than eps."""
    p, q, c = (np.asarray(x, float) for x in (p, q, center))
    d, f = q - p, p - c
    a = float(d @ d)
    if a < 1e-300:
        return (0.0, 1.0) if float(f @ f) <= radius * radius else None
    b = 2.0 * float(f @ d)
    disc = b * b - 4 * a * (float(f @ f) - radius * radius)
    if disc < 0.0:
        return None
    sq = np.sqrt(disc)
    t0, t1 = max((-b - sq) / (2 * a), 0.0), min((-b + sq) / (2 * a), 1.0)
    return None if t1 - t0 <= eps else (t0, t1)


class TestDiskClip:
    # unit disk about the origin; the chord at height y0 has parameter
    # length 1e-4 on its length-2 segment
    y0 = np.sqrt(1.0 - 1e-8)
    CASES = [
        ([-1.0, 1.0], [1.0, 1.0]),  # tangent: a single point
        ([-0.2, 0.0], [0.3, 0.1]),  # both endpoints inside
        ([-2.0, 0.0], [2.0, 0.0]),  # through the center
        ([0.0, 0.0], [2.0, 0.0]),  # one endpoint inside
        ([0.6, 0.8], [2.0, 0.0]),  # starts on the circle, leaves
        ([2.0, 2.0], [3.0, 1.0]),  # misses
        ([0.1, 0.1], [0.1, 0.1]),  # zero length, inside
        ([2.0, 0.0], [2.0, 0.0]),  # zero length, outside
        ([-1.0, y0], [1.0, y0]),  # a short chord near the top
    ]

    def test_hand_built_cases(self):
        p, q = (np.array(x) for x in zip(*self.CASES))
        t0, t1, keep = clip_segments_to_disk(p, q, [0.0, 0.0], 1.0)
        assert keep.tolist() == [False, True, True, True, False, False, True, False, True]
        want = [(0.0, 1.0), (0.25, 0.75), (0.0, 0.5)]
        assert np.allclose(np.column_stack([t0, t1])[1:4], want, rtol=0, atol=1e-15)
        assert (t0[6], t1[6]) == (0.0, 1.0)
        assert t1[8] - t0[8] == pytest.approx(1e-4, rel=1e-6)
        # the short chord is dropped once eps exceeds its parameter length
        _, _, keep = clip_segments_to_disk(p, q, [0.0, 0.0], 1.0, eps=1e-3)
        assert keep.tolist() == [False, True, True, True, False, False, True, False, False]

    @pytest.mark.parametrize("eps", [1e-12, 1e-3])
    def test_matches_the_scalar_clip(self, eps):
        rng = np.random.default_rng(5)
        p = np.vstack([np.array([c[0] for c in self.CASES]), rng.normal(size=(400, 2))])
        q = np.vstack([np.array([c[1] for c in self.CASES]), p[len(self.CASES):] + 0.4 * rng.normal(size=(400, 2))])
        center, radius = np.array([0.1, -0.2]), 0.9
        t0, t1, keep = clip_segments_to_disk(p, q, center, radius, eps)
        for k in range(len(p)):
            ref = clip_segment_to_disk(p[k], q[k], center, radius, eps)
            assert keep[k] == (ref is not None)
            # the scalar reference takes its dot products from BLAS, whose
            # rounding may differ in the last bits
            if ref is not None:
                assert (t0[k], t1[k]) == pytest.approx(ref, rel=0, abs=1e-12)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf, True])
    def test_radius_must_be_positive_finite(self, radius):
        with pytest.raises(ValueError, match="positive finite"):
            clip_segments_to_disk(np.zeros((1, 2)), np.ones((1, 2)), [0.0, 0.0], radius)


class TestVertexArms:
    def test_arms_come_clockwise_ties_in_order_of_appearance(self):
        # the arms at vertex 0 appear at angles pi/2, -pi/2 (an edge end),
        # 0, pi and 0 again
        V = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 0.0]]
        edges = [
            Edge([0, 2], 1, 2),
            Edge([4, 0], 2, 3),
            Edge([0, 1], 3, 1),
            Edge([0, 3], 1, 2),
            Edge([0, 5], 2, 1),
        ]
        arms = vertex_arms(Cluster(V, edges, 3))[0]
        assert [a["edge"] for a in arms] == [3, 0, 2, 4, 1]
        assert [a["angle"] for a in arms] == [np.pi, np.pi / 2, 0.0, 0.0, -np.pi / 2]
        end = arms[-1]
        assert (end["forward"], end["left"], end["right"]) == (False, 3, 2)
        assert end["chord"].tolist() == [0.0, -1.0]


def end_degrees(cl):
    """How many edge ends lie at each vertex of cl."""
    ends = [v for e in cl.edges for v in (e.vertices[0], e.vertices[-1])]
    return np.bincount(ends, minlength=len(cl.vertices))


class TestResample:
    def test_perimeter_never_increases(self):
        d = Density.constant(EuclideanGauge())
        cl = double_bubble_cluster(n_arc=40, n_mid=12)
        for target in (0.05, 0.15, 0.5):
            rs = resample_cluster(cl, target)
            assert weighted_perimeter(rs, d) <= weighted_perimeter(cl, d) + 1e-12

    def test_junction_positions_and_labels_survive(self):
        cl = double_bubble_cluster(n_arc=24, n_mid=8)
        deg = end_degrees(cl)
        junctions = np.sort(cl.vertices[deg >= 3], axis=0)
        rs = resample_cluster(cl, 0.08)
        deg2 = end_degrees(rs)
        junctions2 = np.sort(rs.vertices[deg2 >= 3], axis=0)
        assert np.allclose(junctions, junctions2)
        assert [(e.left, e.right) for e in rs.edges] == [
            (e.left, e.right) for e in cl.edges
        ]
        assert validate(rs) == []

    def test_wall_edges_verbatim(self):
        cl = square_cross_cluster(n_sub=6)
        for e in cl.edges:
            if 0 in (e.left, e.right):
                e.tags["wall"] = True
        rs = resample_cluster(cl, 10.0)
        for e0, e1 in zip(cl.edges, rs.edges):
            if e0.tags.get("wall"):
                assert np.allclose(
                    cl.vertices[np.asarray(e0.vertices)],
                    rs.vertices[np.asarray(e1.vertices)],
                )

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, True])
    def test_target_len_must_be_positive_finite(self, bad):
        with pytest.raises(ValueError, match="target_len must be a positive finite number"):
            resample_cluster(regular_polygon_chamber(16), bad)

    def test_segment_count_tracks_target(self):
        cl = regular_polygon_chamber(16, area=np.pi)
        rs = resample_cluster(cl, 0.05)
        i0, _, _, _, _ = rs.segment_index_arrays()
        # circumference about 2 pi, so about 125 segments
        assert 100 <= len(i0) <= 150


class TestIsoperimetricBound:
    def test_disk_satisfies_bound(self):
        d = Density.constant(EuclideanGauge())
        ok, slack = isoperimetric_check(unit_disk_polygon(), d, c_vol=np.pi, eta=2.0)
        assert ok
        # rhs = (1 / sqrt(pi)) * sqrt(pi) = 1 for the unit disk
        assert slack == pytest.approx(2 * np.pi - 1.0, rel=1e-3)

    def test_slack_scales_linearly(self):
        d = Density.constant(EllipseGauge([[2.0, 0.3], [0.3, 1.0]]))
        poly = unit_disk_polygon(256)
        _, s1 = isoperimetric_check(poly, d, c_vol=4.0, eta=2.0)
        _, s2 = isoperimetric_check(3.0 * poly, d, c_vol=4.0, eta=2.0)
        assert s2 == pytest.approx(3.0 * s1, rel=1e-9)

    def test_clockwise_polygon_is_rejected(self):
        d = Density.constant(EuclideanGauge())
        square_cw = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        assert isoperimetric_check(square_cw[::-1], d, c_vol=4.0, eta=2.0)[0]
        with pytest.raises(ValueError, match="not counterclockwise"):
            isoperimetric_check(square_cw, d, c_vol=4.0, eta=2.0)

    def test_growth_fit_recovers_euclidean_ball_law(self):
        d = Density.constant(EuclideanGauge(), domain=Rect(-2, 2, -2, 2))
        c_vol, eta = growth_estimate(
            d, [0.1, 0.2, 0.4], rng=np.random.default_rng(11)
        )
        assert eta == pytest.approx(2.0, abs=0.05)
        assert c_vol == pytest.approx(np.pi, rel=0.05)

    def test_growth_fit_needs_three_radii(self):
        d = Density.constant(EuclideanGauge(), domain=Rect(-2, 2, -2, 2))
        with pytest.raises(ValueError):
            growth_estimate(d, [0.1, 0.2])


class TestConstructorErrors:
    def test_overflowing_gauge_bounds_are_rejected(self):
        # the Euclidean gauge through e^{|x|^2} times the identity, capped at
        # e^700 to keep the map finite, overflows when squared on the
        # default +-1e6 box: both probed bounds come out inf
        def field(x):
            return LinearGauge(EuclideanGauge(), np.exp(min(np.dot(x, x), 700.0)) * np.eye(2))

        with np.errstate(over="ignore"):
            assert field(np.array([1e6, 0.0])).value(np.array([1.0, 0.0])) == np.inf
            with pytest.raises(ValueError, match="not finite.*pass"):
                Density(field, g=lambda p: np.exp((p * p).sum(axis=-1)))
            # the caller's bounds are taken as they are
            d = Density(field, g=lambda p: np.exp((p * p).sum(axis=-1)), h_min=1.0, h_max=np.e)
        assert (d.h_min, d.h_max) == (1.0, np.e)
        with pytest.raises(ValueError, match="not finite"):
            Density(EuclideanGauge(), h_min=1.0, h_max=np.inf)

    def test_constant_g_is_a_positive_finite_real(self):
        for g in (2, 2.0, np.int64(2), np.float32(2)):
            assert Density(EuclideanGauge(), g=g).g_const == 2.0
        for g in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive finite"):
                Density(EuclideanGauge(), g=g)
        for g in (True, np.bool_(True), "2"):
            with pytest.raises(ValueError, match="callable"):
                Density(EuclideanGauge(), g=g)

    def test_disk_domain_radius_is_a_positive_finite_real(self):
        for radius in (0.0, -1.0, np.inf, np.nan, True):
            with pytest.raises(ValueError, match="radius must be a positive finite number"):
                DiskDomain([0.0, 0.0], radius)

    def test_scale_factor_is_a_positive_finite_real(self):
        d = Density(EuclideanGauge())
        for factor in (0.0, -2.0, np.inf, np.nan, True):
            with pytest.raises(ValueError, match="factor must be a positive finite number"):
                d.scaled(factor)

    def test_bad_vertex_shape(self):
        with pytest.raises(ValueError):
            Cluster(np.zeros((4, 3)), [], 1)

    def test_empty_cluster_is_fine(self):
        cl = Cluster(np.zeros((0, 2)), [], 0)
        d = Density.constant(EuclideanGauge())
        assert weighted_perimeter(cl, d) == 0.0
        assert weighted_volume(cl, d).shape == (0,)
