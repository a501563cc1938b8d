import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisoclusters as ac
from anisoclusters.gauge import _circle_gauge_value
from anisoclusters.geometry import rotate_ccw, unit_dir

from conftest import all_gauge_list, odd_profile_gauge, tabulated_ellipse

# magnitudes from 1e-6 to 1e3, or exactly 0: squares of coordinates far
# below that underflow, and no gauge formula is meant for them
coord = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
vectors = st.tuples(coord, coord).map(np.array)
EVERY_KIND = all_gauge_list()


def _point_symmetric_profile(n=64):
    """A tabulated profile whose second half of knots repeats the first bit
    for bit."""
    half = 1.0 + 0.1 * np.cos(2.0 * np.arange(n // 2) * (2.0 * np.pi / n))
    return ac.TabulatedGauge(np.tile(half, 2))


ROTATION = 0.3
SHEAR = [[1.2, 0.4], [-0.1, 0.8]]
# a shear of an asymmetric base: no scenario kind, so not in all_gauge_list
SHEARED_DISK = ac.LinearGauge(ac.ShiftedDiskGauge((0.2, -0.1)), SHEAR)
SYMMETRIC_KINDS = [g for g in EVERY_KIND if g.symmetric] + [
    ac.LpGauge(1.5),
    ac.LpGauge(3.0),
    ac.ShiftedDiskGauge(np.zeros(2), 1.3),
    ac.RotatedGauge(ac.EllipseGauge([[2.0, 0.3], [0.3, 1.0]]), ROTATION),
    ac.RotatedGauge(ac.LpGauge(1.0), ROTATION),
    ac.Density(ac.SmoothedL1Gauge(0.35)).scaled(1.7).gauge_at(None),
    ac.LinearGauge(ac.LpGauge(np.inf), SHEAR),
    _point_symmetric_profile(),
]
# axis and diagonal directions: the corners of the max norm, l^1 and
# smoothed l^1 balls, and of the rotated l^1 ball
SPECIAL_DIRECTIONS = np.vstack(
    [
        unit_dir(np.arange(8) * (np.pi / 4.0)),
        [[1.0, 1.0], [-1.0, 1.0], [1.0, 0.0], [0.0, -1.0]],
        unit_dir(ROTATION + np.arange(8) * (np.pi / 4.0)),
    ]
)
special_vectors = st.tuples(
    st.sampled_from(range(len(SPECIAL_DIRECTIONS))), st.floats(1e-6, 1e3)
).map(lambda ks: ks[1] * SPECIAL_DIRECTIONS[ks[0]])


def test_symmetric_flags():
    # every kind the symmetric property runs on sets the flag, one per
    # conftest kind that is point symmetric by construction
    assert {g.kind for g in EVERY_KIND if g.symmetric} == {"euclidean", "ellipse", "lp", "smoothed-l1"}
    assert all(g.symmetric for g in SYMMETRIC_KINDS)
    assert not ac.ShiftedDiskGauge(np.array([0.0, -0.3])).symmetric
    assert not SHEARED_DISK.symmetric
    assert not odd_profile_gauge().symmetric


@settings(max_examples=300, deadline=None)
@given(st.one_of(vectors, special_vectors))
def test_symmetric_gauges_are_even_bit_for_bit(v):
    # cluster.segment_weights prices one side of a segment under a
    # symmetric gauge and takes it for both: value(-v) must equal value(v)
    # exactly, and grad(-v) must equal -grad(v)
    for gauge in SYMMETRIC_KINDS:
        assert float(gauge.value(-v)) == float(gauge.value(v)), (gauge, v)
        assert np.array_equal(gauge.grad(-v), -gauge.grad(v)), (gauge, v)


def test_symmetric_gauges_are_even_on_direction_grids(rng):
    # batches, as segment_weights prices them: random vectors and the
    # direction grids that probes and tests sample, whose corner directions
    # come out of unit_dir a few ulps off the diagonals
    v = np.vstack(
        [rng.normal(0.0, 1.0, (20_000, 2))]
        + [unit_dir(np.arange(n) * (2.0 * np.pi / n)) for n in (8, 64, 256, 720)]
    )
    for gauge in SYMMETRIC_KINDS:
        assert np.array_equal(gauge.value(-v), gauge.value(v)), gauge
        assert np.array_equal(gauge.grad(-v), -gauge.grad(v)), gauge


def test_positive_homogeneity(all_gauges, rng):
    v = rng.normal(0.0, 1.0, (200, 2))
    t = rng.uniform(0.1, 5.0, 200)
    for g in all_gauges:
        np.testing.assert_allclose(g.value(t[:, None] * v), t * g.value(v), rtol=1e-12)


def test_positivity_and_convexity(all_gauges, rng):
    u = rng.normal(0.0, 1.0, (300, 2))
    w = rng.normal(0.0, 1.0, (300, 2))
    for g in all_gauges:
        assert g.value(u).min() > 0.0
        # subadditivity is convexity plus 1-homogeneity
        assert np.all(g.value(u + w) <= g.value(u) + g.value(w) + 1e-12)


@settings(max_examples=200, deadline=None)
@given(vectors, st.floats(1e-3, 1e3))
def test_homogeneity_property(v, s):
    for gauge in EVERY_KIND:
        expected = s * float(gauge.value(v))
        assert abs(float(gauge.value(s * v)) - expected) <= 1e-12 * expected, gauge


@settings(max_examples=200, deadline=None)
@given(vectors, vectors)
def test_subadditivity_property(u, v):
    for gauge in EVERY_KIND:
        hu, hv = float(gauge.value(u)), float(gauge.value(v))
        assert float(gauge.value(u + v)) <= hu + hv + 1e-12 * (hu + hv), gauge


def test_single_vectors_round_like_batches(all_gauges, rng):
    v = rng.normal(0.0, 1.0, (500, 2))
    rotated = ac.RotatedGauge(ac.EllipseGauge([[2.0, 0.3], [0.3, 1.0]]), 0.3)
    for g in all_gauges + [ac.LpGauge(3.0), rotated, SHEARED_DISK]:
        assert np.array_equal(np.array([g.value(x) for x in v]), g.value(v)), g
        assert np.array_equal(np.array([g.grad(x) for x in v]), g.grad(v)), g


def test_tabulated_spline_rounds_single_angles_like_batches():
    # a single vector reaches _spline with numpy scalars, a batch with
    # arrays; a scalar's ** cube differs from the array's in the last bit
    # for about one angle in twenty, but few spline values keep the
    # difference (2 of these 20,000 for the odd profile), so 500 vectors
    # rarely show it
    theta = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 20_000)
    for g in (tabulated_ellipse(), odd_profile_gauge()):
        val, der = g._spline(theta)
        single = np.array([g._spline(t) for t in theta])
        assert np.array_equal(single[:, 0], val) and np.array_equal(single[:, 1], der)


def _lp_value_reference(p, v):
    """LpGauge.value as an errstate block and a where, with the exponent
    tested on every call: the formula the gauge must reproduce bit for bit."""
    v = np.abs(np.asarray(v, dtype=float))
    if np.isinf(p):
        return v.max(axis=-1)
    m = v.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = v / m[..., None]
    r = np.where(m[..., None] > 0, r, 0.0)
    rp = r**p
    return m * np.power(rp[..., 0] + rp[..., 1], 1.0 / p)


def _lp_grad_reference(p, v):
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    s = np.sign(v)
    if np.isinf(p):
        is_max = a >= a.max(axis=-1)[..., None] - 0.0
        tie = a[..., 0] == a[..., 1]
        g = np.where(is_max, s, 0.0)
        return np.where(tie[..., None], 0.5 * g, g)
    if p == 1.0:
        return s
    val = _lp_value_reference(p, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = a / val[..., None]
    r = np.where(val[..., None] > 0, r, 0.0)
    return r ** (p - 1.0) * s


LP_EXPONENTS = (1.0, 1.5, 3.0, 8.0, 128.0, np.inf)
# the origin and the axis directions, where the ratio to the largest
# coordinate is 0/0 or has a zero entry
LP_EDGE_VECTORS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 2.5e-3]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(vectors, special_vectors), min_size=1, max_size=6))
def test_lp_gauge_matches_its_reference_formula_bit_for_bit(vs):
    batch = np.vstack(vs + list(LP_EDGE_VECTORS))
    for p in LP_EXPONENTS:
        gauge = ac.LpGauge(p)
        assert np.array_equal(gauge.value(batch), _lp_value_reference(p, batch)), p
        assert np.array_equal(gauge.grad(batch), _lp_grad_reference(p, batch)), p
        for v in batch:
            assert gauge.value(v) == _lp_value_reference(p, v), (p, v)
            assert np.array_equal(gauge.grad(v), _lp_grad_reference(p, v)), (p, v)


# axes, corners |x| == |y|, signed zeros and entries whose squares underflow
GAUGE_EDGE_VECTORS = np.array([
    [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0],
    [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [2.5, -2.5], [-0.0, 3.0], [3.0, -0.0],
    [1e-200, 1e-200], [-1e-200, 3e-200], [1e-200, 0.0], [0.0, -1e-200], [1e-320, 0.0],
])


def _edge_panel(rng):
    scale = rng.choice([1e-200, 1e-5, 1.0, 1e5], size=(20000, 1))
    return np.vstack([rng.normal(size=(20000, 2)) * scale, GAUGE_EDGE_VECTORS, rng.integers(-3, 4, (200, 2))])


@pytest.mark.parametrize("kappa", [0.1, 0.35, 0.7])
def test_smoothed_l1_value_matches_the_gathered_centres_bit_for_bit(kappa, rng):
    # the arc centre of each vector's sector, gathered and priced by the
    # shared circle formula: the reference the gauge's value must reproduce
    gauge = ac.SmoothedL1Gauge(kappa)
    v = _edge_panel(rng)
    expect = _circle_gauge_value(v, gauge.centers[gauge._sector(v)], gauge.arc_radius)
    assert gauge.value(v).tobytes() == expect.tobytes()
    for row, h in zip(v[-len(GAUGE_EDGE_VECTORS) - 200 :], expect[-len(GAUGE_EDGE_VECTORS) - 200 :]):
        assert gauge.value(row).tobytes() == h.tobytes(), row


def _lp_grad_nested(gauge, v):
    """LpGauge.grad for 1 < p < inf as it read with a nested value call:
    the reference of the gradient that computes the norm from |v| once."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    val = gauge.value(v)
    r = np.divide(a, val[..., None], out=np.zeros_like(a), where=val[..., None] > 0)
    return r ** (gauge.p - 1.0) * np.sign(v)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0, 8.0, 128.0])
def test_lp_gradient_takes_no_value_call(p, rng, monkeypatch):
    gauge = ac.LpGauge(p)
    v = _edge_panel(rng)
    singles = v[-len(GAUGE_EDGE_VECTORS) - 200 :]
    expect = _lp_grad_nested(gauge, v)
    expect_singles = [_lp_grad_nested(gauge, row) for row in singles]

    def no_value(self, v):
        raise AssertionError("grad called value")

    monkeypatch.setattr(ac.LpGauge, "value", no_value)
    assert gauge.grad(v).tobytes() == expect.tobytes()
    for row, g in zip(singles, expect_singles):
        assert gauge.grad(row).tobytes() == g.tobytes(), row


def test_euclidean_gradient_matches_the_linalg_norm_bit_for_bit(rng):
    v = _edge_panel(rng)
    n = np.linalg.norm(v, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expect = np.where(n[..., None] > 0, v / n[..., None], 0.0)
    gauge = ac.EuclideanGauge()
    assert gauge.value(v).tobytes() == n.tobytes()
    assert gauge.grad(v).tobytes() == expect.tobytes()
    for row, g in zip(v[-len(GAUGE_EDGE_VECTORS) - 200 :], expect[-len(GAUGE_EDGE_VECTORS) - 200 :]):
        assert gauge.grad(row).tobytes() == g.tobytes(), row


def test_euler_identity_all_gauges(all_gauges, rng):
    # any (sub)gradient of a 1-homogeneous convex function satisfies grad.v = value;
    # the exact diagonal directions are the corners of the kinked balls
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    v = np.vstack([rng.normal(0.0, 1.0, (500, 2)), corners])
    for g in all_gauges:
        np.testing.assert_allclose((g.grad(v) * v).sum(axis=1), g.value(v), rtol=1e-9, atol=1e-12)


def test_gradient_matches_central_differences(smooth_gauges, rng):
    h = 1e-6
    for g in smooth_gauges:
        v = rng.normal(0.0, 1.0, (1000, 2))
        v = v[np.linalg.norm(v, axis=1) > 1e-2]
        grad = g.grad(v)
        fd = np.empty_like(grad)
        for d in range(2):
            dv = np.zeros(2)
            dv[d] = h
            fd[:, d] = (g.value(v + dv) - g.value(v - dv)) / (2.0 * h)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-6, type(g).__name__


def test_boundary_gradient_identity(smooth_gauges, rng):
    # on the unit ball boundary, grad(P) = nu / (P . nu) with nu the outward
    # euclidean normal; the oracle normal comes from differencing the curve
    dth = 1e-5
    for g in smooth_gauges:
        theta = rng.uniform(0.0, 2.0 * np.pi, 200)
        P = g.boundary_point(theta)
        tang = g.boundary_point(theta + dth) - g.boundary_point(theta - dth)
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)
        nu = np.column_stack([tang[:, 1], -tang[:, 0]])
        pred = nu / (P * nu).sum(axis=1, keepdims=True)
        assert np.abs(g.grad(P) - pred).max() < 1e-6, type(g).__name__


def test_max_norm_values():
    g = ac.LpGauge(np.inf)
    assert g.value(np.array([3.0, -4.0])) == 4.0
    assert g.value(np.array([[1.0, 1.0], [-2.0, 0.5]])).tolist() == [1.0, 2.0]


def test_shifted_disk_oracle(rng):
    # Minkowski functional of disk(c, r): the positive root of
    # |v - t c|^2 = (t r)^2 in 1/t, solved directly here as the oracle
    c = np.array([0.2, -0.35])
    r = 1.0
    g = ac.ShiftedDiskGauge(c, r)
    v = rng.normal(0.0, 1.0, (300, 2))
    vc = v @ c
    vv = (v * v).sum(axis=1)
    disc = vc * vc + (r * r - c @ c) * vv
    t = (-vc + np.sqrt(disc)) / (r * r - c @ c)
    np.testing.assert_allclose(g.value(v), t, rtol=1e-12)


def test_tabulated_matches_euclidean(rng):
    g = ac.TabulatedGauge(np.ones(64))
    v = rng.normal(0.0, 1.0, (200, 2))
    np.testing.assert_allclose(g.value(v), np.linalg.norm(v, axis=1), rtol=1e-9)


@pytest.mark.parametrize("n", [8, 64, 720])
def test_tabulated_matches_periodic_cubic_spline(n, rng):
    interpolate = pytest.importorskip("scipy.interpolate")
    knots = np.arange(n) * (2.0 * np.pi / n)
    values = ac.EllipseGauge([[1.6, 0.25], [0.25, 1.0]]).value(unit_dir(knots))
    g = ac.TabulatedGauge(values)
    ref = interpolate.CubicSpline(
        np.linspace(0.0, 2.0 * np.pi, n + 1), np.append(values, values[0]), bc_type="periodic"
    )
    theta = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 2000), knots])
    u = unit_dir(theta)
    # on the unit circle value is the profile and grad . rotate_ccw(u) its derivative
    np.testing.assert_allclose(g.value(u), ref(theta), rtol=0.0, atol=1e-12)
    dprofile = (g.grad(u) * rotate_ccw(u)).sum(axis=1)
    np.testing.assert_allclose(dprofile, ref(theta, 1), rtol=0.0, atol=1e-12)


def test_tabulated_symmetric_flag_is_exact(rng):
    n = 64
    theta = np.arange(n) * (2.0 * np.pi / n)
    u = unit_dir(np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 2000), theta]))
    # the second half of the knots repeats the first bit for bit; computing
    # cos(2 theta) on the full grid would differ from it by rounding
    half = 1.0 + 0.1 * np.cos(2.0 * theta[: n // 2])
    sym = ac.TabulatedGauge(np.tile(half, 2))
    assert sym.symmetric
    assert sym.value(u).tolist() == sym.value(-u).tolist()
    assert sym.grad(u).tolist() == (-sym.grad(-u)).tolist()
    # a profile that is point-symmetric only to 1e-6 is not symmetric
    near = ac.TabulatedGauge(1.0 + 0.1 * np.cos(2.0 * theta) + 1e-6 * np.sin(theta))
    assert not near.symmetric
    assert np.abs(near.value(u) - near.value(-u)).max() > 1e-7


def test_unit_ball_boundary_on_level_set(all_gauges):
    for g in all_gauges:
        pts = ac.unit_ball_boundary(g, n=128)
        np.testing.assert_allclose(g.value(pts), 1.0, rtol=1e-9, atol=1e-12)


def test_strict_convexity_margin():
    assert ac.strict_convexity_margin(ac.EuclideanGauge()) > 1e-3
    assert ac.strict_convexity_margin(ac.EllipseGauge([[2.0, 0.0], [0.0, 1.0]])) > 1e-3
    assert ac.strict_convexity_margin(ac.LpGauge(np.inf)) < 1e-9
    assert ac.strict_convexity_margin(ac.LpGauge(1.0)) < 1e-9


def test_roundedness_constant_positive():
    assert ac.roundedness_constant(ac.EuclideanGauge()) > 0.2
    assert ac.roundedness_constant(ac.SmoothedL1Gauge(0.35)) > 0.0


def test_spec_round_trip(all_gauges, rng):
    v = rng.normal(0.0, 1.0, (64, 2))
    for g in all_gauges:
        g2 = ac.gauge_from_spec(g.spec())
        np.testing.assert_allclose(g2.value(v), g.value(v), rtol=1e-12)


def test_gauge_from_spec_rejections():
    with pytest.raises(ValueError):
        ac.gauge_from_spec({"kind": "nope"})
    with pytest.raises(ValueError):
        ac.gauge_from_spec({"kind": "lp"})
    with pytest.raises(ValueError):
        ac.gauge_from_spec({"kind": "lp", "p": 2, "extra": 1})
    with pytest.raises(ValueError):
        ac.gauge_from_spec({"kind": "shifted-disk", "center": [0.0, 2.0], "radius": 1.0})


def test_constructors_reject_bools_and_unbounded_radii():
    # True is an int to Python, but no l^p exponent; an infinite radius
    # would price every direction as NaN
    for p in (True, np.True_):
        with pytest.raises(ValueError, match="p must be >= 1"):
            ac.LpGauge(p)
    for radius in (np.inf, np.nan, 0.0, True):
        with pytest.raises(ValueError, match="radius must be a positive finite number"):
            ac.ShiftedDiskGauge((0.2, -0.1), radius)


def test_tabulated_rejects_nonconvex_profile():
    values = 1.0 + 0.3 * np.abs(np.sin(np.arange(64) * 2.0 * np.pi / 64 * 2))
    with pytest.raises(ValueError):
        ac.TabulatedGauge(values)


def test_rotated_gauge_equivariance(rng):
    base = ac.EllipseGauge([[2.0, 0.3], [0.3, 1.0]])
    phi = 0.7
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    g = ac.RotatedGauge(base, phi)
    v = rng.normal(0.0, 1.0, (100, 2))
    np.testing.assert_allclose(g.value(v @ R.T), base.value(v), rtol=1e-12)


def test_linear_gauge_is_its_base_through_the_map(rng):
    # value h(M v) and gradient M^T grad h(M v), against matrix products
    m = np.array(SHEAR)
    base = SHEARED_DISK.base
    v = np.vstack([rng.normal(0.0, 1.0, (500, 2)), np.zeros((1, 2))])
    np.testing.assert_allclose(SHEARED_DISK.value(v), base.value(v @ m.T), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(SHEARED_DISK.grad(v), base.grad(v @ m.T) @ m, rtol=1e-13, atol=1e-15)
    assert SHEARED_DISK.smooth
    for bad in ([[1.0, 2.0], [0.5, 1.0]], [[1.0, np.inf], [0.0, 1.0]], np.eye(3)):
        with pytest.raises(ValueError):
            ac.LinearGauge(ac.EuclideanGauge(), bad)


def test_ellipse_is_the_euclidean_gauge_through_the_root_of_q(rng):
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = ac.EllipseGauge(q)
    assert isinstance(g.base, ac.EuclideanGauge)
    np.testing.assert_allclose(g.matrix @ g.matrix, q, rtol=0.0, atol=1e-15)
    assert g.spec() == {"kind": "ellipse", "matrix": q.tolist()}
    v = rng.normal(0.0, 1.0, (500, 2))
    qv = v @ q
    np.testing.assert_allclose(g.value(v), np.sqrt((v * qv).sum(axis=1)), rtol=1e-14)
    np.testing.assert_allclose(g.grad(v), qv / g.value(v)[:, None], rtol=1e-13)
    # a diagonal Q has the exact root of its entries
    assert np.array_equal(ac.EllipseGauge(np.diag([4.0, 0.25])).matrix, np.diag([2.0, 0.5]))


def test_rotated_and_scaled_max_norms_keep_the_ladder(rng):
    # each stage of the continuation is the base's stage through the same map
    v = rng.normal(0.0, 1.0, (200, 2))
    rotated = ac.RotatedGauge(ac.LpGauge(np.inf), ROTATION)
    scaled = ac.Density(ac.LpGauge(np.inf)).scaled(1.7).gauge_at(None)
    for g in (rotated, scaled):
        ladder = g.continuation()
        assert [s.base.p for s in ladder] == [8.0, 32.0, 128.0]
        for stage in ladder:
            assert isinstance(stage, ac.LinearGauge) and stage.smooth
            assert np.array_equal(stage.matrix, g.matrix)
            expect = ac.LpGauge(stage.base.p).value(v @ g.matrix.T)
            np.testing.assert_allclose(stage.value(v), expect, rtol=1e-14)
    assert ac.EllipseGauge([[2.0, 0.3], [0.3, 1.0]]).continuation() == ()
