"""Acceptance gate: twelve numbered end-to-end checks with pinned tolerances.

Each criterion is one test so `pytest -v` prints one pass/fail line per
criterion. Wall-clock budgets are asserted inside every test. The three
heavy solves are cached at module scope; criterion 10 reuses them and its
timer starts after the cached solutions are retrieved. Criterion 11 takes
criterion 06's solve as its finest mesh.
"""

import time

import numpy as np
import pytest

import anisoclusters as ac
from anisoclusters import Density
from anisoclusters.geometry import hausdorff_to_segments, polygon_area, rotate_cw, unit_dir
from anisoclusters.gauge import unit_ball_boundary

from conftest import random_slice_config, star_polygon, tabulated_ellipse

EUCLID = ac.EuclideanGauge()
ELLIPSE = ac.EllipseGauge([[2.0, 0.3], [0.3, 1.0]])
SMOOTHED = ac.SmoothedL1Gauge(0.35)
MAXNORM = ac.LpGauge(np.inf)
SHIFTED = ac.ShiftedDiskGauge(np.array([0.2, -0.1]))

_SOLVES = {}


def solved_cross():
    if "cross" not in _SOLVES:
        cl = ac.square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(7))
        prob = ac.OptimizationProblem(
            cl,
            Density.constant(MAXNORM),
            np.ones(4),
            ac.SolveOptions(max_outer=60),
        )
        _SOLVES["cross"] = ac.minimize(prob)
    return _SOLVES["cross"]


def solved_disk():
    if "disk" not in _SOLVES:
        prob = ac.OptimizationProblem(
            ac.regular_polygon_chamber(256, area=np.pi),
            Density.constant(EUCLID),
            [np.pi],
        )
        _SOLVES["disk"] = ac.minimize(prob)
    return _SOLVES["disk"]


def solved_bubble():
    if "bubble" not in _SOLVES:
        prob = ac.OptimizationProblem(
            ac.double_bubble_cluster(n_arc=96, n_mid=32),
            Density.constant(EUCLID),
            [1.0, 1.0],
            ac.SolveOptions(max_outer=30),
        )
        _SOLVES["bubble"] = ac.minimize(prob)
    return _SOLVES["bubble"]


def test_criterion_01_euclidean_admissible_pair():
    t0 = time.perf_counter()
    pairs = ac.admissible_pairs(EUCLID, np.array([0.0, 1.0]), resolution=720)
    elapsed = time.perf_counter() - t0
    assert len(pairs) == 1, f"expected exactly one pair, got {len(pairs)}"
    t = pairs[0]
    assert abs(np.degrees(t.angle_b) - 120.0) <= 0.01
    assert abs(np.degrees(t.angle_c) - 120.0) <= 0.01
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"


def _lp_grad(v, p):
    # analytic gradient of ||.||_p, written out independently of the gauges
    v = np.asarray(v, dtype=float)
    n = np.sum(np.abs(v) ** p) ** (1.0 / p)
    return np.sign(v) * (np.abs(v) / n) ** (p - 1.0)


def _lp_law_points(p, y):
    # the reference A = (0, 1) and the symmetric unit-ball partners (+-x, y)
    x = (1.0 - abs(y) ** p) ** (1.0 / p)
    return np.array([0.0, 1.0]), np.array([x, y]), np.array([-x, y])


def test_criterion_02_lp_pair_angle_law():
    # required law: tan(alpha) = -(2**q - 1)**(1/p), q = p/(p-1), for the
    # angle between the reference direction and either admissible partner.
    # Derivation: an admissible pair is a pair of unit-ball points whose
    # gauge gradients balance that of A = (0, 1), grad h(A) = (0, 1). For
    # h = ||.||_p, grad h(v) = sign(v) |v|^(p-1) on the unit ball, so the
    # symmetric partners (+-x, y) balance the y-components when
    # 2 |y|^(p-1) = 1, i.e. |y| = 2**(-1/(p-1)), and lie on the ball when
    # x**p = 1 - |y|**p = 1 - 2**(-q). Then tan(alpha) = x / y
    # = -(2**q - 1)**(1/p).
    failures = []
    for p in (1.5, 2.0, 3.0, 5.0):
        t0 = time.perf_counter()
        pairs = ac.admissible_pairs(ac.LpGauge(p), np.array([0.0, 1.0]), resolution=720)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"p={p} took {elapsed:.2f}s (budget 5s per exponent)"
        assert len(pairs) == 1, f"p={p}: expected one pair, got {len(pairs)}"
        q = p / (p - 1.0)
        alpha_req = np.pi - np.arctan((2.0**q - 1.0) ** (1.0 / p))
        for name in ("angle_b", "angle_c"):
            got = getattr(pairs[0], name)
            if abs(got - alpha_req) > 1e-3:
                failures.append(
                    f"p={p}: computed {name}={np.degrees(got):.4f} deg, "
                    f"required {np.degrees(alpha_req):.4f} deg "
                    f"(|diff|={abs(got - alpha_req):.4e} rad)"
                )
    if failures:
        pytest.fail("angle law violated:\n" + "\n".join(failures))


def test_criterion_02_conjugate_exponent_form():
    # The gradient balance grad(A) + grad(B) + grad(C) = 0 gives the q-law
    # tan(alpha) = -(2**q - 1)**(1/p); three unit-ball points with
    # A + B + C = 0 give the p-law tan(alpha) = -(2**p - 1)**(1/p) instead
    # (the angle between Cahn-Hoffman vectors of a stationary l^q triple).
    # The two coincide only at p = 2, and the scan follows the q-law.
    for p in (1.5, 2.0, 3.0, 5.0):
        q = p / (p - 1.0)
        alpha = np.pi - np.arctan((2.0**q - 1.0) ** (1.0 / p))
        pairs = ac.admissible_pairs(ac.LpGauge(p), np.array([0.0, 1.0]), resolution=720)
        assert len(pairs) == 1
        assert abs(pairs[0].angle_b - alpha) <= 1e-3, f"p={p}"
        assert abs(pairs[0].angle_c - alpha) <= 1e-3, f"p={p}"

        # q-law points: |y| = 2**(-1/(p-1)); their gradients balance
        a, b, c = _lp_law_points(p, -(2.0 ** (-1.0 / (p - 1.0))))
        assert abs(np.arctan2(b[0], b[1]) - alpha) <= 1e-12, f"p={p}"
        res_q = np.linalg.norm(_lp_grad(a, p) + _lp_grad(b, p) + _lp_grad(c, p))
        assert res_q <= 1e-12, f"p={p}: q-law gradient residual {res_q:.3e}"

        # p-law points: y = -1/2; the points themselves sum to zero
        a, b, c = _lp_law_points(p, -0.5)
        alpha_p = np.pi - np.arctan((2.0**p - 1.0) ** (1.0 / p))
        assert abs(np.arctan2(b[0], b[1]) - alpha_p) <= 1e-12, f"p={p}"
        assert np.linalg.norm(a + b + c) <= 1e-12, f"p={p}"
        res_p = np.linalg.norm(_lp_grad(a, p) + _lp_grad(b, p) + _lp_grad(c, p))
        if p == 2.0:
            assert res_p <= 1e-12, f"p=2: p-law gradient residual {res_p:.3e}"
        else:
            assert res_p >= 0.4, f"p={p}: p-law gradient residual {res_p:.3e}"


def test_criterion_03_shifted_disk_has_no_pairs():
    t0 = time.perf_counter()
    pairs = ac.admissible_pairs(
        ac.ShiftedDiskGauge((0.0, -0.5), 1.0), np.array([0.0, 0.5]), resolution=720
    )
    elapsed = time.perf_counter() - t0
    assert pairs == [], f"expected no admissible pairs, got {len(pairs)}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"


def test_criterion_04_max_norm_cross():
    t0 = time.perf_counter()
    density = Density.constant(MAXNORM)
    exact = ac.square_cross_cluster(n_sub=8)
    P_exact = ac.interface_perimeter(exact, density)
    assert abs(P_exact - 4.0) <= 1e-9, f"exact cross in-square perimeter {P_exact!r}"

    rep = solved_cross()
    assert rep.success, f"solve failed with flags {rep.flags}"
    P_solved = ac.interface_perimeter(rep.cluster, density)
    assert P_solved <= 4.01, f"solved in-square perimeter {P_solved}"

    ids = sorted(
        {v for e in rep.cluster.edges if not e.tags.get("wall") for v in e.vertices}
    )
    pts = rep.cluster.vertices[ids]
    seg_a = np.array([[-1.0, -1.0], [-1.0, 1.0]])
    seg_b = np.array([[1.0, 1.0], [1.0, -1.0]])
    hd = hausdorff_to_segments(pts, seg_a, seg_b)
    assert hd <= 0.05, f"interface strays {hd:.4f} from the diagonals"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"


def test_criterion_05_single_chamber_round_optimum():
    t0 = time.perf_counter()
    rep = solved_disk()
    assert rep.success, f"solve failed with flags {rep.flags}"
    rel = abs(rep.perimeter - 2.0 * np.pi) / (2.0 * np.pi)
    assert rel <= 0.01, f"perimeter {rep.perimeter} is {100 * rel:.2f}% from 2 pi"
    assert rep.junctions == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"


def test_criterion_06_double_bubble_junctions():
    t0 = time.perf_counter()
    rep = solved_bubble()
    assert rep.success, f"solve failed with flags {rep.flags}"
    assert len(rep.junctions) == 2, f"expected 2 junctions, got {len(rep.junctions)}"
    for j in rep.junctions:
        for a in j["angles_deg"]:
            assert abs(a - 120.0) <= 0.5, f"junction angle {a:.3f} deg"
        assert j["residual_norm"] < 1e-3, f"residual norm {j['residual_norm']:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"


def test_criterion_07_slice_competitors_improve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    gauges = [EUCLID, ELLIPSE, SMOOTHED]
    for trial in range(200):
        cfg = random_slice_config(rng, gauges[trial % len(gauges)])
        res = ac.improve(cfg)
        assert res.delta > 0, f"trial {trial}: delta {res.delta:.3e} for {cfg.spec()}"

    cross = ac.SliceConfig(np.radians([45, 135, 225, 315]), [1, 2, 3, 4], MAXNORM)
    res = ac.improve(cross)
    assert res.delta <= 1e-12, f"max-norm cross improved by {res.delta:.3e}"
    assert not res.guaranteed
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"


def test_criterion_08_paths_and_shortcuts():
    t0 = time.perf_counter()
    gauges = [EUCLID, ac.LpGauge(3.0), SHIFTED, MAXNORM, SMOOTHED]
    rng = np.random.default_rng(20240818)

    for trial in range(500):
        pts = rng.normal(size=(int(rng.integers(2, 9)), 2))
        g = gauges[trial % len(gauges)]
        path = ac.path_length_gauge(g, pts)
        chord = float(g.value(pts[-1] - pts[0]))
        assert path >= chord - 1e-12, f"polyline trial {trial}"

    for trial in range(500):
        poly = star_polygon(rng, int(rng.integers(6, 16)))
        k = int(rng.integers(2, len(poly) - 1))
        tau1 = poly[: k + 1]
        tau2 = np.vstack([poly[k:], poly[:1]])
        tau = ac.shortcut_path(tau1, tau2)
        g = gauges[trial % len(gauges)]
        total = ac.path_length_gauge(g, tau1) + ac.path_length_gauge(g, tau2)
        two_sided = ac.path_length_gauge(g, tau) + ac.path_length_gauge(
            g, tau, reverse=True
        )
        slack = total - two_sided
        assert slack >= -1e-12, f"shortcut trial {trial}: slack {slack:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


def test_criterion_09_gradients_and_boundary_identity():
    t0 = time.perf_counter()
    smooth = [EUCLID, ELLIPSE, SHIFTED, tabulated_ellipse()]
    rng = np.random.default_rng(20240819)

    for g in smooth:
        v = rng.normal(size=(1000, 2))
        v = v[np.linalg.norm(v, axis=1) > 1e-3]
        grad = g.grad(v)
        fd = np.empty_like(grad)
        h = 1e-6 * np.maximum(1.0, np.linalg.norm(v, axis=1))[:, None]
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            fd[:, i] = (g.value(v + h * e) - g.value(v - h * e)) / (2.0 * h[:, 0])
        rel = np.linalg.norm(grad - fd, axis=1) / np.linalg.norm(grad, axis=1)
        assert rel.max() <= 1e-6, f"{g.kind}: worst gradient error {rel.max():.2e}"

    dtheta = 1e-5
    theta = rng.uniform(0.0, 2.0 * np.pi, 200)
    for g in smooth:
        P = g.boundary_point(theta)
        tangent = g.boundary_point(theta + dtheta) - g.boundary_point(theta - dtheta)
        nu = rotate_cw(tangent)
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        expect = nu / np.sum(P * nu, axis=1)[:, None]
        err = np.linalg.norm(g.grad(P) - expect, axis=1)
        assert err.max() <= 1e-6, f"{g.kind}: worst boundary identity error {err.max():.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"


def test_criterion_10_isoperimetric_and_ball_bounds():
    reps = [
        (solved_cross(), Density.constant(MAXNORM)),
        (solved_disk(), Density.constant(EUCLID)),
        (solved_bubble(), Density.constant(EUCLID)),
    ]
    t0 = time.perf_counter()
    gauges = [EUCLID, ELLIPSE, SMOOTHED, SHIFTED, tabulated_ellipse()]
    densities = [Density.constant(g) for g in gauges]
    c_vols = [polygon_area(unit_ball_boundary(g, 4096)) for g in gauges]
    rng = np.random.default_rng(20240820)

    for trial in range(1000):
        poly = star_polygon(rng, int(rng.integers(4, 12)))
        k = trial % len(gauges)
        ok, slack = ac.isoperimetric_check(poly, densities[k], c_vols[k], eta=2.0)
        assert ok, f"trial {trial} ({gauges[k].kind}): slack {slack:.3e}"

    for rep, density in reps:
        lo = rep.cluster.vertices.min(axis=0)
        hi = rep.cluster.vertices.max(axis=0)
        centers = rng.uniform(lo, hi, size=(25, 2))
        radii = rng.uniform(0.1, 0.5, size=25)
        check = ac.ball_bound_check(rep.cluster, density, centers, radii)
        assert check.ok, (
            f"worst boundary-length ratio {check.worst_ratio:.3f} "
            f"exceeds bound {check.bound:.3f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


def standard_double_bubble_perimeter():
    """Two unit areas: three circular arcs of one radius r meeting at 120
    degrees, the middle one straight (Foisy et al. 1993). Each chamber is a
    disk less a segment of angle 2 pi / 3, of area r^2 (2 pi / 3 + sqrt(3) / 4)."""
    r = 1.0 / np.sqrt(2.0 * np.pi / 3.0 + np.sqrt(3.0) / 4.0)
    return (8.0 * np.pi / 3.0 + np.sqrt(3.0)) * r


def test_criterion_11_standard_double_bubble_oracle():
    exact = standard_double_bubble_perimeter()
    assert abs(exact - 6.3591293) <= 1e-7
    t0 = time.perf_counter()
    errors = []
    for n_arc in (24, 48):
        rep = ac.minimize(
            ac.OptimizationProblem(
                ac.double_bubble_cluster(n_arc=n_arc, n_mid=n_arc // 3),
                Density.constant(EUCLID),
                [1.0, 1.0],
                ac.SolveOptions(max_outer=30),
            )
        )
        assert rep.success, f"n_arc={n_arc}: solve failed with flags {rep.flags}"
        errors.append(rep.perimeter - exact)
    rep = solved_bubble()
    errors.append(rep.perimeter - exact)
    # a polygonal cluster with the two areas is a competitor of the exact
    # one, so it is longer (a volume error of 1e-6 moves P by ~1.6e-6 at
    # pressure 1/r), and each doubling of n_arc cuts the error about 4x
    assert all(e > 0 for e in errors), f"perimeter below the exact minimum: {errors}"
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse >= 3.0 * fine, f"refinement cut the error only {coarse / fine:.2f}x"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"


def _gaps_deg(directions):
    """The angles between consecutive directions, counterclockwise, in degrees."""
    a = np.sort(np.arctan2(directions[:, 1], directions[:, 0]) % (2.0 * np.pi))
    return np.degrees(np.diff(np.append(a, a[0] + 2.0 * np.pi)))


ELLIPSE_ORACLE_QS = (np.diag([1.0, 0.5]), np.diag([1.0, 0.25]), np.array([[2.0, 0.3], [0.3, 1.0]]))


def test_criterion_12_ellipse_double_bubble_oracle():
    # For h(nu) = sqrt(nu . Q nu), A = sqrt(det Q) Q^(-1/2) has cofactor
    # matrix det(A) A^-T = Q^(1/2), so h(rotate_cw(e)) = |rotate_cw(A e)| on
    # every segment: P_h(E) = P_euclid(A E), and |A E| = sqrt(det Q) |E|.
    # The minimisers for two unit areas are the A^-1 images of the standard
    # double bubbles of areas sqrt(det Q): P* = 6.3591293 (det Q)^(1/4), and
    # the junction angles are those of the A^-1 image of the 120 degree tripod
    t0 = time.perf_counter()
    euclid = Density.constant(EUCLID)
    # the builder's bubble is mirror symmetric about both axes, and a
    # diagonal Q keeps that symmetry: the tripod keeps its straight arm
    # vertical, so its A^-1 image gives the solve's own angles
    tripod = unit_dir(np.radians([90.0, 210.0, 330.0]))
    for q in ELLIPSE_ORACLE_QS:
        w, u = np.linalg.eigh(q)
        det = float(np.prod(w))
        A = np.sqrt(det) * (u / np.sqrt(w)) @ u.T
        exact = standard_double_bubble_perimeter() * det**0.25
        closed = np.sort(_gaps_deg(tripod @ np.linalg.inv(A).T))
        density = Density.constant(ac.EllipseGauge(q))
        errors, off_closed = [], []
        for n_arc in (48, 96):
            at = f"Q={q.tolist()}, n_arc={n_arc}"
            rep = ac.minimize(
                ac.OptimizationProblem(
                    ac.double_bubble_cluster(n_arc=n_arc, n_mid=n_arc // 3),
                    density,
                    [1.0, 1.0],
                    ac.SolveOptions(max_outer=30),
                )
            )
            assert rep.success and rep.flags == [], f"{at}: flags {rep.flags}"
            errors.append(rep.perimeter - exact)
            mapped = rep.cluster.copy()
            mapped.vertices = mapped.vertices @ A.T
            junctions = ac.steiner_diagnose(mapped, euclid).junctions
            assert len(junctions) == 2 and len(rep.junctions) == 2, at
            for j in junctions:
                worst = max(abs(a - 120.0) for a in j.angles_deg)
                assert worst <= 0.5, f"{at}: A-image angle {worst:.3f} deg off 120"
            off_closed.append(
                max(np.abs(np.sort(j["angles_deg"]) - closed).max() for j in rep.junctions)
            )
        at = f"Q={q.tolist()}"
        assert all(e > 0 for e in errors), f"{at}: perimeter below P* {exact}: {errors}"
        assert errors[0] >= 3.0 * errors[1], f"{at}: refinement cut the error only {errors[0] / errors[1]:.2f}x"
        if q[0, 1] == 0.0:
            assert off_closed[1] <= 0.5, f"{at}: angles {off_closed[1]:.3f} deg off {closed}"
            assert off_closed[1] < off_closed[0], f"{at}: angles off the closed form {off_closed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
