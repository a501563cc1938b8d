"""Anisotropic three-terminal junctions and admissible direction pairs."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from anisoclusters import (
    Density,
    EllipseGauge,
    EuclideanGauge,
    LinearGauge,
    LpGauge,
    RotatedGauge,
    ShiftedDiskGauge,
    admissible_pairs,
    fermat_modes_for_colors,
    fermat_point,
    junction_residual,
    steiner,
)
from anisoclusters.cluster import segment_weights
from anisoclusters.geometry import TWO_PI, unit_dir
from anisoclusters.steiner import MODE_SIDES, _bracketing_cells
from conftest import all_gauge_list, odd_profile_gauge, smooth_gauge_list

TERMINALS = np.array([[0.0, 0.0], [2.0, 0.2], [0.7, 1.8]])
# linear maps for the affine oracles: a shear with a turn, and a squeeze
LINEAR_MAPS = [np.array([[1.2, 0.4], [-0.1, 0.8]]), np.diag([1.0, 0.5])]


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


# the second triangle of the benchmark's junctions workload: a steepest
# descent with a fixed first step ended l^3 on a failed line search after
# 755 iterations, and took the shifted disk's out arms to a terminal in 458
HARD_EXITS = np.array([
    [0.2999375903353436, 0.3464005862381443],
    [-0.8533322572245561, 0.7485938031682629],
    [0.7116518033323143, -0.23894636912363265],
])
# its angle at the first terminal exceeds 120 degrees
OBTUSE = np.array([[0.0, 0.0], [1.0, 0.0], [-0.8, 0.3]])


class TestFermatPoint:
    @pytest.mark.parametrize(
        "gauge",
        [
            EuclideanGauge(),
            EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
            ShiftedDiskGauge((0.2, -0.1), 1.0),
            LpGauge(3.0),
        ],
        ids=["euclid", "ellipse", "shifted", "lp3"],
    )
    @pytest.mark.parametrize("modes", [("out",) * 3, ("in",) * 3, ("sym",) * 3])
    @pytest.mark.parametrize("pts", [TERMINALS, HARD_EXITS, OBTUSE], ids=["plain", "hard-exits", "obtuse"])
    def test_matches_derivative_free_minimizer(self, gauge, modes, pts):
        res = fermat_point(gauge, *pts, modes=modes)
        ref = scipy_minimize(
            lambda p: junction_cost(gauge, pts, modes, p),
            pts.mean(axis=0),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        assert res.value == pytest.approx(ref.fun, abs=1e-9)
        assert np.linalg.norm(res.point - ref.x) < 1e-5

    def test_stop_names_the_exit(self):
        scale = max(np.linalg.norm(TERMINALS - np.roll(TERMINALS, 1, axis=0), axis=1))
        loose = fermat_point(EuclideanGauge(), *TERMINALS, tol=1e-6)
        assert loose.stop == "converged" and loose.gradient_norm <= 1e-6 * scale
        short = fermat_point(EuclideanGauge(), *TERMINALS, max_iter=3)
        assert (short.stop, short.iterations) == ("budget", 3)
        assert short.gradient_norm > 1e-10 * scale

    def test_value_consistent_with_cost(self):
        gauge = ShiftedDiskGauge((0.0, 0.3), 1.0)
        modes = ("out", "in", "sym")
        res = fermat_point(gauge, *TERMINALS, modes=modes)
        assert res.value == pytest.approx(
            junction_cost(gauge, TERMINALS, modes, res.point), abs=1e-12
        )

    def test_asymmetric_gauge_breaks_mode_symmetry(self):
        gauge = ShiftedDiskGauge((0.0, 0.4), 1.0)
        out = fermat_point(gauge, *TERMINALS, modes=("out",) * 3)
        inn = fermat_point(gauge, *TERMINALS, modes=("in",) * 3)
        assert abs(out.value - inn.value) > 1e-3

    def test_euclidean_arms_meet_at_120_degrees(self):
        res = fermat_point(EuclideanGauge(), *TERMINALS)
        arms = TERMINALS - res.point
        arms /= np.linalg.norm(arms, axis=1)[:, None]
        for i in range(3):
            cosang = float(np.dot(arms[i], arms[(i + 1) % 3]))
            assert np.degrees(np.arccos(cosang)) == pytest.approx(120.0, abs=1e-4)

    def test_obtuse_triangle_snaps_to_vertex(self):
        gauge = CountingGauge(EuclideanGauge())
        res = fermat_point(gauge, *OBTUSE)
        assert res.degenerate_vertex == 0
        assert res.point.tobytes() == OBTUSE[0].tobytes()
        assert (res.iterations, res.gradient_norm, res.stop) == (0, 0.0, "converged")
        assert res.value == junction_cost(EuclideanGauge(), OBTUSE, ("out",) * 3, OBTUSE[0])
        # the certificate's two calls, then the value at the terminal
        assert gauge.shapes == {"value": [(1024, 2), (6, 2)], "grad": [(18, 2)]}

    def test_collinear_flag(self):
        res = fermat_point(
            EuclideanGauge(),
            np.array([0.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([2.0, 0.0]),
        )
        assert res.collinear is True
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert fermat_point(EuclideanGauge(), *TERMINALS).collinear is False

    def test_rotation_equivariance(self):
        base = EllipseGauge([[2.0, 0.3], [0.3, 1.0]])
        theta = 0.7
        R = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        res0 = fermat_point(base, *TERMINALS)
        res1 = fermat_point(RotatedGauge(base, theta), *(TERMINALS @ R.T))
        assert res1.value == pytest.approx(res0.value, rel=1e-8)
        assert np.linalg.norm(res1.point - R @ res0.point) < 1e-6

    @pytest.mark.parametrize("base", [EuclideanGauge(), ShiftedDiskGauge((0.2, -0.1))], ids=["euclid", "shifted"])
    @pytest.mark.parametrize("M", LINEAR_MAPS, ids=["shear", "squeeze"])
    @pytest.mark.parametrize("modes", [("out",) * 3, ("in",) * 3, ("sym",) * 3, ("out", "in", "sym")])
    @pytest.mark.parametrize("pts", [TERMINALS, HARD_EXITS, OBTUSE], ids=["plain", "hard-exits", "obtuse"])
    def test_linear_image_maps_the_point(self, base, M, modes, pts):
        # h(M (X - P)) summed over the arms is the base's junction cost at
        # M P with terminals M X, so its minimiser is M^-1 of the base's
        scale = max(np.linalg.norm(pts - np.roll(pts, 1, axis=0), axis=1))
        res = fermat_point(LinearGauge(base, M), *pts, modes=modes)
        image = fermat_point(base, *(pts @ M.T), modes=modes)
        assert np.linalg.norm(res.point - np.linalg.solve(M, image.point)) <= 1e-8 * scale
        assert res.value == pytest.approx(image.value, rel=1e-9)

    def test_rejects_duplicate_terminals(self):
        with pytest.raises(ValueError):
            fermat_point(
                EuclideanGauge(),
                np.array([0.0, 0.0]),
                np.array([0.0, 0.0]),
                np.array([1.0, 1.0]),
            )

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            fermat_point(EuclideanGauge(), *TERMINALS, modes=("out", "out", "spin"))

    @pytest.mark.parametrize("modes", [("out", "out"), ("out",) * 4, (), "sym"])
    def test_rejects_other_than_three_modes(self, modes):
        # two modes once dropped terminal C; a string was read letter by letter
        with pytest.raises(ValueError, match="three modes"):
            fermat_point(EuclideanGauge(), *TERMINALS, modes=modes)

    def test_value_at_every_trial_point_gradient_only_at_accepted_ones(self):
        gauge = CountingGauge(ShiftedDiskGauge((0.2, -0.1), 1.0))
        res = fermat_point(gauge, *TERMINALS, modes=("out", "in", "sym"))
        assert res.stop == "converged" and res.degenerate_vertex is None
        # the terminal test: the sampled directions and the arms at the terminals
        assert gauge.shapes["value"][0] == (1024, 2) and gauge.shapes["grad"][0] == (18, 2)
        assert set(gauge.shapes["value"][1:]) == set(gauge.shapes["grad"][1:]) == {(6, 2)}
        priced = [arms.tobytes() for arms in gauge.batches["value"][1:]]
        # the start and every trial point, each priced once
        assert len(set(priced)) == len(priced)
        # the gradient at the start and at each accepted point, all priced before
        grads = gauge.batches["grad"][1:]
        assert len(grads) == res.iterations
        assert all(arms.tobytes() in priced for arms in grads)

    def test_a_rounding_tie_is_settled_by_the_gradient(self):
        # on HARD_EXITS the l^3 value stops falling before the gradient norm
        # reaches tol: a trial whose value ties the current one within
        # rounding takes its gradient, and is accepted when that halves the
        # gradient norm
        gauge = CountingGauge(LpGauge(3.0))
        res = fermat_point(gauge, *HARD_EXITS)
        scale = max(np.linalg.norm(HARD_EXITS - np.roll(HARD_EXITS, 1, axis=0), axis=1))
        assert res.stop == "converged" and res.gradient_norm <= 1e-10 * scale
        # all three arms are "out": a point's value sums its first three weights
        value = {
            arms.tobytes(): h[0] + h[1] + h[2]
            for arms, h in zip(gauge.batches["value"][1:], gauge.outputs["value"][1:])
        }
        at_grads = [value[arms.tobytes()] for arms in gauge.batches["grad"][1:]]
        assert any(b >= a for a, b in zip(at_grads, at_grads[1:]))

    def test_rejects_invalid_solver_arguments(self):
        for bad in (np.nan, -1.0, 0.0, np.inf, True, "1e-10", None):
            with pytest.raises(ValueError, match="tol must be a positive finite number"):
                fermat_point(EuclideanGauge(), *TERMINALS, tol=bad)
        for bad in (0, -3, 2.5, True, None):
            with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
                fermat_point(EuclideanGauge(), *TERMINALS, max_iter=bad)
        res = fermat_point(EuclideanGauge(), *TERMINALS, tol=np.float32(1e-6), max_iter=np.int64(1))
        assert (res.stop, res.iterations) == ("budget", 1)

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_rejects_non_finite_terminals(self, bad):
        with pytest.raises(ValueError, match="terminals must be finite"):
            fermat_point(EuclideanGauge(), bad, [1.0, 0.0], [0.0, 1.0])

    def test_results_compare_by_value(self):
        gauge = EllipseGauge([[2.0, 0.3], [0.3, 1.0]])
        res = fermat_point(gauge, *TERMINALS, modes=("out", "in", "sym"))
        assert res == fermat_point(gauge, *TERMINALS, modes=("out", "in", "sym"))
        assert res != dataclasses.replace(res, point=np.nextafter(res.point, np.inf))
        # arrays with the same bytes but another dtype or shape differ
        zero = dataclasses.replace(res, point=np.zeros(2))
        assert zero == dataclasses.replace(res, point=np.zeros(2))
        assert zero != dataclasses.replace(res, point=np.zeros(2, dtype=np.int64))
        assert zero != dataclasses.replace(res, point=np.zeros((1, 2)))
        assert res != dataclasses.replace(res, iterations=res.iterations + 1)
        assert res != (res.point, res.value)


class CountingGauge:
    """A gauge that records every value and grad batch and its shape, and
    every value batch's weights."""

    def __init__(self, base):
        self.base = base
        self.shapes = {"value": [], "grad": []}
        self.batches = {"value": [], "grad": []}
        self.outputs = {"value": []}

    def value(self, v):
        self.shapes["value"].append(np.shape(v))
        self.batches["value"].append(np.array(v, dtype=float))
        h = self.base.value(v)
        self.outputs["value"].append(np.asarray(h).tolist())
        return h

    def grad(self, v):
        self.shapes["grad"].append(np.shape(v))
        self.batches["grad"].append(np.array(v, dtype=float))
        return self.base.grad(v)


def reference_fermat(gauge, pts, modes):
    """fermat_point, terminal test and descent, at its default tol and
    max_iter, with each arm priced on its own, by mode: (point, value,
    iterations)."""

    def term_value(x, p, mode):
        if mode == "out":
            return float(gauge.value(x - p))
        if mode == "in":
            return float(gauge.value(p - x))
        return float(0.5 * (gauge.value(x - p) + gauge.value(p - x)))

    def term_grad(x, p, mode):
        if mode == "out":
            return -gauge.grad(x - p)
        if mode == "in":
            return gauge.grad(p - x)
        return 0.5 * (gauge.grad(p - x) - gauge.grad(x - p))

    def value(p):
        val = 0.0
        for x, mode in zip(pts, modes):
            val += term_value(x, p, mode)
        return val

    def gradient(p):
        grad = np.zeros(2)
        for x, mode in zip(pts, modes):
            grad += term_grad(x, p, mode)
        return grad

    def slope(mode, u):
        # the arm's weight at P = X + s u, over s
        if mode == "out":
            return gauge.value(-u)
        if mode == "in":
            return gauge.value(u)
        return 0.5 * (gauge.value(-u) + gauge.value(u))

    # the terminal test: the other arms' gradient and the arm's own slope
    n = steiner.CERTIFICATE_DIRECTIONS
    u = unit_dir(np.arange(n) * (TWO_PI / n))
    for k in range(3):
        g = np.zeros(2)
        for j in range(3):
            if j != k:
                g += term_grad(pts[j], pts[k], modes[j])
        phi = slope(modes[k], u)
        psi = g[0] * u[:, 0] + g[1] * u[:, 1] + phi
        lip = np.hypot(g[0], g[1]) + phi.max() / np.cos(np.pi / n)
        if psi.min() > lip * (2.0 * np.sin(np.pi / (2 * n)) + 64 * np.finfo(float).eps):
            return pts[k].copy(), value(pts[k]), 0

    scale = max(np.linalg.norm(pts[i] - pts[j]) for i in range(3) for j in range(i + 1, 3))
    p = pts.mean(axis=0)
    fval, grad = value(p), gradient(p)
    gn = float(np.linalg.norm(grad))
    h0 = 0.25 * scale * np.eye(2)
    hinv, restarted = h0, False
    it = 0
    for it in range(1, 5001):
        if gn <= 1e-10 * scale:
            break
        d = -(hinv @ grad)
        if not float(grad @ d) < 0:
            hinv = h0
            d = -(hinv @ grad)
        slope_d = float(grad @ d)
        t, floor, cand = 1.0, 1e-16 * scale / float(np.linalg.norm(d)), None
        while t > floor:
            fc = value(p + t * d)
            if fc < fval + 1e-4 * t * slope_d:
                cand, gc = p + t * d, gradient(p + t * d)
                break
            if abs(fc - fval) <= 4.0 * np.spacing(abs(fval)):
                gc = gradient(p + t * d)
                if float(np.linalg.norm(gc)) <= 0.5 * gn:
                    cand = p + t * d
                    break
            t *= 0.5
        if cand is None:
            if hinv is not h0 and not restarted:
                hinv, restarted = h0, True
                continue
            break
        s, y = cand - p, gc - grad
        sy = float(s @ y)
        if sy > 0:
            hy = hinv @ y
            hinv = hinv + ((sy + float(y @ hy)) / sy * np.outer(s, s) - np.outer(hy, s) - np.outer(s, hy)) / sy
        p, fval, grad = cand, fc, gc
        gn = float(np.linalg.norm(grad))
    d2term = np.linalg.norm(pts - p, axis=1)
    k = int(np.argmin(d2term))
    if d2term[k] <= 1e-8 * scale:
        p = pts[k].copy()
        fval = value(p)
    return p, fval, it


class TestFermatPricingMatchesPerArmReference:
    """fermat_point prices its arms with orientation_rule's coefficients in
    one batch; the per-arm pricing by mode must give the same iterates bit
    for bit."""

    @pytest.mark.parametrize(
        "gauge",
        all_gauge_list() + [LpGauge(3.0)],
        ids=["euclid", "ellipse", "shifted", "tabulated", "max", "l1", "smoothed-l1", "l3"],
    )
    def test_bit_identical(self, gauge):
        cases = [(TERMINALS, m) for m in itertools.product(MODE_SIDES, repeat=3)]
        cases += [(pts, (m,) * 3) for pts in (OBTUSE, HARD_EXITS) for m in MODE_SIDES]
        for pts, modes in cases:
            res = fermat_point(gauge, *pts, modes=modes)
            point, value, iterations = reference_fermat(gauge, pts, modes)
            assert res.point.tobytes() == point.tobytes(), modes
            assert (res.value, res.iterations) == (value, iterations), modes

    def test_hard_exits_are_reached(self):
        scale = max(np.linalg.norm(HARD_EXITS - np.roll(HARD_EXITS, 1, axis=0), axis=1))
        lp3 = fermat_point(LpGauge(3.0), *HARD_EXITS)
        assert lp3.iterations < 5000 and lp3.degenerate_vertex is None
        assert lp3.gradient_norm <= 1e-10 * scale
        assert lp3.stop == "converged"
        snapped = fermat_point(ShiftedDiskGauge((0.2, -0.1)), *HARD_EXITS)
        assert snapped.degenerate_vertex is not None
        assert snapped.point.tobytes() == HARD_EXITS[snapped.degenerate_vertex].tobytes()

    def test_shifted_disk_terminal_is_certified(self):
        # terminal 0 minimizes the shifted disk's out arms; with 256 sampled
        # directions its certificate margin (0.0252) fell below the
        # Lipschitz bound (0.0261), and a 47-step descent stalled there
        res = fermat_point(ShiftedDiskGauge((0.2, -0.1)), *HARD_EXITS)
        assert (res.iterations, res.gradient_norm, res.stop) == (0, 0.0, "converged")
        assert res.degenerate_vertex == 0
        assert res.point.tobytes() == HARD_EXITS[0].tobytes()


def test_certificate_directions_are_priced_once_per_gauge():
    gauge = CountingGauge(ShiftedDiskGauge((0.2, -0.1)))
    cases = [(pts, (m,) * 3) for pts in (HARD_EXITS, TERMINALS, OBTUSE) for m in MODE_SIDES]
    first = [fermat_point(gauge, *pts, modes=modes) for pts, modes in cases]
    again = [fermat_point(gauge, *pts, modes=modes) for pts, modes in cases]
    fresh = CountingGauge(gauge.base)
    assert first == again == [fermat_point(fresh, *pts, modes=modes) for pts, modes in cases]
    sampled = [k for k, shape in enumerate(gauge.shapes["value"]) if shape == steiner._CERT_PM_U.shape]
    assert len(sampled) == 1
    assert np.array_equal(gauge.batches["value"][sampled[0]], steiner._CERT_PM_U)
    cached = steiner._CERT_VALUES[gauge]
    assert not cached.flags.writeable
    assert cached.tolist() == gauge.outputs["value"][sampled[0]]


def junction_costs(gauge, pts, modes, q):
    """junction_cost at each row of q, each arm priced by mode in one batch."""
    total = np.zeros(len(q))
    for x, mode in zip(pts, modes):
        if mode == "out":
            total += gauge.value(x - q)
        elif mode == "in":
            total += gauge.value(q - x)
        else:
            total += 0.5 * (gauge.value(x - q) + gauge.value(q - x))
    return total


def test_no_false_terminal_certificate():
    # dense polar probes from 1e-6 to 1e-1 scale around every terminal the
    # test certifies find no lower value; half the triangles have their
    # third terminal near the first side, so that many terminals certify
    rng = np.random.default_rng(19)
    gauges = all_gauge_list() + [odd_profile_gauge()]
    offsets = (np.geomspace(1e-6, 1e-1, 11)[:, None, None] * unit_dir(np.arange(720) * (TWO_PI / 720))).reshape(-1, 2)
    certified = set()
    for i in range(200):
        gauge = gauges[i % len(gauges)]
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        if i % 2:
            pts[2] = pts[0] + rng.uniform(0.1, 0.9) * (pts[1] - pts[0]) + rng.normal(0.0, 0.1, 2)
        modes = tuple(rng.choice(list(MODE_SIDES), 3))
        res = fermat_point(gauge, *pts, modes=modes)
        if res.iterations:
            continue
        assert (res.stop, res.gradient_norm) == ("converged", 0.0)
        assert res.point.tobytes() == pts[res.degenerate_vertex].tobytes()
        scale = max(np.linalg.norm(pts - np.roll(pts, 1, axis=0), axis=1))
        costs = junction_costs(gauge, pts, modes, res.point + scale * offsets)
        assert costs.min() >= res.value - 1e-12 * max(1.0, abs(res.value)), (i, modes)
        certified.add(i % len(gauges))
    assert certified == set(range(len(gauges)))


class TestModesForColors:
    def test_all_colored_is_two_sided(self):
        modes, w = fermat_modes_for_colors([1, 2, 3])
        assert modes == ("sym", "sym", "sym")

    def test_white_sector_orients_bounding_arcs(self):
        assert fermat_modes_for_colors([0, 1, 2])[0] == ("out", "in", "sym")
        assert fermat_modes_for_colors([1, 0, 2])[0] == ("sym", "out", "in")
        assert fermat_modes_for_colors([1, 2, 0])[0] == ("in", "sym", "out")

    def test_two_whites_rejected(self):
        with pytest.raises(ValueError):
            fermat_modes_for_colors([0, 0, 1])

    @pytest.mark.parametrize("colors", [[1, 2], [0, 1, 2, 3]])
    def test_other_than_three_colors_rejected(self, colors):
        with pytest.raises(ValueError, match="three sector colors"):
            fermat_modes_for_colors(colors)


class TestJunctionResidual:
    def test_euclidean_120_is_stationary(self):
        dirs = unit_dir(np.radians([90.0, -30.0, -150.0]))
        r = junction_residual(
            Density.constant(EuclideanGauge()), np.zeros(2), dirs, [1, 2, 3]
        )
        assert np.linalg.norm(r) < 1e-12

    def test_perturbed_directions_are_not(self):
        dirs = unit_dir(np.radians([90.0, -25.0, -150.0]))
        r = junction_residual(
            Density.constant(EuclideanGauge()), np.zeros(2), dirs, [1, 2, 3]
        )
        assert np.linalg.norm(r) > 1e-3

    def test_accepts_plain_gauge(self):
        dirs = unit_dir(np.radians([90.0, -30.0, -150.0]))
        r = junction_residual(EuclideanGauge(), np.zeros(2), dirs, [1, 2, 3])
        assert np.linalg.norm(r) < 1e-12

    def test_counterclockwise_order_rejected(self):
        dirs = unit_dir(np.radians([-150.0, -30.0, 90.0]))
        with pytest.raises(ValueError):
            junction_residual(EuclideanGauge(), np.zeros(2), dirs, [1, 2, 3])

    def test_zero_direction_rejected(self):
        dirs = np.array([[0.0, 1.0], [0.0, 0.0], [-1.0, -1.0]])
        with pytest.raises(ValueError):
            junction_residual(EuclideanGauge(), np.zeros(2), dirs, [1, 2, 3])

    def test_two_whites_rejected(self):
        dirs = unit_dir(np.radians([90.0, -30.0, -150.0]))
        with pytest.raises(ValueError):
            junction_residual(EuclideanGauge(), np.zeros(2), dirs, [0, 0, 1])

    def test_one_grad_call_for_the_normals_and_their_negatives(self):
        gauge = CountingGauge(ShiftedDiskGauge((0.2, -0.1), 1.0))
        dirs = unit_dir(np.radians([90.0, -30.0, -150.0]))
        junction_residual(gauge, np.zeros(2), dirs, [1, 0, 2])
        assert gauge.shapes == {"value": [], "grad": [(6, 2)]}
        normals = gauge.batches["grad"][0]
        assert np.array_equal(normals[3:], -normals[:3])

    def test_wrong_direction_count_rejected(self):
        with pytest.raises(ValueError):
            junction_residual(
                EuclideanGauge(), np.zeros(2), unit_dir(np.radians([0.0, 90.0])), [1, 2]
            )


def arms_perimeter(density, origin, ends, colors):
    """Perimeter of the three segments from origin to ends, each priced as
    the solver prices a segment. Walking out along arm i, the sector swept
    clockwise from it, colors[i], is on the right; colors[i - 1] on the left."""
    colors = np.asarray(colors)
    return float(segment_weights(density, origin, ends, np.roll(colors, 1), colors).sum())


JUNCTION_GAUGES = smooth_gauge_list() + [
    RotatedGauge(ShiftedDiskGauge((0.3, 0.1), 1.0), 0.7),
    odd_profile_gauge(),
]


class TestJunctionResidualIsThePerimeterGradient:
    @pytest.mark.parametrize(
        "gauge",
        JUNCTION_GAUGES,
        ids=["euclid", "ellipse", "shifted", "tabulated", "rotated-shifted", "odd-profile"],
    )
    @pytest.mark.parametrize("colors", [[0, 1, 2], [1, 0, 2], [1, 2, 0], [1, 2, 3]])
    def test_matches_central_differences(self, gauge, colors, rng):
        density = Density.constant(gauge)
        eps = 1e-6
        for _ in range(5):
            origin = rng.normal(0.0, 1.0, 2)
            th = np.sort(rng.uniform(0.0, 2.0 * np.pi, 3))[::-1]
            ends = origin + rng.uniform(0.5, 2.0, 3)[:, None] * unit_dir(th)
            fd = np.zeros(2)
            for k in range(2):
                step = eps * np.eye(2)[k]
                fd[k] = (
                    arms_perimeter(density, origin + step, ends, colors)
                    - arms_perimeter(density, origin - step, ends, colors)
                ) / (2.0 * eps)
            r = junction_residual(density, origin, ends - origin, colors)
            assert np.abs(r + fd).max() <= 1e-7

    def test_odd_profile_residual_depends_on_the_white_sector(self):
        # the premise of the odd-profile cases: each white position gives
        # another residual. Under the shifted disk they all coincide
        dirs = unit_dir(np.radians([90.0, -30.0, -150.0]))
        colorings = ([0, 1, 2], [1, 0, 2], [1, 2, 0], [1, 2, 3])

        def gaps(gauge):
            rs = [junction_residual(gauge, np.zeros(2), dirs, c) for c in colorings]
            return [np.abs(a - b).max() for i, a in enumerate(rs) for b in rs[i + 1 :]]

        assert min(gaps(odd_profile_gauge())) > 1e-3
        assert max(gaps(ShiftedDiskGauge((0.2, -0.1), 1.0))) < 1e-12


# every smooth kind, the odd profile and l^p off p = 2; the reference points
# are scaled onto each unit ball, so only their directions matter
SCAN_GAUGES = smooth_gauge_list() + [odd_profile_gauge(), LpGauge(1.5), LpGauge(3.0), LpGauge(5.0)]
SCAN_IDS = ["euclid", "ellipse", "shifted", "tabulated", "odd-profile", "l1.5", "l3", "l5"]
SCAN_POINTS = [np.array([0.0, 1.0]), np.array([0.8, -0.6]), np.array([-1.0, 0.25])]


def _dense_cells(g0, grads):
    """Cells whose four corners bracket zero in both components, each corner
    taken from a full n x n array: the reference for the separable scan."""
    F1 = g0[0] + grads[:, 0][:, None] + grads[:, 0][None, :]
    F2 = g0[1] + grads[:, 1][:, None] + grads[:, 1][None, :]

    def cellknot(F):
        c00 = F
        c10 = np.roll(F, -1, axis=0)
        c01 = np.roll(F, -1, axis=1)
        c11 = np.roll(np.roll(F, -1, axis=0), -1, axis=1)
        mn = np.minimum(np.minimum(c00, c10), np.minimum(c01, c11))
        mx = np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
        return (mn <= 0) & (mx >= 0)

    return np.argwhere(cellknot(F1) & cellknot(F2))


def reference_newton(residual, phi, tol, max_newton):
    """steiner._lockstep_newton with a Newton run of its own for each row,
    its norms from np.linalg.norm: the reference for the lockstep."""
    out, iterations = [], []
    for start in phi:
        p, r = start, residual(start)
        ok = False
        for it in range(1, max_newton + 1):
            rn = np.linalg.norm(r)
            if rn < tol:
                ok = True
                break
            rp = residual(p + steiner._FD_PROBES)
            J = ((rp[0::2] - rp[1::2]) / (2 * steiner._FD_EPS)).T
            try:
                delta = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(delta)):
                break
            lam = 1.0
            while lam > 1e-6:
                cand = p + lam * delta
                rc = residual(cand)
                if np.linalg.norm(rc) < rn:
                    p, r = cand, rc
                    break
                lam *= 0.5
            else:
                break
        if ok:
            out.append(p)
            iterations.append(it)
    return np.array(out).reshape(-1, 2), np.array(iterations, dtype=int)


def synthetic_residual(phi):
    """A smooth residual with one root at (1, 2); constant for x > 10, where
    every Jacobian is singular, and infinite for x < -10, where every step
    is NaN."""
    x, y = phi[..., 0], phi[..., 1]
    r = np.stack([np.sin(x - 1.0) + 0.1 * (y - 2.0), (y - 2.0) + 0.2 * (x - 1.0) ** 2], axis=-1)
    r = np.where((x > 10.0)[..., None], 1.0, r)
    return np.where((x < -10.0)[..., None], np.inf, r)


# the rows: starts around the root at several distances, one start at the
# root, one in the singular region, one in the infinite region, and a start
# too far out for a short budget
SYNTHETIC_STARTS = np.array([
    [1.1, 2.1], [11.0, 0.0], [0.5, 2.5], [-11.0, 0.0], [1.0, 2.0], [2.2, 0.9], [-0.2, 3.1], [1.4, 1.7], [3.0, -1.0],
])


class TestLockstepNewton:
    """admissible_pairs refines every bracketing cell in one lockstep
    Newton; each cell must take the steps its own run takes, bit for bit."""

    @pytest.mark.parametrize("max_newton, iterations", [(60, [4, 5, 1, 5, 7, 5, 6]), (5, [4, 5, 1, 5, 5])])
    def test_synthetic_rows_converge_as_they_do_alone(self, max_newton, iterations):
        calls = []

        def residual(phi):
            calls.append(np.shape(phi))
            return synthetic_residual(phi)

        with np.errstate(invalid="ignore"):
            phi, its = steiner._lockstep_newton(residual, SYNTHETIC_STARTS.copy(), 1e-12, max_newton)
            expect_phi, expect_its = reference_newton(synthetic_residual, SYNTHETIC_STARTS, 1e-12, max_newton)
            alone = [
                steiner._lockstep_newton(synthetic_residual, start[None].copy(), 1e-12, max_newton)
                for start in SYNTHETIC_STARTS
            ]
        assert phi.tobytes() == expect_phi.tobytes() and its.tolist() == expect_its.tolist() == iterations
        assert np.concatenate([p for p, _ in alone]).tobytes() == phi.tobytes()
        assert np.concatenate([i for _, i in alone]).tolist() == iterations
        # the singular and the infinite rows fail
        assert [len(alone[k][1]) for k in (1, 3)] == [0, 0]
        # every call takes the rows of one stage: the start, then probes of
        # four points per row or trial points
        assert calls[0] == SYNTHETIC_STARTS.shape
        assert all(len(shape) == 2 or shape[1:] == (4, 2) for shape in calls)

    def test_norms_are_the_linalg_norms(self, rng):
        # the dot product may fuse a multiply-add, which x*x + y*y does not
        rows = rng.normal(size=(20000, 2)) * rng.choice([1e-3, 1.0, 1e3], size=(20000, 1))
        expect = [np.linalg.norm(x) for x in rows]
        assert steiner._norms(rows).tolist() == expect
        assert [steiner._norm(x) for x in rows] == expect
        assert (steiner._norms(rows) != np.sqrt(rows[:, 0] * rows[:, 0] + rows[:, 1] * rows[:, 1])).any()

    def test_a_singular_batch_is_solved_row_by_row(self):
        J = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.5, 0.0], [0.25, 4.0]]])
        b = np.array([[1.0, -2.0], [1.0, 1.0], [3.0, 0.5]])
        x = steiner._solve(J, b)
        assert np.isnan(x[1]).all()
        for k in (0, 2):
            assert x[k].tobytes() == np.linalg.solve(J[k], b[k]).tobytes()

    @pytest.mark.parametrize("resolution", [16, 97, 720])
    @pytest.mark.parametrize(
        "gauge",
        [EuclideanGauge(), LpGauge(1.5), LpGauge(3.0), EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
         ShiftedDiskGauge((0.2, -0.1)), odd_profile_gauge()],
        ids=["euclid", "l1.5", "l3", "ellipse", "shifted", "odd-profile"],
    )
    def test_pairs_equal_the_per_cell_runs(self, gauge, resolution, monkeypatch):
        points = SCAN_POINTS + [np.array([0.3, 0.9]), np.array([-0.7, -0.7])]
        found = 0
        for a in points:
            triples = admissible_pairs(gauge, a, resolution=resolution)
            with monkeypatch.context() as m:
                m.setattr(steiner, "_lockstep_newton", reference_newton)
                assert triples == admissible_pairs(gauge, a, resolution=resolution)
            found += len(triples)
        assert found >= len(points)

    def test_calls_per_stage(self, monkeypatch):
        gauge, shapes = LpGauge(1.5), []
        grad = gauge.grad
        monkeypatch.setattr(gauge, "grad", lambda v: shapes.append(np.shape(v)) or grad(v))
        pairs = admissible_pairs(gauge, np.array([0.0, 1.0]), resolution=720)
        # the reference point, the scan, then one call per Newton stage and
        # one for the roots' residuals; the per-cell runs made 46
        assert len(pairs) == 1 and len(shapes) == 10
        assert shapes[:2] == [(2,), (720, 2)]


class TestAdmissiblePairs:
    def test_euclidean_unique_symmetric_pair(self):
        pairs = admissible_pairs(EuclideanGauge(), np.array([0.0, 1.0]), resolution=360)
        assert len(pairs) == 1
        t = pairs[0]
        assert np.degrees(t.angle_b) == pytest.approx(120.0, abs=0.01)
        assert np.degrees(t.angle_c) == pytest.approx(120.0, abs=0.01)
        assert t.residual < 1e-9

    def test_lp_pair_angle_matches_tangent_law(self):
        # symmetric pair at angle alpha from the reference direction with
        # tan(alpha) = -(2**q - 1)**(1/p), q the conjugate exponent
        for p in (1.5, 3.0):
            q = p / (p - 1.0)
            alpha = np.pi - np.arctan((2.0**q - 1.0) ** (1.0 / p))
            pairs = admissible_pairs(LpGauge(p), np.array([0.0, 1.0]), resolution=360)
            assert len(pairs) == 1
            t = pairs[0]
            assert t.angle_b == pytest.approx(alpha, abs=1e-3)
            assert t.angle_c == pytest.approx(alpha, abs=1e-3)

    @pytest.mark.parametrize(
        "base", [EuclideanGauge(), LpGauge(3.0), ShiftedDiskGauge((0.2, -0.1))], ids=lambda g: g.kind
    )
    @pytest.mark.parametrize("M", LINEAR_MAPS, ids=["shear", "squeeze"])
    @pytest.mark.parametrize("a", [np.array([0.0, 1.0]), np.array([1.3, -0.4])], ids=["up", "skew"])
    def test_linear_image_maps_the_pairs(self, base, M, a):
        # the gradient of h through M is M^T grad h(M v), and M^T is
        # invertible: a triple balances through M exactly when its M image
        # balances under h, and M^-1 carries h's unit ball onto the image's
        pairs = admissible_pairs(LinearGauge(base, M), a)
        image = admissible_pairs(base, M @ a)
        assert len(pairs) == len(image) == 1
        t, u = pairs[0], image[0]
        back = [np.linalg.solve(M, x) for x in (u.a, u.b, u.c)]
        assert np.abs(t.a - back[0]).max() <= 1e-7
        err = min(
            max(np.abs(t.b - back[1]).max(), np.abs(t.c - back[2]).max()),
            max(np.abs(t.b - back[2]).max(), np.abs(t.c - back[1]).max()),
        )
        assert err <= 1e-7

    @pytest.mark.parametrize("q", [[[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 0.25]]])
    @pytest.mark.parametrize("a", [[0.0, 1.0], [1.3, -0.4], [-0.2, -1.0]])
    def test_ellipse_pair_in_closed_form(self, q, a):
        # the ellipse is the Euclidean gauge through R = Q^(1/2), whose one
        # pair at R a is R a / |R a| turned by +-120 degrees
        gauge = EllipseGauge(q)
        R = gauge.matrix
        pairs = admissible_pairs(gauge, np.array(a))
        assert len(pairs) == 1
        ra = R @ np.array(a)
        turns = np.arctan2(ra[1], ra[0]) + np.array([1.0, -1.0]) * (TWO_PI / 3.0)
        expect = np.linalg.solve(R, unit_dir(turns).T).T
        got = np.array([pairs[0].b, pairs[0].c])
        err = min(np.abs(got - expect).max(), np.abs(got[::-1] - expect).max())
        assert err <= 1e-7

    def test_shifted_disk_has_none(self):
        # the ball shifted against the reference direction leaves no
        # stationary pair anywhere on the torus
        pairs = admissible_pairs(
            ShiftedDiskGauge((0.0, -0.5), 1.0), np.array([0.0, 0.5]), resolution=240
        )
        assert pairs == []

    def test_triples_compare_by_value(self):
        first = admissible_pairs(EuclideanGauge(), np.array([0.0, 1.0]), resolution=64)
        assert first == admissible_pairs(EuclideanGauge(), np.array([0.0, 1.0]), resolution=64)
        t = first[0]
        assert t != dataclasses.replace(t, b=t.c, c=t.b)
        assert t != dataclasses.replace(t, residual=t.residual + 1.0)

    def test_kinked_gauge_rejected(self):
        with pytest.raises(ValueError):
            admissible_pairs(LpGauge(np.inf), np.array([0.0, 1.0]))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            admissible_pairs(EuclideanGauge(), np.zeros(2))

    def test_pair_directions_balance_distant_terminals(self):
        # placing terminals far out along an admissible triple's directions
        # must pull the junction back to the origin
        gauge = LpGauge(3.0)
        pairs = admissible_pairs(gauge, np.array([0.0, 1.0]), resolution=360)
        t = pairs[0]
        R = 50.0
        res = fermat_point(gauge, R * t.a, R * t.b, R * t.c)
        assert np.linalg.norm(res.point) < 1e-2

    @pytest.mark.parametrize("resolution", [0, -5, 15, 2.7, 720.0, True, "720"])
    def test_rejects_resolution_other_than_an_integer_from_16(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            admissible_pairs(EuclideanGauge(), np.array([0.0, 1.0]), resolution=resolution)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"tol": bad}, "tol must be a positive finite number") for bad in (np.nan, -1.0, 0.0, np.inf, True)],
    )
    def test_rejects_invalid_solver_arguments(self, kwargs, message):
        # tol=nan or -1 once found no pair for the Euclidean gauge, which has one
        with pytest.raises(ValueError, match=message):
            admissible_pairs(EuclideanGauge(), np.array([0.0, 1.0]), resolution=16, **kwargs)

    def test_accepts_numpy_integer_resolution(self):
        assert len(admissible_pairs(EuclideanGauge(), np.array([0.0, 1.0]), resolution=np.int64(16))) == 1

    @pytest.mark.parametrize("resolution", [16, 97, 240, 720])
    @pytest.mark.parametrize("gauge", SCAN_GAUGES, ids=SCAN_IDS)
    def test_scan_matches_the_dense_four_corner_scan(self, gauge, resolution, monkeypatch):
        seen = []

        def dense(g0, grads):
            cells = _dense_cells(g0, grads)
            assert np.array_equal(_bracketing_cells(g0, grads), cells)
            seen.append(len(cells))
            return cells

        for a in SCAN_POINTS:
            triples = admissible_pairs(gauge, a, resolution=resolution)
            with monkeypatch.context() as m:
                m.setattr(steiner, "_bracketing_cells", dense)
                reference = admissible_pairs(gauge, a, resolution=resolution)
            assert triples == reference
        assert len(seen) == len(SCAN_POINTS)

    @pytest.mark.parametrize("n", [16, 17, 97, 721])
    @pytest.mark.parametrize("table", ["rough", "constant", "flat", "ties", "second"])
    def test_block_scan_matches_the_dense_scan_on_synthetic_tables(self, n, table):
        rng = np.random.default_rng(n)
        if table == "rough":
            # steep random gradients: few cells bracket, scattered over the torus
            g0 = rng.normal(size=2)
            grads = -0.5 * g0 + rng.normal(size=(n, 2)) * rng.choice([0.01, 1.0, 100.0], size=(n, 1))
        elif table == "constant":
            # component 0 is exactly zero on the whole torus: every cell brackets it
            g0 = np.array([-1.0, rng.normal()])
            grads = np.column_stack([np.full(n, 0.5), -0.5 * g0[1] + rng.normal(size=n)])
        elif table == "flat":
            # both components are: every cell survives
            g0, grads = np.array([-1.0, 2.0]), np.tile([0.5, -1.0], (n, 1))
        elif table == "ties":
            # quarter steps: exact zeros of F, and equal corners side by side
            g0 = rng.integers(-4, 5, size=2) / 4.0
            grads = rng.integers(-3, 4, size=(n, 2)) / 4.0
        else:
            # component 0 is zero on the whole torus, so every block passes
            # it; component 1 brackets near one curve and has NaN entries,
            # so its block bounds reject blocks that component 0 passes
            g0 = np.array([-1.0, 0.3])
            g1 = -0.15 + np.sin(np.arange(n) * (TWO_PI / n)) + 0.01 * rng.normal(size=n)
            g1[rng.choice(n, 3, replace=False)] = np.nan
            grads = np.column_stack([np.full(n, 0.5), g1])
            lo, hi = np.minimum(g1, np.roll(g1, -1)), np.maximum(g1, np.roll(g1, -1))
            starts = np.arange(0, n, steiner._CELL_BLOCK)
            passes = (g0[1] + lo[:, None] <= np.fmax.reduceat(-lo, starts)) & (
                g0[1] + hi[:, None] >= np.fmin.reduceat(-hi, starts)
            )
            assert 0 < passes.sum() < passes.size
        cells = _bracketing_cells(g0, grads)
        expect = _dense_cells(g0, grads)
        assert cells.dtype == expect.dtype and np.array_equal(cells, expect)
        assert len(expect) == n * n if table == "flat" else 0 < len(expect) < n * n

    def test_scan_builds_no_full_torus_float_array(self):
        gauge, a, n = LpGauge(3.0), np.array([0.0, 1.0]), 720
        admissible_pairs(gauge, a, resolution=n)
        tracemalloc.start()
        try:
            admissible_pairs(gauge, a, resolution=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

