"""Junctions of a cluster, weighted Fermat points and admissible
boundary-direction triples.

detect_junctions finds the vertices where three or more arms and labels
meet, arms clockwise (cluster.vertex_arms). A triple junction with arcs
leaving a point O along three directions is stationary exactly when the
gradients of the arms' weights, taken with respect to their directions, sum
to zero (each gradient is a Cahn-Hoffman vector; Hoffman and Cahn 1972).
junction_residual prices each arm as the solver prices a segment, through
cluster.orientation_rule: an arm beside the white sector carries its
one-sided weight, an arm between two chambers the mean of its two sides,
from one gauge call for the normals and their negatives. fermat_point
prices its three arms through the same rule, each arm's mode naming its
side labels in MODE_SIDES: the rule is linear in the two one-sided weights,
so it yields each arm's pair of coefficients once per solve. Its objective
is convex, so it first tests whether a terminal is the minimizer (Kuhn's
vertex test, certified for any convex gauge by a Lipschitz bound between
sampled directions) and otherwise descends by BFGS from the centroid
(Nocedal and Wright, Numerical Optimization, ch. 6). For a symmetric gauge
every arm's gradient is the plain gauge gradient at its normal, rotated
back. The certificate's sampled directions are priced once per gauge
instance.

admissible_pairs finds the partners B, C of a reference point A whose
gradients balance A's: the triples that meet at other than 120 degrees
under an anisotropic gauge. It scans the torus of partner angles for the
cells that bracket a root, by block bounds and then cell by cell, and
refines every such cell in one lockstep damped Newton: each stage (the
start, the finite-difference probes, each line-search trial) is one gauge
call over all the cells it concerns, and each cell takes the steps a run of
its own would take, bit for bit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .cluster import MODE_SIDES, orientation_rule, vertex_arms
from .gauge import _euclidean_norm
from .geometry import (
    TWO_PI,
    angle_of,
    cross2,
    integer_at_least,
    positive_number,
    rotate_ccw,
    rotate_cw,
    row_norms,
    unit_dir,
    wrap_angle,
)


def _equal_fields(self, other):
    """Dataclass equality that compares ndarray fields by dtype, shape and
    bytes, and every other field with ==."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        x, y = getattr(self, f.name), getattr(other, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (
                isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                and (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()
            ):
                return False
        elif not x == y:
            return False
    return True


@dataclass
class FermatResult:
    """stop says why the solve ended: "converged" (a terminal certified as
    the minimizer, or the gradient norm fell to tol * scale), "stalled" (no
    acceptable step) or "budget" (max_iter steps taken, the last one
    unchecked)."""

    point: np.ndarray
    value: float
    iterations: int
    gradient_norm: float
    stop: str
    degenerate_vertex: int | None = None
    collinear: bool = False

    __eq__ = _equal_fields


@dataclass
class AdmissibleTriple:
    """A reference point a and an admissible pair {b, c}.

    a, b and c are points on the unit-ball boundary of the gauge that was
    passed to admissible_pairs, not Cahn-Hoffman vectors (gauge gradients);
    their gradients sum to zero within residual. angle_b and angle_c are
    the Euclidean angles between a and each partner point.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    angle_b: float  # euclidean angle between unit-ball points a and b, radians in (0, pi]
    angle_c: float
    residual: float
    iterations: int

    __eq__ = _equal_fields


# the terminal certificate reads each arm's one-sided slope on this many
# equally spaced unit directions, and their negatives, in one gauge call.
# The bound between samples shrinks as 1/N: at N = 256 it missed a terminal
# minimiser whose sampled margin was 0.0252 (bound 0.0261), the shifted
# disk (0.2, -0.1) with "out" arms on a triangle of the junctions workload
CERTIFICATE_DIRECTIONS = 512
_CERT_U = unit_dir(np.arange(CERTIFICATE_DIRECTIONS) * (TWO_PI / CERTIFICATE_DIRECTIONS))
_CERT_PM_U = np.concatenate([_CERT_U, -_CERT_U])
for _a in (_CERT_U, _CERT_PM_U):
    _a.flags.writeable = False
# a unit direction lies within 2 sin(pi/(2N)) of a sample, and a gauge's
# largest value on the circle is at most its largest sample / cos(pi/N)
# (the sampled N-gon holds the disk of radius cos(pi/N)); the slack covers
# the rounding of the sampled slopes, relative to their Lipschitz bound
_CERT_GAP = 2.0 * np.sin(np.pi / (2 * CERTIFICATE_DIRECTIONS))
_CERT_COS = np.cos(np.pi / CERTIFICATE_DIRECTIONS)
_CERT_SLACK = 64 * np.finfo(float).eps


def fermat_point(gauge, a, b, c, modes=("out", "out", "out"), tol=1e-10, max_iter=5000):
    """Minimize the three-terminal anisotropic junction objective.

    gauge weighs oriented segments (a tangent gauge); modes pick each
    terminal's orientation: 'out' costs gauge(X - P), 'in' costs
    gauge(P - X), 'sym' averages both. Each arm is priced, value and
    gradient, with the coefficients cluster.orientation_rule gives its
    MODE_SIDES labels, all six one-sided weights in one gauge call.
    Terminals must be finite and pairwise distinct; tol is a positive
    finite number and max_iter an integer >= 1.

    First a terminal test (Kuhn's vertex-optimality test, made exact for a
    convex gauge by a Lipschitz bound between sampled directions) settles a
    minimizer that is a terminal: the result is that terminal, bit for bit,
    with iterations 0, gradient_norm 0.0 (the least-norm subgradient),
    stop "converged" and degenerate_vertex set. Otherwise a BFGS descent
    with Armijo backtracking from a unit step runs from the centroid:
    every trial point costs one value call, and the gradient is taken at
    the start, at accepted points and at trials whose value ties the
    current one within 4 ulps (such a trial is accepted when it halves the
    gradient norm). The inverse Hessian starts at scale/4 times the
    identity and is reset to it when it gives no descent direction, and
    once when a line search along it fails. The descent stops when the
    gradient norm drops below tol * scale, when no acceptable step remains
    or after max_iter steps; FermatResult.stop says which. A minimizer
    within 1e-8 * scale of a terminal is snapped to it and flagged as
    degenerate.
    """
    positive_number("tol", tol)
    integer_at_least("max_iter", max_iter, 1)
    if isinstance(modes, str) or len(modes) != 3:
        raise ValueError("need exactly three modes, one per terminal")
    for mode in modes:
        if mode not in MODE_SIDES:
            raise ValueError(f"unknown mode {mode!r}")
    left, right = np.array([MODE_SIDES[m] for m in modes]).T
    pts = np.array([a, b, c], dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("terminals must be finite")
    dists = [_norm(pts[i] - pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    scale = max(dists)
    if scale <= 0 or min(dists) < 1e-12:
        raise ValueError("terminals must be pairwise distinct")
    area2 = abs(float(cross2(pts[1] - pts[0], pts[2] - pts[0])))
    collinear = bool(area2 < 1e-12 * scale * scale)

    # orientation_rule is linear in its two one-sided weights, so each arm's
    # coefficients, (1, 0) for out, (0, 1) for in and (1/2, 1/2) for sym, are
    # taken from it once. They round as its selection and mean do:
    # x*1 + y*0 = x, and x/2 + y/2 = (x + y)/2 since halving is exact
    fwd = orientation_rule(1.0, 0.0, left, right)
    rev = orientation_rule(0.0, 1.0, left, right)
    dfwd, drev = -fwd[:, None], rev[:, None]
    # the six arms X - P, then P - X (negation is exact, so -(X - P) = P - X)
    both = np.concatenate([pts, pts])
    sides = np.array([[1.0]] * 3 + [[-1.0]] * 3)

    def value(p):
        # one gauge call for the six one-sided weights, gauge(X - P) then
        # gauge(P - X), summed in terminal order, one term at a time (sum()
        # of floats compensates its rounding from Python 3.12 on)
        h = gauge.value((both - p) * sides)
        w = (h[:3] * fwd + h[3:] * rev).tolist()
        return w[0] + w[1] + w[2]

    def gradient(p):
        # d/dP of the forward weight is -grad(X - P), of the reverse one grad(P - X)
        dh = gauge.grad((both - p) * sides)
        dw = dh[:3] * dfwd + dh[3:] * drev
        return np.zeros(2) + dw[0] + dw[1] + dw[2]

    k = _certified_terminal(gauge, pts, fwd, rev)
    if k is not None:
        p = pts[k].copy()
        return FermatResult(point=p, value=value(p), iterations=0, gradient_norm=0.0,
                            stop="converged", degenerate_vertex=k, collinear=collinear)

    p = pts.mean(axis=0)
    fval, grad = value(p), gradient(p)
    gn = _norm(grad)
    h0 = 0.25 * scale * np.eye(2)
    hinv = h0
    restarted = False
    it = 0
    stop = "budget"
    for it in range(1, max_iter + 1):
        if gn <= tol * scale:
            stop = "converged"
            break
        d = -(hinv @ grad)
        slope = float(grad @ d)
        if not slope < 0:
            hinv = h0
            d = -(hinv @ grad)
            slope = float(grad @ d)
        t = 1.0
        floor = 1e-16 * scale / _norm(d)
        cand = None
        while t > floor:
            trial = p + t * d
            fc = value(trial)
            if fc < fval + 1e-4 * t * slope:
                cand, gc = trial, gradient(trial)
                break
            # a value within rounding of the current one cannot decide the
            # step; the gradient norm does, if the trial at least halves it
            if abs(fc - fval) <= 4.0 * np.spacing(abs(fval)):
                gc = gradient(trial)
                if _norm(gc) <= 0.5 * gn:
                    cand = trial
                    break
            t *= 0.5
        if cand is None:
            if hinv is not h0 and not restarted:
                # the curvature model may be what failed: retry along -H0 g, once
                hinv, restarted = h0, True
                continue
            stop = "stalled"
            break
        s, y = cand - p, gc - grad
        sy = float(s @ y)
        if sy > 0:
            # the BFGS update of the inverse Hessian, (I - s y'/sy) H (I - y s'/sy) + s s'/sy
            hy = hinv @ y
            hinv = hinv + ((sy + float(y @ hy)) / sy * (s[:, None] * s) - hy[:, None] * s - s[:, None] * hy) / sy
        p, fval, grad = cand, fc, gc
        gn = _norm(grad)
    degenerate = None
    d2term = np.linalg.norm(pts - p, axis=1)
    k = int(np.argmin(d2term))
    if d2term[k] <= 1e-8 * scale:
        p = pts[k].copy()
        fval = value(p)
        degenerate = k
    return FermatResult(point=p, value=fval, iterations=it, gradient_norm=gn, stop=stop,
                        degenerate_vertex=degenerate, collinear=collinear)


def _certified_terminal(gauge, pts, fwd, rev):
    """The terminal k proved to minimize the junction objective, or None.

    For P = X_k + s u (s > 0, u a unit vector), convexity of the other two
    arms gives F(P) - F(X_k) >= s (g_k . u + phi_k(u)), where g_k is their
    gradient (any subgradient) at X_k and phi_k(u) = fwd_k h(-u) + rev_k h(u)
    is arm k's one-sided slope. X_k is certified when that bound is
    positive in every direction: its least value over the sampled
    directions exceeds a Lipschitz bound on its change between neighbouring
    samples, plus a rounding slack. One grad call prices the arms at the
    three terminals and one value call the sampled directions.
    """
    n = CERTIFICATE_DIRECTIONS
    # the six arms X_j - X_k, then X_k - X_j, for each terminal k
    arms = pts[None, :, :] - pts[:, None, :]
    dh = gauge.grad(np.concatenate([arms, -arms], axis=1).reshape(18, 2)).reshape(3, 6, 2)
    dw = dh[:, :3] * -fwd[None, :, None] + dh[:, 3:] * rev[None, :, None]
    # arm k is not differentiable at X_k: its rows are masked out
    dw[np.arange(3), np.arange(3)] = 0.0
    g = dw.sum(axis=1)
    h = _certificate_values(gauge)
    phi = fwd[:, None] * h[None, n:] + rev[:, None] * h[None, :n]
    # elementwise, so that no row's rounding depends on the other rows
    psi = g[:, :1] * _CERT_U[:, 0] + g[:, 1:] * _CERT_U[:, 1] + phi
    lip = np.hypot(g[:, 0], g[:, 1]) + phi.max(axis=1) / _CERT_COS
    certified = np.flatnonzero(psi.min(axis=1) > lip * (_CERT_GAP + _CERT_SLACK))
    return int(certified[0]) if len(certified) else None


_CERT_VALUES = weakref.WeakKeyDictionary()


def _certificate_values(gauge):
    """gauge.value at the sampled directions and their negatives, priced
    once per gauge instance and kept read-only."""
    h = _CERT_VALUES.get(gauge)
    if h is None:
        h = gauge.value(_CERT_PM_U)
        h.flags.writeable = False
        _CERT_VALUES[gauge] = h
    return h


def fermat_modes_for_colors(colors):
    """Terminal modes matching a junction's sector colors.

    colors[i] labels the sector swept clockwise from direction i to
    direction i+1 (cyclic). All colored: every terminal is two-sided. One
    white sector: the two arcs bounding it carry full one-sided weights.
    """
    colors = list(colors)
    if len(colors) != 3:
        raise ValueError("need exactly three sector colors")
    whites = [i for i, c in enumerate(colors) if c == 0]
    if len(whites) == 0:
        return ("sym", "sym", "sym"), 0
    if len(whites) > 1:
        raise ValueError("at most one white sector around a triple junction")
    w = whites[0]
    modes = ["sym", "sym", "sym"]
    modes[w] = "out"
    modes[(w + 1) % 3] = "in"
    return tuple(modes), w


@dataclass
class JunctionInfo:
    vertex: int
    point: np.ndarray
    n_arms: int
    arms: list
    sector_colors: list
    non_triple: bool


def detect_junctions(cluster):
    """Vertices where three or more arms and distinct labels meet, in vertex
    order, with their arms clockwise as cluster.vertex_arms gives them.
    sector_colors[i], arm i's right label, is the label swept clockwise from
    arm i to arm i+1, as junction_residual takes it. Junctions with other
    than three arms are flagged non_triple."""
    out = []
    for v, arms in sorted(vertex_arms(cluster).items()):
        labels = {a["left"] for a in arms} | {a["right"] for a in arms}
        if len(arms) < 3 or len(labels) < 3:
            continue
        out.append(
            JunctionInfo(
                vertex=int(v),
                point=cluster.vertices[v].copy(),
                n_arms=len(arms),
                arms=arms,
                sector_colors=[a["right"] for a in arms],
                non_triple=len(arms) != 3,
            )
        )
    return out


def junction_residual(density, origin, directions, colors):
    """Stationarity residual of a triple junction at a point.

    density: a Density (its normal gauge is frozen at origin) or a plain
    normal-based Gauge. directions: three outgoing arc vectors ordered
    clockwise. colors[i] is the label of the sector swept clockwise from
    directions[i] to directions[i+1]; label 0 is white and at most one
    sector may be white. Arm i has colors[i] on its right and colors[i-1]
    on its left, and its weight's gradient follows the orientation rule of
    cluster.segment_weights, so the residual is minus the gradient, with
    respect to the junction point, of the arms' perimeter. Zero residual is
    the first-order stationarity condition for the junction.
    """
    gauge = density.gauge_at(origin) if hasattr(density, "gauge_at") else density
    dirs = np.asarray(directions, dtype=float)
    if dirs.shape != (3, 2):
        raise ValueError("need exactly three directions")
    if (_euclidean_norm(dirs) < 1e-300).any():
        raise ValueError("directions must be nonzero")
    th = angle_of(dirs)
    # clockwise gaps sum to 2 pi (4 pi counterclockwise): np.isclose's test
    if not abs(wrap_angle(th - th[[1, 2, 0]]).sum() - TWO_PI) <= 1e-9 + 1e-5 * TWO_PI:
        raise ValueError("directions must be ordered clockwise")
    colors = np.asarray(colors, dtype=int)
    if colors.shape != (3,):
        raise ValueError("need exactly three sector colors")
    whites = np.flatnonzero(colors == 0)
    if len(whites) > 1:
        raise ValueError("at most one white sector around a triple junction")
    # the white sector first, so its two arms are summed first
    arms = (np.arange(3) + (whites[0] if len(whites) else 0)) % 3
    return arm_forces(gauge, dirs[arms], colors[arms - 1], colors[arms]).sum(axis=0)


def arm_forces(gauge, dirs, left, right):
    """Minus the gradient, with respect to a junction point, of the weight
    of each arm leaving it along dirs[i] with labels left[i] and right[i],
    priced by cluster.orientation_rule: nothing where the labels are equal."""
    normal = rotate_cw(dirs)
    # gradients of the one-sided weights h(rotate_cw d) and h(-rotate_cw d),
    # in one gauge call for the normals and their negatives
    g = gauge.grad(np.concatenate([normal, -normal]))
    n = len(normal)
    fwd, rev = rotate_ccw(g[:n]), rotate_cw(g[n:])  # rotate_cw is -rotate_ccw
    return orientation_rule(fwd, rev, np.asarray(left)[:, None], np.asarray(right)[:, None])


# the scan's column blocks: n x n/12 block tests and 12 cell tests per
# passing block, against n x n cell tests
_CELL_BLOCK = 12
# the finite-difference Jacobian's step, and its probes: +eps and -eps
# along each angle in turn (the negated rows carry -0.0, so phi + probe
# rounds as phi - step does)
_FD_EPS = 1e-7
_FD_PROBES = _FD_EPS * np.array([[1.0, 0.0], [-1.0, -0.0], [0.0, 1.0], [-0.0, -1.0]])


def admissible_pairs(gauge, a, resolution=720, tol=1e-9):
    """All boundary pairs {B, C} forming a stationary triple with A.

    Scans the (phi_B, phi_C) torus, resolution >= 16 angles a side, for cells
    whose corners bracket zero in both components of grad(A) + grad(B) +
    grad(C): per-axis corner bounds test both components on blocks of
    columns, then cell by cell (_bracketing_cells). Refines every cell with
    damped Newton on finite-difference Jacobians (at most 60 steps), all
    cells in lockstep, one gauge call per stage
    (_lockstep_newton); keeps roots with residual below tol (a positive
    finite number), and deduplicates unordered pairs. Requires a smooth
    gauge.

    A is scaled onto the unit ball; B and C are unit-ball boundary points
    of the gauge passed, not Cahn-Hoffman vectors. The balance is on their
    gradients, not on the points: for h = ||.||_p and A = (0, 1) the pair is
    (+-x, -2**(-1/(p-1))) with x**p = 1 - 2**(-q), q = p/(p-1), so the
    angle alpha from A to either partner obeys
    tan(alpha) = -(2**q - 1)**(1/p). Three unit-ball points that themselves
    sum to zero obey tan(alpha) = -(2**p - 1)**(1/p) instead; the two laws
    agree only at p = 2.
    """
    integer_at_least("resolution", resolution, 16)
    positive_number("tol", tol)
    if not gauge.smooth:
        raise ValueError("kinked gauge: admissible pairs need a C1 gauge")
    a = np.asarray(a, dtype=float)
    va = float(gauge.value(a))
    if va <= 0:
        raise ValueError("reference point must be nonzero")
    a = a / va
    g0 = gauge.grad(a)
    phi_a = float(angle_of(a))

    n = int(resolution)
    phis = np.arange(n) * (TWO_PI / n)
    cells = _bracketing_cells(g0, gauge.grad(unit_dir(phis)))
    if not len(cells):
        return []

    def residual(phi):
        # phi (..., 2): the gradients at both angles of each pair, from one gauge call
        g = gauge.grad(unit_dir(phi))
        return g0 + g[..., 0, :] + g[..., 1, :]

    h_cell = TWO_PI / n
    phi, its = _lockstep_newton(residual, phis[cells] + 0.5 * h_cell, tol, 60)
    phi = wrap_angle(phi)
    # reject triples with coincident directions
    d = np.column_stack([phi[:, 0] - phi_a, phi[:, 1] - phi_a, phi[:, 0] - phi[:, 1]])
    keep = ~(np.minimum(wrap_angle(d), wrap_angle(-d)).min(axis=1) < 1e-6)
    phi, its = phi[keep], its[keep]
    roots = list(zip(phi, row_norms(residual(phi)).tolist(), its.tolist())) if len(phi) else []

    # deduplicate unordered pairs on the torus
    uniq = []
    merge_tol = 0.75 * h_cell
    for phi, res, its in sorted(roots, key=lambda t: (t[0][0], t[0][1])):
        cands = [phi, phi[::-1]]
        dup = False
        for u, _, _ in uniq:
            for c in cands:
                d = np.minimum(wrap_angle(c - u), wrap_angle(u - c))
                if np.all(d < merge_tol):
                    dup = True
                    break
            if dup:
                break
        if not dup:
            uniq.append((phi, res, its))

    out = []
    for phi, res, its in uniq:
        b = gauge.boundary_point(phi[0])
        c = gauge.boundary_point(phi[1])
        ab = _point_angle(a, b)
        ac = _point_angle(a, c)
        if ab > ac:  # report the smaller-angle partner first, deterministically
            b, c = c, b
            ab, ac = ac, ab
        out.append(
            AdmissibleTriple(a=a.copy(), b=b, c=c, angle_b=ab, angle_c=ac, residual=res, iterations=its)
        )
    out.sort(key=lambda t: (t.angle_b, t.angle_c))
    return out


def _lockstep_newton(residual, phi, tol, max_newton):
    """Damped Newton on finite-difference Jacobians from every row of phi
    (k, 2) at once: the rows that converge, in row order, and the
    iteration at which each did.

    Each row takes the steps a Newton run of its own would take: up to
    max_newton residual checks, each below tol ending the row's run and
    each above it taking one step, the Jacobian from central differences
    of step _FD_EPS, and the step halved from 1 until the residual norm
    falls (the row fails below 1e-6, or on a singular Jacobian or a
    non-finite step). Every stage (the start, the four probes, each trial
    of the line search) is one residual call over the rows it concerns,
    and the rows share the iteration count and the trial step.
    """
    r = residual(phi)
    rn = row_norms(r)
    its = np.zeros(len(phi), dtype=int)
    live = np.arange(len(phi))
    for it in range(1, max_newton + 1):
        done = rn[live] < tol
        its[live[done]] = it
        live = live[~done]
        if not len(live) or it == max_newton:
            break
        # central differences along each angle, the four probes of every row in one call
        rp = residual(phi[live, None, :] + _FD_PROBES)
        J = ((rp[:, 0::2] - rp[:, 1::2]) / (2 * _FD_EPS)).transpose(0, 2, 1)
        delta = _solve(J, -r[live])
        finite = np.isfinite(delta).all(axis=1)
        live, delta = live[finite], delta[finite]
        lam = 1.0
        search = np.arange(len(live))
        while lam > 1e-6 and len(search):
            rows = live[search]
            cand = phi[rows] + lam * delta[search]
            rc = residual(cand)
            rcn = row_norms(rc)
            better = rcn < rn[rows]
            rows = rows[better]
            phi[rows], r[rows], rn[rows] = cand[better], rc[better], rcn[better]
            search = search[~better]
            lam *= 0.5
        # the rows whose line search found no step
        live = np.delete(live, search)
    ok = its > 0
    return phi[ok], its[ok]


def _solve(J, b):
    """np.linalg.solve(J[k], b[k]) for each k, as one batch; a row whose
    matrix is singular gets NaN. The batch raises when any matrix is
    singular, and then the rows are solved one at a time."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = np.full(b.shape, np.nan)
    for k in range(len(b)):
        try:
            out[k] = np.linalg.solve(J[k], b[k])
        except np.linalg.LinAlgError:
            pass
    return out


def _norm(x):
    """np.linalg.norm of a 1-d vector x, which is sqrt(x.dot(x)), without
    its wrapper (the dot may fuse a multiply-add, so no elementwise formula
    stands in for it)."""
    return math.sqrt(x.dot(x))


def _bracketing_cells(g0, grads):
    """Cells (i, j), row-major, whose corners (i or i+1 by j or j+1, cyclic)
    bracket zero in both components of F[i, j] = g0 + grads[i] + grads[j].

    Both components are tested first on blocks of _CELL_BLOCK consecutive
    columns: a row can bracket in some cell of a block only if it passes
    against the block's largest -lo and least -hi, and component 1's bounds
    are applied to the (row, block) pairs that pass component 0's. Only the
    cells of the blocks that pass both are tested one by one, component 0
    first and component 1 on the cells that survive, so the cells and their
    order are those of the full n x n test.
    """
    n = len(grads)
    nxt = np.roll(grads, -1, axis=0)
    lo, hi = np.minimum(grads, nxt), np.maximum(grads, nxt)
    # rounding is monotone, so F's least corner rounds to fl(fl(g0 + lo[i]) + lo[j]) and
    # its greatest likewise with hi; and fl(x + y) <= 0 exactly when x <= -y
    row_lo, row_hi = g0 + lo, g0 + hi
    col_lo, col_hi = -lo, -hi
    starts = np.arange(0, n, _CELL_BLOCK)
    # fmax and fmin skip NaN, so a NaN column cannot hide its block's others
    blk_lo, blk_hi = np.fmax.reduceat(col_lo, starts), np.fmin.reduceat(col_hi, starts)
    i, blk = np.nonzero((row_lo[:, None, 0] <= blk_lo[:, 0]) & (row_hi[:, None, 0] >= blk_hi[:, 0]))
    keep = (row_lo[i, 1] <= blk_lo[blk, 1]) & (row_hi[i, 1] >= blk_hi[blk, 1])
    i, blk = i[keep], blk[keep]
    j = (starts[blk][:, None] + np.arange(_CELL_BLOCK)).ravel()
    i = np.repeat(i, _CELL_BLOCK)
    inside = j < n
    i, j = i[inside], j[inside]
    keep = (row_lo[i, 0] <= col_lo[j, 0]) & (row_hi[i, 0] >= col_hi[j, 0])
    i, j = i[keep], j[keep]
    keep = (g0[1] + lo[i, 1] + lo[j, 1] <= 0) & (g0[1] + hi[i, 1] + hi[j, 1] >= 0)
    return np.column_stack([i[keep], j[keep]])


def _point_angle(u, v):
    cosang = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))
