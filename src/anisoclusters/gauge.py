"""Convex gauges on the plane.

A gauge is a convex, positively 1-homogeneous function that is positive away
from the origin. Its unit ball {v : value(v) <= 1} is a convex body containing
the origin in its interior; asymmetric balls give asymmetric gauges.

A Density's gauge is a function of the normal. A segment traversed with a
chamber on its left costs the gauge at its tangent rotated clockwise, that
chamber's outward normal. cluster.orientation_rule says how the two sides
of a segment combine; steiner.junction_residual differentiates the same
rule at a triple junction.
"""

from __future__ import annotations

import sys

import numpy as np

from .geometry import (
    TWO_PI,
    angle_between,
    cross2,
    positive_number,
    rotate_ccw,
    unit_dir,
    wrap_angle,
)


class Gauge:
    """Base class: positively 1-homogeneous convex plane gauge."""

    kind = "abstract"
    #: True when the gauge is C^1 away from the origin.
    smooth = True
    #: True when value(-v) == value(v) and grad(-v) == -grad(v) hold bit for
    #: bit by construction. cluster.oriented_weight, which prices the
    #: solver's and the slice moves' segments, relies on it: it prices one
    #: side of every segment and takes it for both, so a gauge that sets it
    #: and breaks it changes every perimeter the solver and the slice moves
    #: see.
    symmetric = False

    def value(self, v):
        raise NotImplementedError

    def grad(self, v):
        """A (sub)gradient at each v; 0-homogeneous away from the origin."""
        raise NotImplementedError

    def continuation(self):
        """Smooth surrogate gauges that converge to this one, coarsest first.

        The solver descends on each surrogate in turn before the gauge
        itself, so a kinked gauge is approached through smooth objectives
        (homotopy continuation). Empty for gauges that need none.
        """
        return ()

    def boundary_point(self, theta):
        """Point of the unit ball boundary in direction theta."""
        u = unit_dir(theta)
        return u / self.value(u)[..., None]

    def params(self):
        return {}

    def spec(self):
        d = {"kind": self.kind}
        d.update(self.params())
        return d

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"


def _euclidean_norm(v):
    """np.linalg.norm(v, axis=-1)'s formula, sqrt(x^2 + y^2) summed in that
    order, without its reduction over an axis of two."""
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


class EuclideanGauge(Gauge):
    kind = "euclidean"
    symmetric = True

    def value(self, v):
        return _euclidean_norm(np.asarray(v, dtype=float))

    def grad(self, v):
        # the norm from the shared helper, not from self.value: a profiler
        # that wraps value would count the nested call as an outer one
        v = np.asarray(v, dtype=float)
        n = _euclidean_norm(v)[..., None]
        return np.where(n > 0, v / np.where(n > 0, n, 1.0), 0.0)


class LpGauge(Gauge):
    """Gauge with unit ball {|x|^p + |y|^p <= 1}; p = inf gives max(|x|, |y|)."""

    symmetric = True

    def __init__(self, p):
        if isinstance(p, (bool, np.bool_)) or (p != np.inf and not p >= 1):
            raise ValueError("p must be >= 1 or inf")
        self.p = float(p)
        self.smooth = p not in (1.0, np.inf)
        self._max_norm = self.p == np.inf

    @property
    def kind(self):
        return "lp"

    def params(self):
        return {"p": self.p if np.isfinite(self.p) else "inf"}

    def continuation(self):
        # max <= l^p <= 2^(1/p) max: these come within 9, 2.2 and 0.5 % of
        # the max norm
        if self._max_norm:
            return (LpGauge(8), LpGauge(32), LpGauge(128))
        return ()

    def value(self, v):
        return self._value_of_abs(np.abs(np.asarray(v, dtype=float)))

    def _value_of_abs(self, a):
        """The gauge of the vectors whose coordinates' magnitudes are a."""
        m = np.maximum(a[..., 0], a[..., 1])
        if self._max_norm:
            return m
        r = np.divide(a, m[..., None], out=np.zeros_like(a), where=m[..., None] > 0)
        # ufunc powers only: the ** of a numpy scalar, which a single vector
        # reaches, rounds differently from the batched ufunc loop
        rp = r**self.p
        return m * np.power(rp[..., 0] + rp[..., 1], 1.0 / self.p)

    def grad(self, v):
        v = np.asarray(v, dtype=float)
        a = np.abs(v)
        s = np.sign(v)
        if self._max_norm:
            # subgradient: the max coordinate wins; split evenly on ties
            is_max = a >= a.max(axis=-1)[..., None] - 0.0
            tie = a[..., 0] == a[..., 1]
            g = np.where(is_max, s, 0.0)
            g = np.where(tie[..., None], 0.5 * g, g)
            return g
        if self.p == 1.0:
            return s
        val = self._value_of_abs(a)
        r = np.divide(a, val[..., None], out=np.zeros_like(a), where=val[..., None] > 0)
        return r ** (self.p - 1.0) * s


def _circle_gauge_value(v, centers, radius):
    """Minkowski functional of a circle |x - c| = radius, vectorized.

    centers broadcasts against v; requires |c| < radius so the origin is
    interior. Solves lam^2 (R^2-|c|^2) + 2 lam (v.c) - |v|^2 = 0.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(centers, dtype=float)
    a = radius * radius - (c * c).sum(axis=-1)
    return _circle_root(a, (v * c).sum(axis=-1), (v * v).sum(axis=-1))


def _circle_root(a, vc, vv):
    """The positive root lam of lam^2 a + 2 lam vc - vv = 0, a = R^2 - |c|^2."""
    return (-vc + np.sqrt(vc * vc + a * vv)) / a


def _circle_gauge_grad(v, centers, radius):
    v = np.asarray(v, dtype=float)
    c = np.asarray(centers, dtype=float)
    lam = _circle_gauge_value(v, centers, radius)
    w = v - lam[..., None] * c
    denom = (c * w).sum(axis=-1) + lam * radius * radius
    with np.errstate(divide="ignore", invalid="ignore"):
        g = w / denom[..., None]
    return np.where(lam[..., None] > 0, g, 0.0)


class ShiftedDiskGauge(Gauge):
    """Gauge whose unit ball is an off-center disk; asymmetric when shifted."""

    kind = "shifted-disk"

    def __init__(self, center, radius=1.0):
        center = np.asarray(center, dtype=float)
        if center.shape != (2,):
            raise ValueError("center must be a plane point")
        positive_number("radius", radius)
        if not radius > np.linalg.norm(center):
            raise ValueError("origin must be interior: |center| < radius")
        self.center = center
        self.radius = float(radius)
        self.symmetric = bool(np.all(center == 0.0))

    def params(self):
        return {"center": self.center.tolist(), "radius": self.radius}

    def value(self, v):
        return _circle_gauge_value(v, self.center, self.radius)

    def grad(self, v):
        return _circle_gauge_grad(v, self.center, self.radius)


class SmoothedL1Gauge(Gauge):
    """Four-arc ball through the corners (+-1, +-1), arc curvature kappa.

    The straight sides of the square ball are replaced by outward-bulging
    circular arcs of radius 1/kappa, keeping the four corners. The result is
    strictly convex and uniformly round but still kinked at the corners.
    Requires 0 < kappa < 1/sqrt(2); beyond that the corner angles invert.
    """

    kind = "smoothed-l1"
    smooth = False
    symmetric = True

    def __init__(self, kappa):
        if not 0.0 < kappa < 1.0 / np.sqrt(2.0):
            raise ValueError("kappa must lie in (0, 1/sqrt(2))")
        self.kappa = float(kappa)
        r = 1.0 / kappa
        s = np.sqrt(r * r - 1.0)  # center offset so the arc passes through both corners
        # arc centers for directions around 0, 90, 180, 270 degrees
        self.centers = np.array([[1 - s, 0], [0, 1 - s], [s - 1, 0], [0, s - 1]])
        self.arc_radius = r
        # every centre is 1 - s along an axis, so R^2 - |c|^2 is one number
        self._offset = float(1 - s)
        self._shift = r * r - self._offset * self._offset

    def params(self):
        return {"kappa": self.kappa}

    def _sector(self, v):
        """Index k of the arc around direction k * 90 degrees that prices v:
        arc 0 or 2 where |x| > |y|, by the sign of x, else arc 1 or 3, by the
        sign of y. Exact comparisons give v and -v opposite arcs, which the
        symmetric flag needs bit for bit (arctan2 of v and of -v can round to
        different sides of a corner); where |x| == |y| both arcs meeting at
        the corner price v alike."""
        a = np.abs(v)
        vertical = a[..., 0] <= a[..., 1]
        along = np.where(vertical, v[..., 1], v[..., 0])
        return vertical + 2 * (along <= 0)

    def value(self, v):
        # _circle_gauge_value at the centre _sector picks, without gathering
        # it: that centre's one nonzero coordinate is 1 - s on the side of
        # v's larger coordinate, so v . c is (1 - s) max(|x|, |y|) (the other
        # product is a zero, which adds exactly)
        v = np.asarray(v, dtype=float)
        a = np.abs(v)
        vc = self._offset * np.maximum(a[..., 0], a[..., 1])
        return _circle_root(self._shift, vc, (v * v).sum(axis=-1))

    def grad(self, v):
        v = np.asarray(v, dtype=float)
        smoothmask = self._off_corner(v)
        c = self.centers[self._sector(v)]
        g = _circle_gauge_grad(v, c, self.arc_radius)
        if np.all(smoothmask):
            return g
        # corner directions: average the one-sided gradients of the two arcs
        # meeting there (a valid subgradient of the max of the two supporting
        # circle gauges); the corner at angle (2k+1) pi/4 joins arcs k and k+1
        k = np.mod(np.floor(np.arctan2(v[..., 1], v[..., 0]) / (np.pi / 2)).astype(int), 4)
        g1 = _circle_gauge_grad(v, self.centers[k], self.arc_radius)
        g2 = _circle_gauge_grad(v, self.centers[np.mod(k + 1, 4)], self.arc_radius)
        mid = 0.5 * (g1 + g2)
        return np.where(smoothmask[..., None], g, mid)

    def _off_corner(self, v):
        """False at the origin and along the corner directions |x| == |y|,
        where the gradient is not unique."""
        ok = np.linalg.norm(v, axis=-1) > 0
        return ok & (np.abs(np.abs(v[..., 0]) - np.abs(v[..., 1])) > 1e-12 * np.abs(v).max(axis=-1))


class TabulatedGauge(Gauge):
    """Gauge interpolated from samples on the unit circle.

    ``values[k]`` is the gauge at angle 2*pi*k/n; a periodic cubic spline
    interpolates the angular profile and supplies analytic derivatives.
    """

    kind = "tabulated"

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 8:
            raise ValueError("need a 1d profile with at least 8 samples")
        if not np.all(values > 0):
            raise ValueError("profile must be positive")
        self.values = values
        n = len(values)
        self._step = TWO_PI / n
        # second derivatives of the spline at the knots: the periodic system
        # M[k-1] + 4 M[k] + M[k+1] = 6/h^2 (y[k-1] - 2 y[k] + y[k+1]) is
        # circulant with eigenvalues 4 + 2 cos(2 pi j / n) >= 2, so one FFT
        # divide solves it
        rhs = (6.0 / self._step**2) * (np.roll(values, 1) - 2.0 * values + np.roll(values, -1))
        eig = 4.0 + 2.0 * np.cos(TWO_PI * np.arange(n // 2 + 1) / n)
        self._moments = np.fft.irfft(np.fft.rfft(rhs) / eig, n)
        # exact equality: knots that agree only to rounding give a profile
        # whose value(v) and value(-v) differ by that rounding
        self.symmetric = bool(n % 2 == 0 and np.array_equal(values, np.roll(values, n // 2)))
        # convexity of the interpolated ball: its boundary, traversed
        # counterclockwise, must never turn clockwise
        tt = np.arange(1024) * (TWO_PI / 1024)
        pts = unit_dir(tt) / self._spline(tt)[0][:, None]
        e = np.roll(pts, -1, axis=0) - pts
        turn = cross2(e, np.roll(e, -1, axis=0))
        if turn.min() < -1e-12 * (e * e).sum(axis=-1).max():
            raise ValueError("profile is not the boundary of a convex ball")

    def params(self):
        return {"values": self.values.tolist()}

    def _spline(self, theta):
        """Spline value and angular derivative at angles theta in [0, 2*pi]."""
        n, h = len(self.values), self._step
        k = np.minimum(np.floor(theta / h).astype(int), n - 1)
        t = theta - k * h
        s = h - t
        k1 = (k + 1) % n
        y0, y1 = self.values[k], self.values[k1]
        m0, m1 = self._moments[k], self._moments[k1]
        c0 = y0 - m0 * (h * h / 6.0)
        c1 = y1 - m1 * (h * h / 6.0)
        # np.power, not **: a numpy scalar's ** rounds unlike the batched ufunc
        val = (m0 * np.power(s, 3) + m1 * np.power(t, 3)) / (6.0 * h) + (c0 * s + c1 * t) / h
        der = (m1 * t * t - m0 * s * s) / (2.0 * h) + (y1 - y0) / h - (m1 - m0) * (h / 6.0)
        return val, der

    def _profile(self, v):
        """Spline value, angular derivative, angle and sign at directions v.

        A symmetric profile is read at whichever of v and -v lies in the
        upper half-plane (sign -1 when that is -v), so value(v) == value(-v)
        and grad(v) == -grad(-v) hold exactly, not only up to rounding.
        """
        sign = np.ones(v.shape[:-1])
        if self.symmetric:
            lower = (v[..., 1] < 0) | ((v[..., 1] == 0) & (v[..., 0] < 0))
            sign = np.where(lower, -1.0, 1.0)
            v = v * sign[..., None]
        theta = wrap_angle(np.arctan2(v[..., 1], v[..., 0]))
        return (*self._spline(theta), theta, sign)

    def value(self, v):
        v = np.asarray(v, dtype=float)
        r = np.linalg.norm(v, axis=-1)
        rho, _, _, _ = self._profile(v)
        return r * rho

    def grad(self, v):
        v = np.asarray(v, dtype=float)
        r = np.linalg.norm(v, axis=-1)
        rho, drho, theta, sign = self._profile(v)
        ct, st = np.cos(theta), np.sin(theta)
        g = np.stack([rho * ct - drho * st, rho * st + drho * ct], axis=-1) * sign[..., None]
        return np.where(r[..., None] > 0, g, 0.0)


def _apply(m, v):
    """m v for a 2x2 m given as nested floats, computed coordinate by
    coordinate: a matrix product rounds a single vector differently from a
    batch."""
    v = np.asarray(v, dtype=float)
    x, y = v[..., 0], v[..., 1]
    (a, b), (c, d) = m
    out = np.empty(v.shape)
    out[..., 0], out[..., 1] = a * x + b * y, c * x + d * y
    return out


class LinearGauge(Gauge):
    """base through an invertible linear map M: h(M v), with gradient
    M^T grad h(M v). Its unit ball is M^-1 times the base's; it is as smooth
    and as symmetric as the base, and its continuation ladder is the base's
    through the same M."""

    def __init__(self, base, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ValueError("matrix must be a finite 2x2")
        if m[0, 0] * m[1, 1] == m[0, 1] * m[1, 0]:
            raise ValueError("matrix must be invertible")
        self.base = base
        self.matrix = m
        self.smooth = base.smooth
        self.symmetric = base.symmetric
        self._m, self._mt = m.tolist(), m.T.tolist()

    @property
    def kind(self):
        return f"linear({self.base.kind})"

    def params(self):
        return {"base": self.base.spec(), "matrix": self.matrix.tolist()}

    def continuation(self):
        return tuple(LinearGauge(stage, self.matrix) for stage in self.base.continuation())

    def value(self, v):
        return self.base.value(_apply(self._m, v))

    def grad(self, v):
        return _apply(self._mt, self.base.grad(_apply(self._m, v)))


class EllipseGauge(LinearGauge):
    """sqrt(v . Q v) for symmetric positive definite Q: the Euclidean gauge
    through Q^(1/2), since |Q^(1/2) v|^2 = v . Q v."""

    kind = "ellipse"

    def __init__(self, matrix):
        q = np.asarray(matrix, dtype=float)
        if q.shape != (2, 2) or abs(q[0, 1] - q[1, 0]) > 1e-14:
            raise ValueError("matrix must be symmetric 2x2")
        self.q = 0.5 * (q + q.T)
        w, u = np.linalg.eigh(self.q)
        if w.min() <= 0:
            raise ValueError("matrix must be positive definite")
        root = (u * np.sqrt(w)) @ u.T
        super().__init__(EuclideanGauge(), 0.5 * (root + root.T))

    def params(self):
        return {"matrix": self.q.tolist()}


class RotatedGauge(LinearGauge):
    """base gauge with its unit ball rotated by a fixed angle: base through
    the rotation by -angle."""

    def __init__(self, base, angle):
        self.angle = float(angle)
        c, s = np.cos(self.angle), np.sin(self.angle)
        super().__init__(base, [[c, s], [-s, c]])

    @property
    def kind(self):
        return f"rotated({self.base.kind})"

    def params(self):
        return {"base": self.base.spec(), "angle": self.angle}


# kind: (class, {parameter: what it must be}), parameters in constructor order
_NUMBER, _LIST = "a finite number", "a list of finite numbers"
_SPEC_KINDS = {
    "euclidean": (EuclideanGauge, {}),
    "lp": (LpGauge, {"p": "a finite number or 'inf'"}),
    "ellipse": (EllipseGauge, {"matrix": _LIST}),
    "smoothed-l1": (SmoothedL1Gauge, {"kappa": _NUMBER}),
    "shifted-disk": (ShiftedDiskGauge, {"center": _LIST, "radius": _NUMBER}),
    "tabulated": (TabulatedGauge, {"values": _LIST}),
}


def gauge_from_spec(spec):
    """Build a gauge from its serialized form (kind tag plus parameters).
    Numbers must be finite and not booleans; an l^p gauge's p may also be
    "inf", the max norm."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("gauge spec must be a mapping with a 'kind' entry")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ValueError(f"unknown gauge kind {kind!r}")
    make, params = _SPEC_KINDS[kind]
    extra = {k: v for k, v in spec.items() if k != "kind"}
    unknown, missing = sorted(set(extra) - set(params)), sorted(set(params) - set(extra))
    if unknown or missing:
        parts = [f"unknown keys {unknown}"] if unknown else []
        parts += [f"missing keys {missing}"] if missing else []
        raise ValueError(f"gauge kind {kind!r}: " + ", ".join(parts))
    for key, what in params.items():
        value = extra[key]
        if kind == "lp" and value == "inf":
            extra[key] = np.inf
        elif isinstance(value, list) != (what == _LIST) or not _finite_numbers(value):
            raise ValueError(f"gauge kind {kind!r}: {key} must be {what}")
    return make(*(extra[key] for key in params))


def _finite_numbers(value):
    """True for a number (not a bool) a float holds finitely, or a list of them."""
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def unit_ball_boundary(gauge, n=256):
    """n points of {value == 1}, counterclockwise, starting at angle 0."""
    theta = np.arange(n) * (TWO_PI / n)
    return gauge.boundary_point(theta)


def strict_convexity_margin(gauge, n_dirs=256):
    """min over direction pairs of the midpoint convexity gap / angle^2.

    Zero (to machine precision) exactly when the sampled ball has a flat
    facet; bounded away from zero for strictly convex balls.
    """
    u = unit_dir(np.arange(n_dirs) * (TWO_PI / n_dirs))
    h = gauge.value(u)
    i, j = np.triu_indices(n_dirs, k=1)
    mid = 0.5 * (u[i] + u[j])
    gap = 0.5 * (h[i] + h[j]) - gauge.value(mid)
    ang = angle_between(u[i], u[j])
    keep = ang > 1e-9
    return float((gap[keep] / ang[keep] ** 2).min())


def roundedness_constant(gauge):
    """Largest c with (h(v+w)+h(v-w))/2 >= h(v) + c |w|^2 on a sample grid.

    v runs over 128 unit directions and w over 16 perpendicular vectors with
    |w| <= 1. For the euclidean gauge this converges to sqrt(2) - 1.
    """
    n_dirs, n_w = 128, 16
    u = unit_dir(np.arange(n_dirs) * (TWO_PI / n_dirs))
    perp = rotate_ccw(u)
    t = np.linspace(1.0 / n_w, 1.0, n_w)
    w = t[:, None, None] * perp[None, :, :]  # (n_w, n_dirs, 2)
    v = u[None, :, :]
    gap = 0.5 * (gauge.value(v + w) + gauge.value(v - w)) - gauge.value(v)
    return float((gap / t[:, None] ** 2).min())
