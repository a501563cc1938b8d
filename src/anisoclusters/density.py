"""Pairs of densities on a planar domain: volume weight g and normal gauge h.

The gauge may vary with position (a callable from a point to a Gauge); most
workloads use a single frozen gauge, for which every consumer takes a fast
fully-vectorized path: cluster.segment_weights prices its segments through
cluster.oriented_weight on that gauge, and only a gauge field goes through
h_at's per-point loop.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .gauge import Gauge, LinearGauge
from .geometry import TRIANGLE_RULE, positive_number, unit_dir


class Rect:
    """Axis-aligned rectangular domain."""

    def __init__(self, xmin, xmax, ymin, ymax):
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("empty rectangle")
        self.xmin, self.xmax, self.ymin, self.ymax = map(float, (xmin, xmax, ymin, ymax))

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        return (
            (pts[..., 0] >= self.xmin)
            & (pts[..., 0] <= self.xmax)
            & (pts[..., 1] >= self.ymin)
            & (pts[..., 1] <= self.ymax)
        )

    def sample(self, rng, n):
        x = rng.uniform(self.xmin, self.xmax, n)
        y = rng.uniform(self.ymin, self.ymax, n)
        return np.column_stack([x, y])


class DiskDomain:
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(positive_number("radius", radius))

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.linalg.norm(pts - self.center, axis=-1) <= self.radius

    def sample(self, rng, n):
        r = self.radius * np.sqrt(rng.uniform(0.0, 1.0, n))
        t = rng.uniform(0.0, 2 * np.pi, n)
        return self.center + r[:, None] * unit_dir(t)


class Density:
    """Volume density g and normal gauge field h on a domain.

    h_min and h_max bound the gauge over the domain and the unit circle of
    directions; they feed the isoperimetric and boundary-length diagnostics.
    A bound not given is probed from the gauge in 64 directions, at 32
    sampled points of the domain for a gauge field; one that is not finite
    (a gauge field that overflows there) is an error, and the caller passes
    h_min and h_max instead. g_const is the value of a constant g, and None
    when g is a callable. g_rule_sum is g_const times the weights of
    geometry.TRIANGLE_RULE, summed: the factor by which
    cluster.fan_volume_terms turns a signed fan area into its volume under a
    constant g, and None when g is a callable.
    """

    def __init__(self, gauge, g=1.0, domain=None, h_min=None, h_max=None):
        self.domain = domain if domain is not None else Rect(-1e6, 1e6, -1e6, 1e6)
        if isinstance(gauge, Gauge):
            self._gauge = gauge
            self.uniform_gauge = True
        elif callable(gauge):
            self._gauge = gauge
            self.uniform_gauge = False
        else:
            raise ValueError("gauge must be a Gauge or a callable point -> Gauge")
        if isinstance(g, Real) and not isinstance(g, bool):
            gval = float(positive_number("constant g", g))
            self._g = None
            self.g_const = gval
            self.g_rule_sum = (gval * TRIANGLE_RULE[1]).sum()
        elif callable(g):
            self._g = g
            self.g_const = None
            self.g_rule_sum = None
        else:
            raise ValueError("g must be a positive number or a callable")
        if h_min is None or h_max is None:
            lo, hi = self._probe_gauge_range()
            h_min = lo if h_min is None else h_min
            h_max = hi if h_max is None else h_max
        self.h_min = float(h_min)
        self.h_max = float(h_max)
        if not (np.isfinite(self.h_min) and np.isfinite(self.h_max)):
            raise ValueError(
                f"gauge bounds are not finite (h_min {self.h_min}, h_max {self.h_max}): "
                "a gauge field that overflows where the domain is probed needs h_min "
                "and h_max passed"
            )
        if not 0 < self.h_min <= self.h_max:
            raise ValueError("need 0 < h_min <= h_max")

    @classmethod
    def constant(cls, gauge, g=1.0, domain=None):
        return cls(gauge, g=g, domain=domain)

    def _probe_gauge_range(self):
        u = unit_dir(np.arange(64) * (2 * np.pi / 64))
        if self.uniform_gauge:
            vals = self._gauge.value(u)
            return float(vals.min()), float(vals.max())
        rng = np.random.default_rng(0)
        pts = self.domain.sample(rng, 32)
        lo, hi = np.inf, -np.inf
        for x in pts:
            vals = self._gauge(x).value(u)
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
        return lo, hi

    def gauge_at(self, x):
        if self.uniform_gauge:
            return self._gauge
        return self._gauge(np.asarray(x, dtype=float))

    def g_at(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.g_const is not None:
            return np.full(pts.shape[:-1], self.g_const)
        return np.asarray(self._g(pts), dtype=float)

    def h_at(self, pts, v):
        """Gauge values h(x, v) for matched batches of points and vectors.
        Only a gauge field reads the points: a uniform gauge prices v alone,
        and its callers may pass None for pts."""
        v = np.asarray(v, dtype=float)
        if self.uniform_gauge:
            return self._gauge.value(v)
        pts = np.asarray(pts, dtype=float)
        flat_p = pts.reshape(-1, 2)
        flat_v = v.reshape(-1, 2)
        out = np.empty(len(flat_p))
        for k in range(len(flat_p)):
            out[k] = self._gauge(flat_p[k]).value(flat_v[k])
        return out.reshape(pts.shape[:-1])

    def scaled(self, factor):
        """Density with both g and h multiplied by a positive constant; h goes
        through factor times the identity, the same by 1-homogeneity."""
        positive_number("factor", factor)
        base_gauge, scale = self._gauge, factor * np.eye(2)
        if self.uniform_gauge:
            gauge = LinearGauge(base_gauge, scale)
        else:
            gauge = lambda x: LinearGauge(base_gauge(x), scale)
        if self.g_const is not None:
            g = self.g_const * factor
        else:
            inner = self._g
            g = lambda pts: factor * np.asarray(inner(pts), dtype=float)
        return Density(gauge, g=g, domain=self.domain, h_min=self.h_min * factor, h_max=self.h_max * factor)


def ball_volume(density, center, radius):
    """Weighted volume of a disk via tensor quadrature in polar form: 48
    Gauss-Legendre radii by 96 equally spaced angles."""
    n_r, n_t = 48, 96
    center = np.asarray(center, dtype=float)
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * radius * (xr + 1.0)
    wr = 0.5 * radius * wr
    theta = (np.arange(n_t) + 0.5) * (2 * np.pi / n_t)
    wt = 2 * np.pi / n_t
    pts = center + r[:, None, None] * unit_dir(theta)[None, :, :]
    gv = density.g_at(pts.reshape(-1, 2)).reshape(n_r, n_t)
    return float(((gv.sum(axis=1) * wt) * wr * r).sum())
