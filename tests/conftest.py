import numpy as np
import pytest

import anisoclusters as ac


def star_polygon(rng, n, r_lo=0.3, r_hi=1.5):
    """Simple polygon: jittered angle grid keeps every angular gap below pi."""
    ang = (np.arange(n) + 0.8 * rng.uniform(0.0, 1.0, n)) * (2.0 * np.pi / n)
    rad = rng.uniform(r_lo, r_hi, n)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def random_slice_config(rng, gauge, min_gap_deg=5.0, n_colors=4):
    """>= 4 radii, gaps >= min_gap_deg, adjacent sectors distinctly colored."""
    while True:
        n = int(rng.integers(4, 9))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        if gaps.min() < np.radians(min_gap_deg):
            continue
        colors = []
        for i in range(n):
            prev = colors[i - 1] if i > 0 else None
            colors.append(int(rng.choice([c for c in range(n_colors + 1) if c != prev])))
        if colors[0] == colors[-1]:
            continue
        cfg = ac.SliceConfig(ang, colors, gauge)
        if cfg.n >= 4:
            return cfg


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def tabulated_ellipse(n=64):
    """A tabulated gauge sampled from a smooth convex profile."""
    theta = np.arange(n) * (2.0 * np.pi / n)
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    return ac.TabulatedGauge(ac.EllipseGauge([[1.6, 0.25], [0.25, 1.0]]).value(u))


def odd_profile_gauge(n=64):
    """Asymmetric gauge with angular profile 1 + 0.1 sin 3t (convex: the
    profile plus its second derivative is 1 - 0.8 sin 3t > 0). Unlike the
    shifted disk's, its odd part is not linear, so it does not sum to zero
    around a closed boundary or a junction."""
    t = np.arange(n) * (2.0 * np.pi / n)
    return ac.TabulatedGauge(1.0 + 0.1 * np.sin(3.0 * t))


def smooth_gauge_list():
    return [
        ac.EuclideanGauge(),
        ac.EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
        ac.ShiftedDiskGauge(np.array([0.2, -0.1])),
        tabulated_ellipse(),
    ]


def kinked_gauge_list():
    return [ac.LpGauge(np.inf), ac.LpGauge(1.0), ac.SmoothedL1Gauge(0.35)]


def all_gauge_list():
    """One gauge of every kind, for tests that cannot take fixtures
    (hypothesis tests)."""
    return smooth_gauge_list() + kinked_gauge_list()


@pytest.fixture
def smooth_gauges():
    return smooth_gauge_list()


@pytest.fixture
def kinked_gauges():
    return kinked_gauge_list()


@pytest.fixture
def all_gauges(smooth_gauges, kinked_gauges):
    return smooth_gauges + kinked_gauges
