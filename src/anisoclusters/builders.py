"""Canonical cluster constructors used by scenarios and tests."""

from __future__ import annotations

import numpy as np

from .cluster import Cluster, Edge
from .geometry import unit_dir


def _chain(points, start_index):
    """Indices for appending a run of points after existing vertices."""
    return list(range(start_index, start_index + len(points)))


def _subdivide_points(a, b, n):
    t = np.linspace(0.0, 1.0, n + 1)
    return a[None, :] + t[:, None] * (b - a)[None, :]


def square_cross_cluster(center=(0.0, 0.0), n_sub=8, jitter=0.0, rng=None, half=1.0):
    """Four chambers in the square [-half, half]^2 split by a center joint.

    Chambers: 1 top, 2 left, 3 bottom, 4 right. Interfaces run from the four
    corners to the center point; walls are the four square sides. With the
    center at the origin and no jitter the interfaces are the two diagonals.
    The jitter is drawn from rng, default_rng(0) when None; no jitter draws
    nothing and makes no generator.
    """
    if rng is None and jitter > 0:
        rng = np.random.default_rng(0)
    h = float(half)
    A = np.array([h, h])
    B = np.array([-h, h])
    C = np.array([-h, -h])
    D = np.array([h, -h])
    O = np.asarray(center, dtype=float)
    verts = [A, B, C, D, O]
    edges = [
        Edge([0, 1], 1, 0, {"wall": True}),
        Edge([1, 2], 2, 0, {"wall": True}),
        Edge([2, 3], 3, 0, {"wall": True}),
        Edge([3, 0], 4, 0, {"wall": True}),
    ]
    for corner_idx, (left, right) in zip((0, 1, 2, 3), ((1, 4), (2, 1), (3, 2), (4, 3))):
        pts = _subdivide_points(O, verts[corner_idx], n_sub)[1:-1]
        if jitter > 0 and len(pts):
            pts = pts + rng.normal(0.0, jitter, pts.shape)
        start = len(verts)
        verts.extend(pts)
        edges.append(Edge([4] + _chain(pts, start) + [corner_idx], left, right))
    return Cluster(np.asarray(verts), edges, 4)


def polygon_chamber(points):
    """Single colored chamber bounded by one closed counterclockwise polygon."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    loop = list(range(n)) + [0]
    return Cluster(points, [Edge(loop, 1, 0)], 1)


def regular_polygon_chamber(n, area=np.pi, center=(0.0, 0.0)):
    r = np.sqrt(2.0 * area / (n * np.sin(2 * np.pi / n)))
    theta = np.arange(n) * (2 * np.pi / n)
    pts = np.asarray(center, dtype=float) + r * unit_dir(theta)
    return polygon_chamber(pts)


def double_bubble_cluster(n_arc=24, n_mid=8, width=1.1, height=1.0, bulge=1.25):
    """Two chambers sharing a straight interface, enclosed by two outer arcs.

    Junctions sit at (0, +-height). Chamber 1 is the left lobe, chamber 2 the
    right lobe. The outer arcs are circular through (+-width*bulge, 0).
    """
    top = np.array([0.0, height])
    bot = np.array([0.0, -height])

    def arc(through_x):
        # circle through top, bot and (through_x, 0)
        x0 = (through_x**2 - height**2) / (2 * through_x)
        r = abs(through_x - x0)
        a0 = np.arctan2(height, -x0)
        a1 = np.arctan2(-height, -x0)
        if through_x < 0:
            if a1 < a0:
                a1 += 2 * np.pi
            ang = np.linspace(a0, a1, n_arc + 1)
        else:
            if a1 > a0:
                a1 -= 2 * np.pi
            ang = np.linspace(a0, a1, n_arc + 1)
        return np.array([x0, 0.0]) + r * unit_dir(ang)

    left_pts = arc(-width * bulge)[1:-1]
    right_pts = arc(width * bulge)[1:-1][::-1]  # traveling bottom -> top
    mid_pts = _subdivide_points(top, bot, n_mid)[1:-1]

    verts = [top, bot]
    edges = []
    start = len(verts)
    verts.extend(left_pts)
    edges.append(Edge([0] + _chain(left_pts, start) + [1], 1, 0))
    start = len(verts)
    verts.extend(right_pts)
    edges.append(Edge([1] + _chain(right_pts, start) + [0], 2, 0))
    start = len(verts)
    verts.extend(mid_pts)
    edges.append(Edge([0] + _chain(mid_pts, start) + [1], 2, 1))
    return Cluster(np.asarray(verts), edges, 2)
