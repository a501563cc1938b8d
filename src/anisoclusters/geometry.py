"""Low-level planar geometry helpers shared by the other modules.

Everything works on numpy arrays with points in the last axis of size 2 and
vectorizes over leading axes where it matters (segment batches). The two
argument checks that the whole package shares sit here too.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

TWO_PI = 2.0 * np.pi
_EPS = np.finfo(float).eps


def positive_number(name, value):
    """value, when it is a real number (not a bool) with 0 < value < inf;
    otherwise a ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < np.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def integer_at_least(name, value, least):
    """value, when it is an integer (not a bool) of at least least;
    otherwise a ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def rotate_cw(v):
    """Rotate plane vectors 90 degrees clockwise: (x, y) -> (y, -x)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = -v[..., 0]
    return out


def rotate_ccw(v):
    """Rotate plane vectors 90 degrees counterclockwise: (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def unit_dir(theta):
    """Unit vector(s) at polar angle theta; theta may be an array."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def wrap_angle(theta):
    """Wrap angles into [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def angle_of(v):
    v = np.asarray(v, dtype=float)
    return np.arctan2(v[..., 1], v[..., 0])


def angle_between(u, v):
    """Unsigned angle in [0, pi] between two vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dot = (u * v).sum(axis=-1)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return np.arctan2(np.abs(cross), dot)


def ccw_gap(a, b):
    """Counterclockwise angular gap from angle a to angle b, in (0, 2*pi]."""
    d = wrap_angle(b - a)
    return np.where(d == 0.0, TWO_PI, d)


def cross2(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def row_norms(d):
    """np.linalg.norm of each row of d (n, 2), bit for bit: the square root
    of each row's dot product d[i] @ d[i], which may fuse a multiply-add, so
    neither x*x + y*y nor an einsum stands in for it."""
    return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())


def polygon_area(pts):
    """Signed area of a closed polygon given without the repeated endpoint."""
    pts = np.asarray(pts, dtype=float)
    return 0.5 * float(cross2(pts, np.roll(pts, -1, axis=0)).sum())


def segments_properly_cross(p1, q1, p2, q2):
    """Vectorized proper-crossing test for segment batches.

    True where open segments intersect at a single interior point. Shared
    endpoints and touching do not count, and neither do parallel segments:
    a pair counts as parallel when the cross product of its directions is
    within a few ulps of what rounding the endpoint coordinates can put
    there, so collinear segments on a slanted line never cross. All inputs
    broadcast to (..., 2).
    """
    p1 = np.asarray(p1, float)
    q1 = np.asarray(q1, float)
    p2 = np.asarray(p2, float)
    q2 = np.asarray(q2, float)
    d1 = q1 - p1
    d2 = q2 - p2
    denom = cross2(d1, d2)
    rp = p2 - p1
    t = cross2(rp, d2)
    u = cross2(rp, d1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = t / denom
        u = u / denom
    hit = (t > 0) & (t < 1) & (u > 0) & (u < 1)
    if hit.any():
        # the direction of a segment between rounded points is only as exact
        # as its coordinates, so the noise in denom scales with their size
        l1 = lambda v: np.abs(v).sum(axis=-1)
        noise = l1(d1) * (l1(p2) + l1(q2)) + l1(d2) * (l1(p1) + l1(q1))
        hit = hit & (np.abs(denom) > 4.0 * _EPS * noise)
        # segments that share an end point meet there and nowhere else;
        # when both end there, t and u are 1 but may round to either side
        same = lambda v, w: (v == w).all(axis=-1)
        hit = hit & ~(same(p1, p2) | same(p1, q2) | same(q1, p2) | same(q1, q2))
    return hit


# endpoint k of (p1, q1, p2, q2) is measured against the other segment,
# the one from endpoint _SEG_A[k] to endpoint _SEG_B[k]
_SEG_A = np.array([2, 2, 0, 0])
_SEG_B = np.array([3, 3, 1, 1])


def segment_distance(p1, q1, p2, q2):
    """Euclidean distance between the closed segments p1q1 and p2q2, for
    batches that broadcast to (..., 2): zero where they properly cross,
    otherwise the least distance from an endpoint of one to the other."""
    return stacked_segment_distance(
        np.stack(np.broadcast_arrays(*(np.asarray(v, float) for v in (p1, q1, p2, q2))))
    )


def stacked_segment_distance(P):
    """segment_distance(*P) for a float array P of shape (4, ..., 2), the
    endpoints p1, q1, p2, q2 stacked as one gather V.take(ends, axis=0)
    gives them."""
    x, y = P[..., 0], P[..., 1]
    ax, ay = x.take(_SEG_A, axis=0), y.take(_SEG_A, axis=0)
    dx, dy = x.take(_SEG_B, axis=0) - ax, y.take(_SEG_B, axis=0) - ay
    px, py = x - ax, y - ay
    # np.clip without its wrapper: the two can differ only in the sign of a
    # zero t, which the squares below drop
    t = np.minimum(np.maximum((px * dx + py * dy) / np.maximum(dx * dx + dy * dy, 1e-300), 0.0), 1.0)
    rx, ry = px - t * dx, py - t * dy
    d = np.sqrt((rx * rx + ry * ry).min(axis=0))
    return np.where(segments_properly_cross(*P), 0.0, d)


def grown_boxes(p, q, margin=0.0):
    """The bounding boxes of segments p[k]q[k] grown by margin on every
    side, as coordinate columns (xlo, ylo, xhi, yhi): gathers from a 1d
    array are much cheaper than row gathers from an (n, 2) one."""
    xlo, ylo = (np.minimum(p, q) - margin).T
    xhi, yhi = (np.maximum(p, q) + margin).T
    return xlo, ylo, xhi, yhi


def segment_boxes(p, q):
    """The lower and upper corners, (n, 2) each, of segments p[k]q[k]'s boxes."""
    return np.minimum(p, q), np.maximum(p, q)


def box_gap(lo_a, hi_a, lo_b, hi_b):
    """The gap between boxes of corners lo_a, hi_a and lo_b, hi_b (segment_boxes):
    the larger of their x and y separations, negative where they overlap. Up to
    rounding, the boxes grown by m on every side overlap exactly when the gap
    is at most 2 m."""
    ab, ba = lo_a - hi_b, lo_b - hi_a
    gap = np.maximum(ab[:, 0], ba[:, 0])
    np.maximum(gap, ab[:, 1], out=gap)
    return np.maximum(gap, ba[:, 1], out=gap)


def box_overlap_pairs(lo, hi, margin=0.0):
    """Index pairs (a < b) of closed boxes of corners lo[k], hi[k] (segment_boxes)
    that overlap when grown by margin on every side; those of two segments that
    properly cross always do, and so do those of two within 2 * margin.

    Sort-and-sweep broad phase (Shamos and Hoey 1976; Bentley and Ottmann
    1979): the boxes are sorted on xmin, each box pairs with the later boxes
    whose xmin is at most its xmax, and those pairs are kept when their
    y-extents overlap too. The cost follows the number of x-overlaps rather
    than all n(n-1)/2 pairs.
    """
    (xlo, ylo), (xhi, yhi) = (lo - margin).T, (hi + margin).T
    order = np.argsort(xlo, kind="stable")
    # sorted box k overlaps in x exactly the boxes k+1 .. end[k]-1; end[k]
    # is at least k+1 because xlo[k] <= xhi[k]
    end = np.searchsorted(xlo[order], xhi[order], side="right")
    count = end - np.arange(1, len(order) + 1)
    ka = np.repeat(np.arange(len(order)), count)
    first = np.cumsum(count) - count
    kb = ka + 1 + np.arange(len(ka)) - np.repeat(first, count)
    a, b = order[ka], order[kb]
    keep = (ylo[a] <= yhi[b]) & (ylo[b] <= yhi[a])
    a, b = a[keep], b[keep]
    return np.minimum(a, b), np.maximum(a, b)


def polyline_self_intersects(pts):
    pts = np.asarray(pts, float)
    if len(pts) < 3:
        return False
    a, b = box_overlap_pairs(*segment_boxes(pts[:-1], pts[1:]))
    far = b - a >= 2
    a, b = a[far], b[far]
    return bool(segments_properly_cross(pts[a], pts[a + 1], pts[b], pts[b + 1]).any())


def clip_segments_to_disk(p, q, center, radius, eps=1e-12):
    """Parameter intervals [t0, t1] of segments p + t (q - p) inside a closed
    disk, over a batch: p, q are (S, 2) endpoint arrays, and the result is
    the arrays (t0, t1, keep).

    keep is False where the intersection is empty or a tangency no longer
    than eps in parameter length; a segment of length zero is kept whole
    (t0 = 0, t1 = 1) when its point lies in the disk. radius must be a
    positive finite number.
    """
    positive_number("radius", radius)
    p = np.asarray(p, float)
    d = np.asarray(q, float) - p
    f = p - np.asarray(center, float)
    a = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    b = 2.0 * (f[:, 0] * d[:, 0] + f[:, 1] * d[:, 1])
    ff = f[:, 0] * f[:, 0] + f[:, 1] * f[:, 1]
    r2 = radius * radius
    disc = b * b - 4 * a * (ff - r2)
    point = a < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)
        t0 = np.where(point, 0.0, np.maximum((-b - sq) / (2 * a), 0.0))
        t1 = np.where(point, 1.0, np.minimum((-b + sq) / (2 * a), 1.0))
    keep = np.where(point, ff <= r2, (disc >= 0.0) & (t1 - t0 > eps))
    return t0, t1, keep


def _tri_rule_5():
    """The 7-point degree-5 rule (Radon 1948) in closed form: the centroid,
    and the points with barycentric coordinates (a, a, 1 - 2a) and their
    permutations for a = (6 -+ sqrt 15)/21, weighted (155 -+ sqrt 15)/1200."""
    r = np.sqrt(15.0)
    rows, wts = [[1 / 3, 1 / 3, 1 / 3]], [9 / 40]
    for a, b, w in (((6 + r) / 21, (9 - 2 * r) / 21, (155 + r) / 1200),
                    ((6 - r) / 21, (9 + 2 * r) / 21, (155 - r) / 1200)):
        rows += [[b, a, a], [a, b, a], [a, a, b]]
        wts += [w] * 3
    return np.array(rows), np.array(wts)


# The symmetric triangle quadrature rule on the reference triangle, exact up
# to degree 5, as (barycentric coordinates, weights summing to 1).
TRIANGLE_RULE = _tri_rule_5()


def hausdorff_to_segments(points, seg_a, seg_b):
    """max over points of distance to the union of segments (a_i, b_i), in
    one segment_distance call from every point, as a segment of length
    zero, to every segment."""
    p = np.asarray(points, float)[:, None, :]
    return float(segment_distance(p, p, seg_a, seg_b).min(axis=1).max())
