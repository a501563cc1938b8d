"""Planar clusters: labeled polyline subdivisions and their measures.

A cluster partitions a region into m colored chambers (labels 1..m) plus the
white exterior (label 0). Geometry is a shared vertex array and a list of
polyline edges, each carrying the chamber label seen on the left and on the
right of the direction of travel.

Perimeter convention: a segment bounding white on one side carries the full
gauge weight evaluated at the colored side's outward normal (the clockwise
rotation of the travel direction when white is on the right); a segment
between two distinct colored chambers carries the mean of the two oriented
weights; a segment with equal labels on both sides carries nothing.
MODE_SIDES names the side labels this rule reads for a Fermat arm of each
mode. _edge_roles reads each edge's role from its tags (wall, pinned,
kept), for the solver and for interface_sum and interface_perimeter, which
leave the walls out.

oriented_weight is the one kernel that prices segments under a gauge: the
slice networks call it directly, and segment_weights calls it for a uniform
density. vertex_arms lists the arms at each vertex clockwise, for the wedge
check and junction detection; relative_perimeter and ball_bound_check clip
all segments to a disk in one clip_segments_to_disk call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .density import ball_volume
from .geometry import (
    TRIANGLE_RULE,
    angle_of,
    box_overlap_pairs,
    clip_segments_to_disk,
    cross2,
    rotate_cw,
    segment_boxes,
    segments_properly_cross,
)
from .report import plain


@dataclass
class Edge:
    vertices: list
    left: int
    right: int
    tags: dict = field(default_factory=dict)


class Cluster:
    def __init__(self, vertices, edges, n_chambers):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (V, 2)")
        self.edges = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        self.m = int(n_chambers)

    def copy(self):
        return Cluster(
            self.vertices.copy(),
            [Edge(list(e.vertices), e.left, e.right, dict(e.tags)) for e in self.edges],
            self.m,
        )

    def edge_points(self, e):
        return self.vertices[np.asarray(e.vertices, dtype=int)]

    def vertex_runs(self):
        """Every edge's vertex indices end to end, edge k's at
        ids[first[k]:first[k + 1]], and a mask of the pairs (ids[i],
        ids[i + 1]) that are segments of one edge."""
        first = np.array([0, *accumulate(len(e.vertices) for e in self.edges)])
        ids = np.fromiter(chain.from_iterable(e.vertices for e in self.edges), int, first[-1])
        inner = np.ones(len(ids) + 1, dtype=bool)
        inner[first] = False
        return ids, first, inner[1:-1]

    def segment_index_arrays(self):
        """Flat segment arrays: start index, end index, left, right, edge id."""
        ids, first, inner = self.vertex_runs()
        eid = np.arange(len(self.edges)).repeat(first[1:] - first[:-1])[1:][inner]
        sides = np.array([(e.left, e.right) for e in self.edges], dtype=int).reshape(-1, 2)
        return ids[:-1][inner], ids[1:][inner], sides[:, 0].take(eid), sides[:, 1].take(eid), eid

    def segment_arrays(self):
        i0, i1, left, right, eid = self.segment_index_arrays()
        return self.vertices.take(i0, axis=0), self.vertices.take(i1, axis=0), left, right, eid

    def spec(self):
        edges = []
        for e in self.edges:
            edges.append({"vertices": e.vertices, "left": e.left, "right": e.right})
            if e.tags:
                edges[-1]["tags"] = e.tags
        return plain({"vertices": self.vertices, "edges": edges, "chambers": self.m})

    @classmethod
    def from_spec(cls, spec):
        edges = [
            Edge(list(e["vertices"]), int(e["left"]), int(e["right"]), dict(e.get("tags", {})))
            for e in spec["edges"]
        ]
        return cls(np.asarray(spec["vertices"], dtype=float), edges, int(spec["chambers"]))


def orientation_rule(h_fwd, h_rev, left, right):
    """Segment weights from their one-sided weights and side labels.

    h_fwd is the gauge at the clockwise normal of the travel direction (the
    outward normal of the left side), h_rev at its negative. White on the
    right takes h_fwd, white on the left h_rev, two distinct colors their
    mean, equal labels nothing.
    """
    left, right = np.asarray(left), np.asarray(right)
    return np.where(
        left == right,
        0.0,
        np.where(right == 0, h_fwd, np.where(left == 0, h_rev, 0.5 * (h_fwd + h_rev))),
    )


# mode: the (left, right) side labels orientation_rule reads for the arm
# from a junction point P to a terminal X, whose forward weight is
# gauge(X - P): "out" has white on the right and pays gauge(X - P), "in"
# white on the left and pays gauge(P - X), "sym" two chambers and their mean
MODE_SIDES = {"out": (1, 0), "in": (0, 1), "sym": (1, 2)}


def symmetric_rule(h, left, right):
    """orientation_rule(h, h, left, right), for a symmetric density or gauge
    whose two sides are equal bit for bit: h wherever the labels differ,
    since the mean 0.5 * (h + h) rounds to h (doubling and halving are exact
    below half the largest double), and 0 where they are equal: one where."""
    return np.where(np.asarray(left) == np.asarray(right), 0.0, h)


def oriented_weight(gauge, vec, left, right):
    """Weights of segments with travel vectors vec (..., 2) and side labels,
    in one gauge call: of the clockwise normals alone for a symmetric gauge
    (symmetric_rule), else of the normals and their negatives."""
    n = rotate_cw(vec)
    if gauge.symmetric:
        return symmetric_rule(gauge.value(n), left, right)
    h_fwd, h_rev = gauge.value(np.array([n, -n]))
    return orientation_rule(h_fwd, h_rev, left, right)


def segment_weights(density, p, q, left, right):
    """Perimeter weight of each segment from p to q, (S, 2) arrays of its
    endpoints, under the orientation convention: oriented_weight of q - p
    under a uniform gauge, else one Density.h_at call on the clockwise
    normals and their negatives stacked, at the midpoints."""
    if density.uniform_gauge:
        return oriented_weight(density.gauge_at(None), q - p, left, right)
    normal = rotate_cw(q - p)
    mid = np.stack([0.5 * (p + q)] * 2)
    h_fwd, h_rev = density.h_at(mid, np.stack([normal, -normal]))
    return orientation_rule(h_fwd, h_rev, left, right)


def weighted_perimeter(cluster, density):
    """Cluster perimeter; each interface counted once from each side."""
    return float(perimeter_breakdown(cluster, density).sum())


def perimeter_breakdown(cluster, density):
    """Per-edge perimeter contributions, aligned with cluster.edges."""
    p, q, left, right, eid = cluster.segment_arrays()
    if len(p) == 0:
        return np.zeros(len(cluster.edges))
    w = segment_weights(density, p, q, left, right)
    return np.bincount(eid, weights=w, minlength=len(cluster.edges))


def _edge_roles(cluster):
    """Each edge's role, from its tags, as boolean arrays over
    cluster.edges: (wall, pinned, kept).

    - wall: a piece of the region's boundary. Left out of
      interface_perimeter and of the solver's objective; its vertices slide
      along straight runs of it.
    - pinned (tagged "fixed"): counted like any interface, but its vertices
      carry no degree of freedom.
    - kept (wall or pinned): optimizer.resample_cluster copies it verbatim,
      and the solver's collapse check skips it.

    Every other edge is free: counted, moved, resampled and collapse-checked.
    """
    wall = np.array([bool(e.tags.get("wall")) for e in cluster.edges], dtype=bool)
    pinned = np.array([bool(e.tags.get("fixed")) for e in cluster.edges], dtype=bool)
    return wall, pinned, wall | pinned


def interface_perimeter(cluster, density):
    """Weighted perimeter of the non-wall edges only."""
    return interface_sum(cluster, perimeter_breakdown(cluster, density))


def interface_sum(cluster, parts):
    """The sum over the non-wall edges of parts, a per-edge breakdown of
    cluster aligned with cluster.edges (as perimeter_breakdown gives it)."""
    wall, _, _ = _edge_roles(cluster)
    return float(parts[~wall].sum())


def _ordered_sum(x):
    """Sum of x from first to last, as a loop adds it; 0.0 when x is empty."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def relative_perimeter(cluster, density, center, radius):
    """Perimeter contribution inside a closed disk; exact segment clipping
    (clip_segments_to_disk), the clipped pieces priced in one
    segment_weights call and summed in segment order."""
    p, q, left, right, _ = cluster.segment_arrays()
    sel = left != right
    p, q, left, right = p[sel], q[sel], left[sel], right[sel]
    t0, t1, keep = clip_segments_to_disk(p, q, center, radius)
    p, d = p[keep], q[keep] - p[keep]
    a = p + t0[keep, None] * d
    b = p + t1[keep, None] * d
    return _ordered_sum(segment_weights(density, a, b, left[keep], right[keep]))


@dataclass
class BallBoundReport:
    ratios: np.ndarray
    worst_ratio: float
    bound: float
    ok: bool


def ball_bound_check(cluster, density, centers, radii):
    """Euclidean boundary length inside sampled balls against 7 h_max/h_min,
    the gauge's bounds at the cluster's vertices (Density.h_range).

    For each ball, sums the Euclidean length of boundary segments clipped to
    the ball (one clip_segments_to_disk call) and divides by the radius; the
    check passes when the worst ratio stays below the bound. One radius
    serves every center; radii must be positive finite numbers.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float).ravel()
    if len(radii) == 1:
        radii = np.full(len(centers), radii[0])
    if len(radii) != len(centers):
        raise ValueError("need one radius per center")
    p, q, left, right, _ = cluster.segment_arrays()
    sel = left != right
    p, q = p[sel], q[sel]
    lens = np.linalg.norm(q - p, axis=1)
    ratios = []
    for c, r in zip(centers, radii):
        t0, t1, keep = clip_segments_to_disk(p, q, c, r)
        ratios.append(_ordered_sum(((t1 - t0) * lens)[keep]) / r)
    ratios = np.asarray(ratios)
    worst = float(ratios.max()) if len(ratios) else 0.0
    h_min, h_max = density.h_range(cluster.vertices)
    bound = 7.0 * h_max / h_min
    return BallBoundReport(ratios=ratios, worst_ratio=worst, bound=float(bound), ok=bool(worst < bound))


def fan_volume_terms(density, p, q):
    """Integral of g over each signed fan triangle (origin, p_i, q_i).

    p, q: (S, 2) segment endpoint batches. The symmetric order-5 triangle
    rule; exact for polynomial g up to degree 5, in particular constant g,
    which skips the quadrature points but keeps the rule's weight sum
    (Density.g_rule_sum). Summed with the orientation signs of a closed
    boundary, the terms give the weighted volume it encloses.
    """
    areas = 0.5 * cross2(p, q)
    if density.g_rule_sum is not None:
        return areas * density.g_rule_sum
    bary, wts = TRIANGLE_RULE
    pts = bary[None, :, 1, None] * p[:, None, :] + bary[None, :, 2, None] * q[:, None, :]
    gv = density.g_at(pts.reshape(-1, 2)).reshape(len(p), -1)
    return areas * (gv * wts[None, :]).sum(axis=1)


def chamber_index(left, right):
    """What chamber_sums adds, for segments with side labels left and right:
    (segment, sign, chamber) arrays holding each segment with a colored left
    side, sign +1 and its left label - 1, then each with a colored right
    side, sign -1 and its right label - 1, in segment order."""
    (on_left,), (on_right,) = (left > 0).nonzero(), (right > 0).nonzero()
    seg = np.concatenate([on_left, on_right])
    sign = np.where(np.arange(len(seg)) < len(on_left), 1.0, -1.0)
    return seg, sign, np.concatenate([left.take(on_left), right.take(on_right)]) - 1


def chamber_sums(terms, index, m):
    """Signed per-chamber sums of segment terms, indexed by label - 1: each
    term is added to its left chamber and subtracted from its right one, in
    the order of index (chamber_index); white sides are dropped."""
    seg, sign, chamber = index
    return np.bincount(chamber, weights=terms[seg] * sign, minlength=m)


def weighted_volume(cluster, density):
    """Weighted chamber volumes as a vector indexed by chamber label - 1,
    from the signed fan triangles of fan_volume_terms."""
    p, q, left, right, _ = cluster.segment_arrays()
    if len(p) == 0:
        return np.zeros(cluster.m)
    return chamber_sums(fan_volume_terms(density, p, q), chamber_index(left, right), cluster.m)


def chamber_perimeter(cluster, density, label):
    """Perimeter of a single chamber as a standalone set: the chamber is the
    one color, everything else white."""
    p, q, left, right, _ = cluster.segment_arrays()
    w = segment_weights(density, p, q, left == label, right == label)
    return float(w.sum())


def union_perimeter(cluster, density):
    """Perimeter of the union of all colored chambers."""
    p, q, left, right, _ = cluster.segment_arrays()
    w = segment_weights(density, p, q, left > 0, right > 0)
    return float(w.sum())


def validate(cluster):
    """Structural checks; returns a list of human-readable violations: of
    the edges' indices and labels, else of the wedges at every vertex, the
    chambers' areas and the first CROSSINGS_LISTED crossing segment pairs."""
    problems = []
    nv = len(cluster.vertices)
    for k, e in enumerate(cluster.edges):
        if len(e.vertices) < 2:
            problems.append(f"edge {k}: needs at least two vertices")
            continue
        idx = np.asarray(e.vertices, dtype=int)
        if idx.min() < 0 or idx.max() >= nv:
            problems.append(f"edge {k}: vertex index out of range")
            continue
        if np.any(idx[1:] == idx[:-1]):
            problems.append(f"edge {k}: repeated consecutive vertex")
        if not (0 <= e.left <= cluster.m and 0 <= e.right <= cluster.m):
            problems.append(f"edge {k}: label out of range 0..{cluster.m}")
        if e.left == e.right:
            problems.append(f"edge {k}: equal labels on both sides")
    if problems:
        return problems

    problems.extend(_wedge_violations(cluster))

    vols = weighted_volume_plain(cluster)
    for i, a in enumerate(vols, start=1):
        if not a > 0:
            problems.append(f"chamber {i}: nonpositive area {a:.6g}")

    problems.extend(_crossing_violations(cluster))
    return problems


def weighted_volume_plain(cluster):
    """Unweighted chamber areas (g = 1)."""
    p, q, left, right, _ = cluster.segment_arrays()
    return chamber_sums(0.5 * cross2(p, q), chamber_index(left, right), cluster.m)


def vertex_arms(cluster):
    """The edge ends at each vertex, keyed by vertex index in order of first
    appearance, in clockwise order (ties in order of first appearance). Each
    arm records its edge, whether the edge starts there (forward), the chord
    of its first segment pointing away from the vertex and its angle, and
    the labels left and right of that outgoing direction: an edge's own
    labels at its start, swapped at its end. Every chord and angle is
    computed at once."""
    ends = [(e.vertices[1], e.vertices[-2], e.vertices[0], e.vertices[-1]) for e in cluster.edges]
    P = cluster.vertices.take(np.array(ends, dtype=int).reshape(-1, 2, 2), axis=0)
    chords = P[:, 0] - P[:, 1]
    arms = {}
    for k, (e, c, ang) in enumerate(zip(cluster.edges, chords, angle_of(chords).tolist())):
        arms.setdefault(e.vertices[0], []).append(
            {"edge": k, "forward": True, "chord": c[0], "left": e.left, "right": e.right, "angle": ang[0]}
        )
        arms.setdefault(e.vertices[-1], []).append(
            {"edge": k, "forward": False, "chord": c[1], "left": e.right, "right": e.left, "angle": ang[1]}
        )
    for lst in arms.values():
        lst.sort(key=lambda a: -a["angle"])
    return arms


def _wedge_violations(cluster):
    """Angular label consistency around every vertex.

    Walking each vertex's arms counterclockwise (vertex_arms reversed), the
    label counterclockwise of one arm must match the label clockwise of the
    next. Mismatches mean the edges do not tile a neighborhood consistently.
    """
    problems = []
    for v, arms in vertex_arms(cluster).items():
        if len(arms) < 2:
            continue
        ccw = arms[::-1]
        for a, b in zip(ccw, ccw[1:] + ccw[:1]):
            if a["left"] != b["right"]:
                problems.append(
                    f"vertex {v}: wedge between edges {a['edge']} and {b['edge']} "
                    f"sees labels {a['left']} vs {b['right']}"
                )
    return problems


def crossing_pairs(V, i0, i1, margin=0.0):
    """Index pairs (a < b) of segments (i0, i1) at vertex positions V that
    share no endpoint and whose bounding boxes, grown by margin, overlap:
    every pair whose proper crossing makes a boundary self-intersect, at V
    or after any move of the vertices by at most margin each."""
    return box_crossing_pairs(*segment_boxes(V.take(i0, axis=0), V.take(i1, axis=0)), i0, i1, margin)


def box_crossing_pairs(lo, hi, i0, i1, margin=0.0):
    """crossing_pairs from the segments' boxes, corners lo and hi as
    segment_boxes gives them, by the sort-and-sweep of box_overlap_pairs."""
    a, b = box_overlap_pairs(lo, hi, margin)
    share = (i0[a] == i0[b]) | (i0[a] == i1[b]) | (i1[a] == i0[b]) | (i1[a] == i1[b])
    return a[~share], b[~share]


CROSSINGS_LISTED = 20


def _crossing_violations(cluster):
    i0, i1, _, _, eid = cluster.segment_index_arrays()
    V = cluster.vertices
    a, b = crossing_pairs(V, i0, i1)
    hit = segments_properly_cross(V[i0[a]], V[i1[a]], V[i0[b]], V[i1[b]])
    a, b = a[hit], b[hit]
    order = np.lexsort((b, a))[:CROSSINGS_LISTED]
    return [f"segments of edges {eid[ia]} and {eid[ib]} cross" for ia, ib in zip(a[order], b[order])]


def growth_estimate(density, domain, radii, rng=None):
    """Fit |B(x, r)| <= C_vol * r^eta from the volumes of 8 balls per
    radius, sampled in domain (a Rect or a DiskDomain).

    Least squares of log(max volume) against log(r) gives the exponent; the
    constant is then raised until it covers every sampled ball.
    """
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 3:
        raise ValueError("need at least three radii for a growth fit")
    rng = np.random.default_rng(0) if rng is None else rng
    worst = np.zeros(len(radii))
    all_vols = []
    for k, r in enumerate(radii):
        centers = _ball_centers(domain, r, 8, rng)
        vols = np.array([ball_volume(density, c, r) for c in centers])
        worst[k] = vols.max()
        all_vols.append(vols)
    A = np.column_stack([np.ones(len(radii)), np.log(radii)])
    coef, *_ = np.linalg.lstsq(A, np.log(worst), rcond=None)
    eta = float(coef[1])
    c_vol = max(
        float((vols / r**eta).max()) for r, vols in zip(radii, all_vols)
    )
    return c_vol, eta


def _ball_centers(domain, r, n, rng):
    """n centers of balls of radius r in the domain, from at most 200
    batches of n samples."""
    out = []
    for _ in range(200):
        if len(out) >= n:
            break
        pts = domain.sample(rng, n)
        probes = pts[:, None, :] + r * np.array(
            [[1, 0], [-1, 0], [0, 1], [0, -1], [0.7071, 0.7071], [-0.7071, 0.7071], [0.7071, -0.7071], [-0.7071, -0.7071]]
        )[None, :, :]
        ok = domain.contains(probes.reshape(-1, 2)).reshape(len(pts), -1).all(axis=1)
        out.extend(pts[ok])
    if not out:
        raise ValueError(f"domain admits no ball of radius {r}")
    return np.asarray(out[:n])


def isoperimetric_check(polygon, density, c_vol, eta):
    """Perimeter >= (h_min / C_vol^(1/eta)) * volume^(1/eta) for one chamber,
    h_min the gauge's lower bound at the polygon's vertices (Density.h_range).

    polygon: (n, 2) counterclockwise vertices of a single colored chamber;
    a polygon whose weighted volume is not positive is not counterclockwise
    and raises ValueError. Returns (ok, slack) with slack = lhs - rhs.
    """
    polygon = np.asarray(polygon, dtype=float)
    p = polygon
    q = np.roll(polygon, -1, axis=0)
    lhs = float(segment_weights(density, p, q, 1, 0).sum())
    vol = float(fan_volume_terms(density, p, q).sum())
    if not vol > 0:
        raise ValueError(f"polygon is not counterclockwise: its weighted volume is {vol:.6g}")
    rhs = density.h_range(polygon)[0] / c_vol ** (1.0 / eta) * vol ** (1.0 / eta)
    slack = lhs - rhs
    return slack >= 0, slack
