"""Radii-slice configurations in the unit disk and perimeter-decreasing moves.

A configuration is a fan of radii of B(0,1) with a label per sector (0 is
white). Each move family rewires the fan into an explicit competitor network
with the same trace on the circle, so perimeter differences are exact; for
strictly convex smooth gauges a strictly decreasing move exists whenever
there are more than three radii. A network's perimeter is priced by the
clusters' orientation rule (cluster.orientation_rule): a segment between a
colored and a white region is weighed one sidedly, one between two distinct
colored regions symmetrically. oriented_weight applies that rule to a whole
network in one gauge call, and the weights are summed in segment order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .cluster import orientation_rule
from .gauge import strict_convexity_margin
from .geometry import TWO_PI, ccw_gap, cross2, polygon_area, rotate_cw, unit_dir, wrap_angle
from .report import plain

EPS_GRID = tuple(0.5 ** k for k in range(1, 21))


def oriented_weight(gauge, vec, left, right):
    """Weights of segments with travel vectors vec (..., 2) and side labels."""
    n = rotate_cw(vec)
    h_fwd, h_rev = gauge.value(np.array([n, -n]))
    return orientation_rule(h_fwd, h_rev, left, right)


@dataclass
class NetSegment:
    p0: np.ndarray
    p1: np.ndarray
    left: int
    right: int


@dataclass
class CompetitorNetwork:
    segments: list
    gauge: object

    def perimeter(self):
        segs = self.segments
        vec = np.array([s.p1 for s in segs]) - np.array([s.p0 for s in segs])
        w = oriented_weight(self.gauge, vec, [s.left for s in segs], [s.right for s in segs])
        # a sequential sum: analytically tied moves must keep their order
        return sum(w.tolist())

    def trace_angles(self):
        """Angles where the network meets the unit circle."""
        out = []
        for s in self.segments:
            for p in (s.p0, s.p1):
                if abs(np.linalg.norm(p) - 1.0) < 1e-9:
                    out.append(float(np.arctan2(p[1], p[0])) % TWO_PI)
        return sorted(set(round(a, 12) for a in out))


@dataclass
class ImproveResult:
    network: CompetitorNetwork
    delta: float
    move: tuple
    perimeter_before: float
    perimeter_after: float
    guaranteed: bool


class SliceConfig:
    """Radii of B(0,1) at sorted angles with a color label per sector.

    colors[i] labels the sector between angles[i] and angles[i+1] (wrapping
    cyclically); label 0 is the exterior. Radii separating two white sectors
    are dropped on construction, so whites are never adjacent. Angles, radius
    endpoints and sector gaps are computed once, as read-only arrays.
    """

    def __init__(self, angles, colors, gauge):
        angles = wrap_angle(np.asarray(angles, dtype=float)).ravel()
        colors = [int(c) for c in np.asarray(colors).ravel()]
        if len(angles) != len(colors):
            raise ValueError("need one color per sector (= one per radius)")
        if any(c < 0 for c in colors):
            raise ValueError("colors must be white (0) or positive labels")
        order = np.argsort(angles, kind="stable")
        angles = angles[order]
        colors = [colors[k] for k in order]
        # the gap from the last radius back across angle 0 counts too
        if len(angles) >= 2 and np.min(np.diff(angles, append=angles[0] + TWO_PI)) < 1e-12:
            raise ValueError("radii angles must be strictly increasing")
        # merge adjacent white sectors by dropping the radius between them
        changed = True
        while changed and len(colors) > 0:
            changed = False
            n = len(colors)
            for i in range(n):
                if colors[i] == 0 and colors[(i - 1) % n] == 0:
                    angles = np.delete(angles, i)
                    del colors[i]
                    changed = True
                    break
        if len(angles) < 2:
            raise ValueError("need at least two radii after merging whites")
        self.angles = angles
        self.colors = colors
        self.gauge = gauge
        self._points = unit_dir(angles)
        self._gaps = ccw_gap(angles, np.roll(angles, -1))
        for a in (self.angles, self._points, self._gaps):
            a.flags.writeable = False

    @property
    def n(self):
        return len(self.angles)

    def points(self):
        return self._points

    def gaps(self):
        return self._gaps

    def base_network(self):
        pts = self.points()
        O = np.zeros(2)
        segs = [
            NetSegment(O, pts[i], self.colors[i], self.colors[i - 1])
            for i in range(self.n)
        ]
        return CompetitorNetwork(segments=segs, gauge=self.gauge)

    def perimeter(self):
        return self.base_network().perimeter()

    def spec(self):
        return plain({"angles_deg": np.degrees(self.angles), "colors": self.colors})


def _kept_radii(config, removed, relabel=None):
    """Radius segments minus removed indices, with optional label overrides.

    relabel maps radius index -> (left, right) with None meaning keep.
    """
    pts = config.points()
    O = np.zeros(2)
    segs = []
    for i in range(config.n):
        if i in removed:
            continue
        left, right = config.colors[i], config.colors[i - 1]
        if relabel and i in relabel:
            nl, nr = relabel[i]
            left = left if nl is None else nl
            right = right if nr is None else nr
        segs.append(NetSegment(O, pts[i], left, right))
    return segs


def move_chord(config, k):
    """Cut the sector k with the chord between its two radius endpoints.

    The radius absorbed into the relabeled inner triangle depends on which
    neighbouring sectors are white; the circular segment beyond the chord
    keeps the sector's label so the trace on the circle is unchanged.
    """
    n = config.n
    if config.gaps()[k] >= np.pi - 1e-12:
        return None
    c_p = config.colors[(k - 1) % n]
    c_int = config.colors[k]
    c_q = config.colors[(k + 1) % n]
    kq = (k + 1) % n
    if c_p == 0 and c_q == 0:
        removed, tri = {k, kq}, 0
    elif c_q == 0 and c_p != 0:
        removed, tri = {k}, c_p
    else:
        removed, tri = {kq}, c_q
    relabel = {}
    if k not in removed:
        relabel[k] = (tri, None)
    if kq not in removed:
        relabel[kq] = (None, tri)
    segs = _kept_radii(config, removed, relabel)
    pts = config.points()
    segs.append(NetSegment(pts[k], pts[kq], tri, c_int))
    return CompetitorNetwork(segments=segs, gauge=config.gauge)


def move_join_whites(config, j, k):
    """Chord off the colored span of sectors j..k between two white sectors.

    Removes the two radii bounding the span, cuts from the span's end
    radius to its start radius, and clips the interior radii to the chord;
    the region under the chord merges with the white sectors.
    """
    n = config.n
    span = list(range(j, j + (k - j) % n + 1))
    idx = [s % n for s in span]
    if any(config.colors[s] == 0 for s in idx):
        return None
    if config.colors[(j - 1) % n] != 0 or config.colors[(idx[-1] + 1) % n] != 0:
        return None
    gaps = config.gaps()
    angle = sum(gaps[s] for s in idx)
    if angle >= np.pi - 1e-12:
        return None
    kq = (idx[-1] + 1) % n
    removed = {j % n, kq}
    segs = _kept_radii(config, removed)
    pts = config.points()
    p_end, p_start = pts[kq], pts[j % n]
    chord = p_start - p_end
    pieces = []
    prev = p_end
    for s in reversed(idx[1:]):
        # radius s crosses the chord at parameter t along p_end -> p_start
        u = pts[s]
        t = -float(cross2(p_end, u)) / float(cross2(chord, u))
        hit = p_end + t * chord
        segs.append(NetSegment(hit, u, config.colors[s], config.colors[s - 1]))
        pieces.append(NetSegment(prev, hit, config.colors[s], 0))
        prev = hit
    pieces.append(NetSegment(prev, p_start, config.colors[j % n], 0))
    segs.extend(pieces)
    return CompetitorNetwork(segments=segs, gauge=config.gauge)


def move_slide(config, m, side, eps):
    """Slide the inner endpoint of radius m a distance eps along a neighbour.

    side +1 slides along the next radius counterclockwise, -1 along the
    previous one. The sliver swept between the old and new segment takes the
    label of the sector on the far side of radius m.
    """
    n = config.n
    j = (m + side) % n
    gaps = config.gaps()
    gap = gaps[m] if side == 1 else gaps[j]
    if gap >= np.pi - 1e-12:
        return None
    pts = config.points()
    v = eps * pts[j]
    if side == 1:
        near, far = config.colors[m], config.colors[(m - 1) % n]
        chord_left, chord_right = near, far
        stub_left, stub_right = config.colors[j], far
    else:
        near, far = config.colors[(m - 1) % n], config.colors[m]
        chord_left, chord_right = far, near
        stub_left, stub_right = far, config.colors[(j - 1) % n]
    segs = _kept_radii(config, {m, j})
    segs.append(NetSegment(v, pts[m], chord_left, chord_right))
    segs.append(NetSegment(np.zeros(2), v, stub_left, stub_right))
    segs.append(NetSegment(v, pts[j], config.colors[j], config.colors[(j - 1) % n]))
    return CompetitorNetwork(segments=segs, gauge=config.gauge)


def move_tripod(config, m, eps):
    """Replace radii m and m+1 by a Y: two triple points instead of one.

    The inner vertex sits at eps times the sum of the two radius directions;
    the three new segments carry the labels of the three sectors around the
    replaced pair.
    """
    n = config.n
    mq = (m + 1) % n
    if config.gaps()[m] >= np.pi - 1e-12:
        return None
    pts = config.points()
    w = eps * (pts[m] + pts[mq])
    c_ab = config.colors[(m - 1) % n]
    c_bc = config.colors[m]
    c_cd = config.colors[mq]
    segs = _kept_radii(config, {m, mq})
    segs.append(NetSegment(np.zeros(2), w, c_cd, c_ab))
    segs.append(NetSegment(w, pts[m], c_bc, c_ab))
    segs.append(NetSegment(w, pts[mq], c_cd, c_bc))
    return CompetitorNetwork(segments=segs, gauge=config.gauge)


def enumerate_moves(config):
    """Yield (move descriptor, network) over all families, deterministic order."""
    n = config.n
    for k in range(n):
        net = move_chord(config, k)
        if net is not None:
            yield ("chord", k), net
    for j in range(n):
        if config.colors[(j - 1) % n] != 0 or config.colors[j] == 0:
            continue
        k = j
        while config.colors[(k + 1) % n] != 0:
            k += 1
        net = move_join_whites(config, j, k % n)
        if net is not None:
            yield ("join-whites", j, k % n), net
    for m in range(n):
        for side in (1, -1):
            for eps in EPS_GRID:
                net = move_slide(config, m, side, eps)
                if net is None:
                    break
                yield ("slide", m, side, eps), net
    for m in range(n):
        for eps in EPS_GRID:
            net = move_tripod(config, m, eps)
            if net is None:
                break
            yield ("tripod", m, eps), net


def improve(config):
    """Best competitor over all move families; delta > 0 means improvement.

    Needs more than three radii. For smooth strictly convex gauges the
    returned delta is positive; for kinked or flat-sided gauges the best
    candidate is still returned, with the guarantee flag cleared (delta may
    be nonpositive). Of equal deltas the first enumerated wins.
    """
    if config.n < 4:
        raise ValueError("hypothesis not met: need more than three radii")
    base = config.perimeter()
    best = None
    for desc, net in enumerate_moves(config):
        delta = base - net.perimeter()
        if best is None or delta > best[0]:
            best = (delta, desc, net)
    if best is None:
        raise ValueError("no applicable move (all sectors span at least pi)")
    delta, desc, net = best
    return ImproveResult(
        network=net,
        delta=delta,
        move=desc,
        perimeter_before=base,
        perimeter_after=base - delta,
        guaranteed=_strictly_convex(config.gauge),
    )


_STRICTLY_CONVEX = weakref.WeakKeyDictionary()


def _strictly_convex(gauge):
    """Whether improve's guarantee holds for gauge; the 256-direction margin
    is computed once per gauge instance."""
    if not getattr(gauge, "smooth", False):
        return False
    if gauge not in _STRICTLY_CONVEX:
        _STRICTLY_CONVEX[gauge] = strict_convexity_margin(gauge, n_dirs=256) > 1e-9
    return _STRICTLY_CONVEX[gauge]


def path_length_gauge(gauge, pts, reverse=False):
    pts = np.asarray(pts, dtype=float)
    d = np.diff(pts, axis=0)
    if reverse:
        d = -d[::-1]
    return float(np.sum(gauge.value(d)))


def shortcut_path(tau1, tau2):
    """Shortcut a polygon bounded by two paths from P to Q and back.

    Returns an injective path tau from P to Q inside the closed region
    bounded by tau1 + tau2 with len(tau) + len(reversed tau) at most
    len(tau1) + len(tau2) for every convex 1-homogeneous length gauge; the
    construction is purely geometric and gauge independent.
    """
    c1 = _dedup(np.asarray(tau1, dtype=float))
    c2 = _dedup(np.asarray(tau2, dtype=float))
    if len(c1) < 2 or len(c2) < 2:
        raise ValueError("paths need at least two points")
    if not (np.allclose(c1[0], c2[-1]) and np.allclose(c1[-1], c2[0])):
        raise ValueError("endpoints must match: tau1 P->Q, tau2 Q->P")
    _check_simple(c1, c2)
    return _shortcut(c1, c2)


def _dedup(pts, tol=1e-12):
    keep = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - keep[-1]) > tol:
            keep.append(p)
    return np.array(keep)


def _check_simple(c1, c2):
    poly = np.vstack([c1[:-1], c2[:-1]])
    n = len(poly)
    scale = max(np.ptp(poly[:, 0]), np.ptp(poly[:, 1]), 1e-30)
    for i in range(n):
        a0, a1 = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b0, b1 = poly[j], poly[(j + 1) % n]
            if _segments_cross(a0, a1, b0, b1, 1e-12 * scale):
                raise ValueError("paths cross: the enclosed region is not simple")


def _segments_cross(a0, a1, b0, b1, tol):
    d1 = a1 - a0
    d2 = b1 - b0
    den = float(cross2(d1, d2))
    if abs(den) < tol * max(np.linalg.norm(d1), np.linalg.norm(d2), tol):
        return False
    t = float(cross2(b0 - a0, d2)) / den
    s = float(cross2(b0 - a0, d1)) / den
    return 1e-9 < t < 1 - 1e-9 and 1e-9 < s < 1 - 1e-9


def _polygon(c1, c2):
    return np.vstack([c1[:-1], c2[:-1]])


def _point_in_poly(pt, poly):
    x, y = pt
    inside = False
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) / (y1 - y0) * (x1 - x0)
            if xc > x:
                inside = not inside
    return inside


def _open_segment_interior(b, d, poly, tol):
    """True if the open segment bd lies in the open interior of poly."""
    if np.linalg.norm(d - b) < tol:
        return False
    n = len(poly)
    for i in range(n):
        p0, p1 = poly[i], poly[(i + 1) % n]
        if _segments_cross(b, d, p0, p1, tol):
            return False
    # no boundary vertex may sit on the open segment
    seg = d - b
    L2 = float(seg @ seg)
    for p in poly:
        t = float((p - b) @ seg) / L2
        if 1e-9 < t < 1 - 1e-9:
            if np.linalg.norm(b + t * seg - p) < tol:
                return False
    mid = 0.5 * (b + d)
    return _point_in_poly(mid, poly)


def _shortcut(c1, c2, depth=0):
    if depth > 500:
        raise RuntimeError("shortcut recursion failed to terminate")
    if len(c1) == 2 or len(c2) == 2:
        return np.array([c1[0], c1[-1]])
    poly = _polygon(c1, c2)
    scale = max(np.ptp(poly[:, 0]), np.ptp(poly[:, 1]), 1e-30)
    tol = 1e-11 * scale

    # swallow any pocket: a same-chain vertex pair seeing each other inside
    for chain, other, first in ((c1, c2, True), (c2, c1, False)):
        m = len(chain)
        for i in range(m - 2):
            for j in range(m - 1, i + 1, -1):
                if _open_segment_interior(chain[i], chain[j], poly, tol):
                    new_chain = np.vstack([chain[: i + 1], chain[j:]])
                    if first:
                        return _shortcut(new_chain, other, depth + 1)
                    return _shortcut(other, new_chain, depth + 1)

    orient = 1.0 if polygon_area(poly) > 0 else -1.0
    for chain_id, chain in ((0, c1), (1, c2)):
        for i in range(1, len(chain) - 1):
            a, b, c = chain[i - 1], chain[i], chain[i + 1]
            if orient * float(cross2(b - a, c - b)) <= tol * scale:
                continue
            cut = _parallel_cut(a, b, c, chain_id, i, c1, c2, tol)
            if cut is None:
                continue
            (t1a, t2a), (t1b, t2b) = cut
            left = _shortcut(t1a, t2a, depth + 1)
            right = _shortcut(t1b, t2b, depth + 1)
            return np.vstack([left[:-1], right])
    raise RuntimeError("no convex corner found: degenerate polygon input")


def _parallel_cut(a, b, c, chain_id, i, c1, c2, tol):
    """Split at the deepest blocking vertex of the other chain.

    Returns ((tau1, tau2) for the P-side subpolygon, (tau1, tau2) for the
    Q-side one), or None when the corner triangle is empty on this side.
    """
    other = c2 if chain_id == 0 else c1
    ac = c - a
    nrm = np.array([-ac[1], ac[0]])
    nrm /= np.linalg.norm(nrm)
    hb = float((b - a) @ nrm)
    sgn = 1.0 if hb > 0 else -1.0
    best = None
    for d_idx in range(1, len(other) - 1):
        p = other[d_idx]
        h = sgn * float((p - a) @ nrm)
        if h < -tol or h > abs(hb) - tol:
            continue
        if not _inside_triangle(p, a, b, c, tol):
            continue
        if best is None or h > best[0]:
            best = (h, d_idx)
    if best is None:
        return None
    h, d_idx = best
    d = other[d_idx]
    at = _line_hit(d, ac, a, b)
    ct = _line_hit(d, ac, b, c)
    if at is None or ct is None:
        return None
    if chain_id == 0:
        t1a = np.vstack([c1[:i], [at, d]])
        t2a = c2[d_idx:]
        t1b = np.vstack([[d, ct], c1[i + 1:]])
        t2b = c2[: d_idx + 1]
    else:
        t1a = c1[: d_idx + 1]
        t2a = np.vstack([[d, ct], c2[i + 1:]])
        t1b = c1[d_idx:]
        t2b = np.vstack([c2[:i], [at, d]])
    return (t1a, t2a), (t1b, t2b)


def _inside_triangle(p, a, b, c, tol):
    s1 = float(cross2(b - a, p - a))
    s2 = float(cross2(c - b, p - b))
    s3 = float(cross2(a - c, p - c))
    area = abs(float(cross2(b - a, c - a)))
    lo = -1e-9 * max(area, tol)
    pos = s1 >= lo and s2 >= lo and s3 >= lo
    neg = s1 <= -lo and s2 <= -lo and s3 <= -lo
    return pos or neg


def _line_hit(origin, direction, s0, s1):
    """Intersection of the line origin + t direction with segment s0 s1."""
    d2 = s1 - s0
    den = float(cross2(direction, d2))
    if abs(den) < 1e-300:
        return None
    s = float(cross2(s0 - origin, direction)) / den
    if s < -1e-9 or s > 1 + 1e-9:
        return None
    return s0 + np.clip(s, 0.0, 1.0) * d2
