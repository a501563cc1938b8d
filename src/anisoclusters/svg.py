"""Deterministic SVG 1.1 renderings of clusters, networks and gauges.

Elements are emitted in a fixed order (background, axes, fills, strokes,
arrows, markers, text) and every coordinate is written with six decimal
places, so identical inputs produce byte-identical documents.

Arrow convention on boundaries: a segment with white on one side gets one
full-length arrow oriented so its colored chamber lies on the arrow's left;
an interface between two colored chambers gets a pair of half-length
opposite arrows, each shifted toward the chamber it weights.
"""

from __future__ import annotations

import numpy as np

from .geometry import rotate_ccw, unit_dir
from .steiner import MODE_SIDES

PALETTE = (
    "#a6cee3",
    "#fdbf6f",
    "#b2df8a",
    "#cab2d6",
    "#fb9a99",
    "#ffff99",
    "#1f78b4",
    "#33a02c",
)

ARROW_PX = 22.0
HALF_ARROW_PX = 11.0


def _fmt(v):
    return f"{float(v):.6f}"


class _Canvas:
    def __init__(self, lo, hi, size=640, margin=0.08):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        span = np.maximum(hi - lo, 1e-9)
        side = float(span.max())
        pad = margin * side
        lo = lo - pad
        side = side + 2 * pad
        self.lo = lo
        self.side = side
        self.size = float(size)
        self.scale = self.size / side

    def pt(self, p):
        x = (float(p[0]) - self.lo[0]) * self.scale
        y = self.size - (float(p[1]) - self.lo[1]) * self.scale
        return x, y

    def fmt(self, p):
        x, y = self.pt(p)
        return f"{_fmt(x)},{_fmt(y)}"

    def px(self, world_len):
        return world_len * self.scale

    def world(self, px):
        return px / self.scale


def _bbox(points):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    return pts.min(axis=0), pts.max(axis=0)


def _svg(elements, size):
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(size)}" height="{int(size)}" viewBox="0 0 {int(size)} {int(size)}">'
    )
    return "\n".join([head, *elements, "</svg>"]) + "\n"


def _background(size):
    return f'<rect x="0" y="0" width="{int(size)}" height="{int(size)}" fill="#ffffff"/>'


def _axes(canvas):
    out = []
    x0, y0 = canvas.pt((0.0, 0.0))
    if 0 <= x0 <= canvas.size:
        out.append(
            f'<line x1="{_fmt(x0)}" y1="0" x2="{_fmt(x0)}" y2="{_fmt(canvas.size)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    if 0 <= y0 <= canvas.size:
        out.append(
            f'<line x1="0" y1="{_fmt(y0)}" x2="{_fmt(canvas.size)}" y2="{_fmt(y0)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    return out


def _polyline(canvas, pts, stroke, width, dashed=False, closed=False):
    d = "M " + " L ".join(canvas.fmt(p) for p in pts) + (" Z" if closed else "")
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<path d="{d}" fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"'
        f'{dash} stroke-linejoin="round" stroke-linecap="round"/>'
    )


def _arrow(canvas, mid, direction, length_px, offset_px=0.0, color="#222222"):
    """A straight arrow centered at mid pointing along direction (world)."""
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd <= 0:
        return []
    u = d / nd
    n = rotate_ccw(u)
    L = canvas.world(length_px)
    off = canvas.world(offset_px)
    c = np.asarray(mid, dtype=float) + off * n
    tail = c - 0.5 * L * u
    tip = c + 0.5 * L * u
    hw = 0.32 * canvas.world(8.0)
    hl = canvas.world(8.0)
    b1 = tip - hl * u + hw * n
    b2 = tip - hl * u - hw * n
    tx, ty = canvas.pt(tail)
    px, py = canvas.pt(tip)
    line = (
        f'<line x1="{_fmt(tx)}" y1="{_fmt(ty)}" x2="{_fmt(px)}" y2="{_fmt(py)}" '
        f'stroke="{color}" stroke-width="1.6"/>'
    )
    head = (
        f'<polygon points="{canvas.fmt(tip)} {canvas.fmt(b1)} {canvas.fmt(b2)}" '
        f'fill="{color}"/>'
    )
    return [line, head]


def _segment_arrows(canvas, p0, p1, left, right, color="#222222"):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if left == right:
        return []
    mid = 0.5 * (p0 + p1)
    d = p1 - p0
    if right == 0:
        return _arrow(canvas, mid, d, ARROW_PX, 0.0, color)
    if left == 0:
        return _arrow(canvas, mid, -d, ARROW_PX, 0.0, color)
    out = _arrow(canvas, mid, d, HALF_ARROW_PX, 4.0, color)
    out += _arrow(canvas, mid, -d, HALF_ARROW_PX, 4.0, color)
    return out


def _marker(canvas, p, r_px=4.0, fill="#000000"):
    x, y = canvas.pt(p)
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r_px)}" '
        f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
    )


def _text(canvas, p, s, size_px=13, color="#333333"):
    x, y = canvas.pt(p)
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{int(size_px)}" fill="{color}">{s}</text>'
    )


def _chamber_cycles(cluster, label):
    """Vertex-index cycles bounding a chamber, chamber kept on the left."""
    segs = []
    for e in cluster.edges:
        idx = list(e.vertices)
        if e.left == label:
            segs.extend(zip(idx[:-1], idx[1:]))
        if e.right == label:
            segs.extend(zip(idx[1:], idx[:-1]))
    start_map = {}
    for k, (a, _) in enumerate(segs):
        start_map.setdefault(a, []).append(k)
    used = [False] * len(segs)
    cycles = []
    for k0 in range(len(segs)):
        if used[k0]:
            continue
        used[k0] = True
        start, b = segs[k0]
        cyc = [start]
        guard = 0
        while b != start and guard <= len(segs):
            cyc.append(b)
            guard += 1
            nxt = None
            for k in start_map.get(b, ()):
                if not used[k]:
                    nxt = k
                    break
            if nxt is None:
                break
            used[nxt] = True
            b = segs[nxt][1]
        cycles.append(cyc)
    return cycles


def render_cluster_svg(cluster, junction_points=None, size=640, arrows=True):
    """Filled chambers, boundary strokes, weight arrows, junction markers."""
    lo, hi = _bbox(cluster.vertices if len(cluster.vertices) else [])
    canvas = _Canvas(lo, hi, size=size)
    elements = [_background(size)]
    elements.extend(_axes(canvas))
    for label in range(1, cluster.m + 1):
        cycles = _chamber_cycles(cluster, label)
        if not cycles:
            continue
        parts = []
        for cyc in cycles:
            pts = cluster.vertices[np.asarray(cyc, dtype=int)]
            parts.append("M " + " L ".join(canvas.fmt(p) for p in pts) + " Z")
        fill = PALETTE[(label - 1) % len(PALETTE)]
        elements.append(
            f'<path d="{" ".join(parts)}" fill="{fill}" fill-opacity="0.75" '
            'fill-rule="evenodd" stroke="none"/>'
        )
    for e in cluster.edges:
        pts = cluster.edge_points(e)
        if e.tags.get("wall"):
            elements.append(_polyline(canvas, pts, "#555555", 3.0))
        else:
            elements.append(_polyline(canvas, pts, "#222222", 1.6))
    if arrows:
        for e in cluster.edges:
            idx = np.asarray(e.vertices, dtype=int)
            k = (len(idx) - 1) // 2
            p0 = cluster.vertices[idx[k]]
            p1 = cluster.vertices[idx[k + 1]]
            elements.extend(_segment_arrows(canvas, p0, p1, e.left, e.right))
    for p in junction_points or []:
        elements.append(_marker(canvas, p, 4.5, "#d62728"))
    return _svg(elements, size)


def render_network_svg(segments, ghost_segments=None, circle_radius=None, size=640):
    """Slice networks: optional reference circle, segments with weight arrows.

    segments: iterable of objects with p0, p1, left, right attributes.
    ghost_segments are drawn dashed gray underneath, for before/after
    comparisons.
    """

    def unpack(s):
        return np.asarray(s.p0, float), np.asarray(s.p1, float), s.left, s.right

    segs = [unpack(s) for s in segments]
    ghosts = [unpack(s) for s in ghost_segments or []]
    pts = [p for s in segs + ghosts for p in (s[0], s[1])]
    if circle_radius:
        pts.extend([np.array([circle_radius, circle_radius]), np.array([-circle_radius, -circle_radius])])
    lo, hi = _bbox(pts if pts else [])
    canvas = _Canvas(lo, hi, size=size)
    elements = [_background(size)]
    elements.extend(_axes(canvas))
    if circle_radius:
        x, y = canvas.pt((0.0, 0.0))
        elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(canvas.px(circle_radius))}" '
            'fill="none" stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4,4"/>'
        )
    for p0, p1, _, _ in ghosts:
        elements.append(_polyline(canvas, [p0, p1], "#bbbbbb", 1.2, dashed=True))
    for p0, p1, left, right in segs:
        stroke = "#222222" if left != right else "#cccccc"
        elements.append(_polyline(canvas, [p0, p1], stroke, 1.8))
    for p0, p1, left, right in segs:
        elements.extend(_segment_arrows(canvas, p0, p1, left, right))
    seen = set()
    for p0, p1, _, _ in segs:
        for p in (p0, p1):
            key = (round(float(p[0]), 9), round(float(p[1]), 9))
            if key not in seen:
                seen.add(key)
                elements.append(_marker(canvas, p, 2.5, "#444444"))
    return _svg(elements, size)


def render_gauge_svg(gauge, n=256, size=640):
    """Unit ball boundary of a gauge with the unit circle for reference."""
    theta = np.arange(int(n)) * (2.0 * np.pi / int(n))
    ball = gauge.boundary_point(theta)
    lo, hi = _bbox(np.vstack([ball, unit_dir(theta)]))
    canvas = _Canvas(lo, hi, size=size)
    elements = [_background(size)]
    elements.extend(_axes(canvas))
    x, y = canvas.pt((0.0, 0.0))
    elements.append(
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(canvas.px(1.0))}" '
        'fill="none" stroke="#cccccc" stroke-width="1" stroke-dasharray="4,4"/>'
    )
    elements.append(_polyline(canvas, ball, "#1f78b4", 2.0, closed=True))
    elements.append(_marker(canvas, (0.0, 0.0), 3.0, "#000000"))
    return _svg(elements, size)


def render_fermat_svg(terminals, point, modes, size=640):
    """Terminals, the junction point, and one weighted arm per terminal. An
    arm's arrows are those of the segment from the point to its terminal
    with its mode's side labels (steiner.MODE_SIDES)."""
    terminals = np.asarray(terminals, dtype=float)
    point = np.asarray(point, dtype=float)
    lo, hi = _bbox(np.vstack([terminals, point[None, :]]))
    canvas = _Canvas(lo, hi, size=size)
    elements = [_background(size)]
    elements.extend(_axes(canvas))
    labels = ("A", "B", "C")
    for x, mode, lab in zip(terminals, modes, labels):
        elements.append(_polyline(canvas, [point, x], "#222222", 1.8))
        elements.extend(_segment_arrows(canvas, point, x, *MODE_SIDES[mode]))
        elements.append(_marker(canvas, x, 4.0, "#1f78b4"))
        elements.append(_text(canvas, x, lab))
    elements.append(_marker(canvas, point, 4.5, "#d62728"))
    return _svg(elements, size)


def render_triples_svg(gauge, a, triples, size=640):
    """The unit ball, the reference boundary point and admissible partners."""
    theta = np.arange(256) * (2.0 * np.pi / 256)
    ball = gauge.boundary_point(theta)
    a = np.asarray(a, dtype=float)
    extra = [a]
    for t in triples:
        extra.extend([np.asarray(t.b, float), np.asarray(t.c, float)])
    lo, hi = _bbox(np.vstack([ball] + [p[None, :] for p in extra]))
    canvas = _Canvas(lo, hi, size=size)
    elements = [_background(size)]
    elements.extend(_axes(canvas))
    elements.append(_polyline(canvas, ball, "#bbbbbb", 1.2, closed=True))
    origin = np.zeros(2)
    elements.append(_polyline(canvas, [origin, a], "#222222", 1.8))
    for t in triples:
        elements.append(_polyline(canvas, [origin, t.b], "#1f78b4", 1.8))
        elements.append(_polyline(canvas, [origin, t.c], "#33a02c", 1.8))
        elements.append(_marker(canvas, t.b, 4.0, "#1f78b4"))
        elements.append(_marker(canvas, t.c, 4.0, "#33a02c"))
    elements.append(_marker(canvas, a, 4.5, "#d62728"))
    elements.append(_text(canvas, a, "A"))
    elements.append(_marker(canvas, origin, 3.0, "#000000"))
    return _svg(elements, size)
