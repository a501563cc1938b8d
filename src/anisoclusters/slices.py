"""Radii-slice configurations in the unit disk and perimeter-decreasing moves.

A configuration is a fan of radii of B(0,1) with a label per sector (0 is
white). Each move family rewires the fan into an explicit competitor network
with the same trace on the circle, so perimeter differences are exact; for
strictly convex smooth gauges a strictly decreasing move exists whenever
there are more than three radii. A network's perimeter is priced by the
clusters' orientation rule (cluster.orientation_rule): a segment between a
colored and a white region is weighed one sidedly, one between two distinct
colored regions symmetrically, by cluster.oriented_weight, the kernel the
solver's segment_weights shares.

Each move family is stated once, as arrays: for one configuration it
selects its moves (slides and tripods over all of EPS_GRID) and writes one
row per candidate, in place, into a table that every family shares and that
is sized once. A row holds the configuration's radii only as labels and a
mask, and its extra segments as endpoint arrays. improve prices the radii
once and every extra segment in one more oriented_weight call, sums each
row's weights in segment order, and decodes only the winning row's move from
its family and offset; its result rebuilds the winner's network from that
move's one-row table, written by the same family, when read. enumerate_moves
decodes every row of the same table. A network holds its segments as arrays,
one row each.

shortcut_path is the paper's other explicit competitor: a path between two
points inside the polygon that two paths between them bound, no longer in
both directions together than the two paths. It uses geometry's predicates
for its crossing tests: polyline_self_intersects rejects crossing paths,
each chain's chords are tested against every polygon edge in one
segments_properly_cross call, and where no convex corner is left,
segment_distance finds the touching paths that it rejects too.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cluster import _ordered_sum, oriented_weight
from .gauge import strict_convexity_margin
from .geometry import (
    TWO_PI,
    ccw_gap,
    cross2,
    polygon_area,
    polyline_self_intersects,
    segment_distance,
    segments_properly_cross,
    unit_dir,
    wrap_angle,
)
from .report import plain

EPS_GRID = tuple(0.5 ** k for k in range(1, 21))


@dataclass
class NetSegment:
    p0: np.ndarray
    p1: np.ndarray
    left: int
    right: int


@dataclass(slots=True)
class CompetitorNetwork:
    """A network of k segments, stored as arrays: segment s runs from
    p0[s] to p1[s] (each (k, 2)) with the labels left[s] and right[s]
    (each (k,))."""

    p0: np.ndarray
    p1: np.ndarray
    left: np.ndarray
    right: np.ndarray
    gauge: object

    @property
    def segments(self):
        """The segments as NetSegments, built on each read."""
        return [
            NetSegment(a, b, l, r)
            for a, b, l, r in zip(self.p0, self.p1, self.left.tolist(), self.right.tolist())
        ]

    def perimeter(self):
        w = oriented_weight(self.gauge, self.p1 - self.p0, self.left, self.right)
        # a sequential sum: analytically tied moves must keep their order
        return _ordered_sum(w)


@dataclass(slots=True)
class ImproveResult:
    """The best move of config. It keeps the configuration and the move, not
    the winner's segments: network rebuilds them on each read from a table
    of the move's one row, which its family writes bit for bit as for
    improve's table."""

    config: SliceConfig
    delta: float
    move: tuple
    perimeter_before: float
    perimeter_after: float
    guaranteed: bool

    @property
    def network(self):
        """The winning competitor network."""
        kind, *args = self.move
        return _one_network(self.config, _ONE_MOVE[kind](self.config, *args))


class SliceConfig:
    """Radii of B(0,1) at sorted angles with a color label per sector.

    colors[i] labels the sector between angles[i] and angles[i+1] (wrapping
    cyclically); label 0 is the exterior. Radii separating two white sectors
    are dropped on construction, so whites are never adjacent. Angles, radius
    endpoints, sector gaps and each radius's (left, right) labels are
    computed once, as read-only arrays.
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
        # merge adjacent white sectors by dropping every radius between two
        # whites, cyclically: a run of whites keeps its first radius
        white = np.array(colors) == 0
        keep = ~(white & np.roll(white, 1))
        angles = angles[keep]
        colors = [c for c, k in zip(colors, keep) if k]
        if len(angles) < 2:
            raise ValueError("need at least two radii after merging whites")
        self.angles = angles
        self.colors = colors
        self.gauge = gauge
        self._points = unit_dir(angles)
        self._gaps = ccw_gap(angles, np.roll(angles, -1))
        self._left = np.array(colors)
        self._right = np.roll(self._left, 1)
        for a in (self.angles, self._points, self._gaps, self._left, self._right):
            a.flags.writeable = False

    @property
    def n(self):
        return len(self.angles)

    def points(self):
        return self._points

    def gaps(self):
        return self._gaps

    def base_network(self):
        return _one_network(self, _BASE)

    def perimeter(self):
        return self.base_network().perimeter()

    def spec(self):
        return plain({"angles_deg": np.degrees(self.angles), "colors": self.colors})


_FLAT = np.pi - 1e-12


class _Block(NamedTuple):
    """One move family's rows of a table, a grid of one row per head and
    step in row-major order: len(heads) by len(eps), or by 1 for a family
    without steps. write(left, right, real, p0, p1) fills them in place,
    given the table's arrays restricted to the block's rows and shaped
    (heads, steps, ...) as views; width is the most extra segments a row
    has."""

    heads: list
    eps: tuple
    width: int
    write: Callable

    def move(self, i):
        """The move of the block's row i: its head, with its step if any."""
        if not self.eps:
            return self.heads[i]
        e = len(self.eps)
        return self.heads[i // e] + (self.eps[i % e],)


class _Table(NamedTuple):
    """Candidate networks of one configuration as one table.

    Columns c < n stand for the configuration's n radii, in every row from
    the origin to config.points()[c]; column n + c is the row's extra
    segment c, from p0[r, c] to p1[r, c]. Row r's network is its columns c
    with real[r, c], in column order, with the labels left[r, c] and
    right[r, c]; other columns are never priced. The rows are the blocks'
    grids one after another, blocks holding each one's first row, and
    move(r) decodes row r's move from its block and its offset there.
    """

    blocks: tuple
    left: np.ndarray
    right: np.ndarray
    real: np.ndarray
    p0: np.ndarray
    p1: np.ndarray

    def move(self, r):
        """Row r's move, from the last block that starts at or before r."""
        for first, block in reversed(self.blocks):
            if r >= first:
                return block.move(r - first)

    @property
    def moves(self):
        """Every row's move, in row order."""
        return [self.move(r) for r in range(len(self.real))]


def _table(config, blocks):
    """The table of the blocks' rows, in order. Its arrays are sized once
    for every block and start as the base network in each row, every extra
    column white and at the centre; each block then writes its own rows in
    place."""
    n = config.n
    grids = [(len(b.heads), len(b.eps) or 1) for b in blocks]
    rows = sum([h * e for h, e in grids])
    width = n + max([b.width for b in blocks])
    left, right = np.zeros((2, rows, width), int)
    left[:, :n], right[:, :n] = config._left, config._right
    real = np.zeros((rows, width), bool)
    real[:, :n] = True
    p0, p1 = np.zeros((2, rows, width - n, 2))
    arrays = (left, right, real, p0, p1)
    firsts, first = [], 0
    for block, (h, e) in zip(blocks, grids):
        block.write(*[a[first : first + h * e].reshape((h, e) + a.shape[1:]) for a in arrays])
        firsts.append(first)
        first += h * e
    return _Table(tuple(zip(firsts, blocks)), *arrays)


# the base network: every radius, no extra segment
_BASE = _Block([None], (), 0, lambda *rows: None)


def _chords(config, ks):
    """Cut each sector k of ks with the chord between its two radius endpoints.

    The radius absorbed into the relabeled inner triangle depends on which
    neighbouring sectors are white; the circular segment beyond the chord
    keeps the sector's label so the trace on the circle is unchanged.
    Sectors spanning pi or more give no row.
    """
    n, pts, c = config.n, config.points(), config._left
    ks = np.asarray(ks, dtype=int)
    ks = ks[~(config.gaps()[ks] >= _FLAT)]
    kq = (ks + 1) % n
    c_p, c_int, c_q = c[ks - 1], c[ks], c[kq]
    both = (c_p == 0) & (c_q == 0)
    q_white = (c_q == 0) & ~both
    # the triangle takes the label of the radius it absorbs
    tri = np.where(both, 0, np.where(q_white, c_p, c_q))

    def write(left, right, real, p0, p1):
        row = np.arange(len(ks))
        real[row, 0, ks] = ~(both | q_white)
        real[row, 0, kq] = q_white
        left[row, 0, ks] = tri
        right[row, 0, kq] = tri
        p0[:, 0, 0], p1[:, 0, 0] = pts[ks], pts[kq]
        left[:, 0, n], right[:, 0, n], real[:, 0, n] = tri, c_int, True

    return _Block([("chord", k) for k in ks.tolist()], (), 1, write)


def _white_spans(config):
    """(j, k): each maximal run of colored sectors j..k after a white one."""
    n, colors = config.n, config.colors
    spans = []
    for j in range(n):
        if colors[(j - 1) % n] != 0 or colors[j] == 0:
            continue
        k = j
        while colors[(k + 1) % n] != 0:
            k += 1
        spans.append((j, k % n))
    return spans


def _join_whites(config, spans):
    """Chord off each colored span of sectors j..k between two white sectors.

    Removes every radius of the span, cuts from the span's end radius to
    its start radius, and puts back the part of each interior radius beyond
    the chord; the region under the chord merges with the white sectors.
    Spans that are not colored runs between whites, or that span pi or
    more, give no row.
    """
    n, pts, gaps, c = config.n, config.points(), config.gaps(), config._left
    runs = []
    for j, k in spans:
        idx = np.arange(j, j + (k - j) % n + 1) % n
        kq, j = (idx[-1] + 1) % n, j % n
        if np.any(c[idx] == 0) or c[j - 1] != 0 or c[kq] != 0:
            continue
        # gaps summed one after another: the test at pi sees the last bit
        if _ordered_sum(gaps[idx]) >= _FLAT:
            continue
        runs.append((j, k % n, idx, kq))

    def write(left, right, real, p0, p1):
        for row, (j, _, idx, kq) in enumerate(runs):
            real[row, 0, idx] = False
            real[row, 0, kq] = False
            # radius s crosses the chord at parameter t along p_end -> p_start
            p_end, p_start = pts[kq], pts[j]
            chord = p_start - p_end
            inner = idx[1:][::-1]
            u = pts[inner]
            t = -cross2(p_end, u) / cross2(chord, u)
            hits = p_end + t[:, None] * chord
            # each interior radius beyond the chord, then the chord's pieces
            # from p_end through the hits to p_start, white on their right
            s, x = len(inner), n + len(inner)
            p0[row, 0, :s], p1[row, 0, :s] = hits, u
            left[row, 0, n:x], right[row, 0, n:x] = c[inner], c[inner - 1]
            p0[row, 0, s], p0[row, 0, s + 1 : 2 * s + 1] = p_end, hits
            p1[row, 0, s : 2 * s], p1[row, 0, 2 * s] = hits, p_start
            left[row, 0, x : x + s], left[row, 0, x + s] = c[inner], c[j]
            right[row, 0, x : x + s + 1] = 0
            real[row, 0, n : x + s + 1] = True

    width = max([2 * len(idx) - 1 for _, _, idx, _ in runs], default=0)
    return _Block([("join-whites", j, k) for j, k, _, _ in runs], (), width, write)


def _slides(config, pairs, eps):
    """Slide the inner endpoint of radius m a distance e along a neighbour,
    for each (m, side) of pairs and each e of eps.

    side +1 slides along the next radius counterclockwise, -1 along the
    previous one. The sliver swept between the old and new segment takes the
    label of the sector on the far side of radius m. Pairs whose swept
    sector spans pi or more give no rows.
    """
    n, pts, gaps, c = config.n, config.points(), config.gaps(), config._left
    m, side = np.array(pairs, dtype=int).reshape(-1, 2).T
    j = (m + side) % n
    ok = ~(np.where(side == 1, gaps[m], gaps[j]) >= _FLAT)
    m, side, j = m[ok], side[ok], j[ok]

    def write(left, right, real, p0, p1):
        pair = np.arange(len(m))
        real[pair, :, m] = False
        real[pair, :, j] = False
        # the slid endpoint v, a step e along radius j; the extras are
        # v -> radius m's end, the stub centre -> v, and v -> radius j's end
        v = np.asarray(eps, dtype=float)[:, None] * pts[j][:, None]
        p0[:, :, 0] = p0[:, :, 2] = p1[:, :, 1] = v
        p1[:, :, 0], p1[:, :, 2] = pts[m][:, None], pts[j][:, None]
        ahead = side == 1
        left[:, :, n : n + 3] = c[np.array([m, np.where(ahead, j, m), j])].T[:, None]
        right[:, :, n : n + 3] = c[np.array([m - 1, np.where(ahead, m - 1, j - 1), j - 1])].T[:, None]
        real[:, :, n : n + 3] = True

    return _Block([("slide", a, s) for a, s in zip(m.tolist(), side.tolist())], eps, 3, write)


def _tripods(config, ms, eps):
    """Replace radii m and m+1 by a Y for each m of ms and each e of eps:
    two triple points instead of one.

    The inner vertex sits at e times the sum of the two radius directions;
    the three new segments carry the labels of the three sectors around the
    replaced pair. Sectors spanning pi or more give no rows.
    """
    n, pts, c = config.n, config.points(), config._left
    m = np.asarray(ms, dtype=int)
    m = m[~(config.gaps()[m] >= _FLAT)]
    mq = (m + 1) % n

    def write(left, right, real, p0, p1):
        pair = np.arange(len(m))
        real[pair, :, m] = False
        real[pair, :, mq] = False
        # the inner vertex w; the extras are centre -> w, w -> radius m's
        # end and w -> radius m+1's end
        w = np.asarray(eps, dtype=float)[:, None] * (pts[m] + pts[mq])[:, None]
        p1[:, :, 0] = p0[:, :, 1] = p0[:, :, 2] = w
        p1[:, :, 1], p1[:, :, 2] = pts[m][:, None], pts[mq][:, None]
        left[:, :, n : n + 3] = c[np.array([mq, m, mq])].T[:, None]
        right[:, :, n : n + 3] = c[np.array([m - 1, m - 1, m])].T[:, None]
        real[:, :, n : n + 3] = True

    return _Block([("tripod", a) for a in m.tolist()], eps, 3, write)


# each family's block of one move, from the move's descriptor fields
_ONE_MOVE = {
    "chord": lambda config, k: _chords(config, [k]),
    "join-whites": lambda config, j, k: _join_whites(config, [(j, k)]),
    "slide": lambda config, m, side, e: _slides(config, [(m, side)], (e,)),
    "tripod": lambda config, m, e: _tripods(config, [m], (e,)),
}


def _networks(config, table):
    """The competitor network of every row of table, in row order. The real
    columns of all rows, read row by row, are every network's segments one
    network after another; each network gets a copy of its run."""
    n, real = config.n, table.real
    rows = len(real)
    p0 = np.concatenate([np.zeros((rows, n, 2)), table.p0], axis=1)[real]
    p1 = np.concatenate([np.broadcast_to(config.points(), (rows, n, 2)), table.p1], axis=1)[real]
    left, right = table.left[real], table.right[real]
    ends = real.sum(axis=1).cumsum().tolist()
    return [
        CompetitorNetwork(p0[a:b].copy(), p1[a:b].copy(), left[a:b].copy(), right[a:b].copy(), config.gauge)
        for a, b in zip([0] + ends[:-1], ends)
    ]


def _one_network(config, block):
    """The network of block's one row."""
    (network,) = _networks(config, _table(config, [block]))
    return network


def _candidates(config):
    """The table of the base network (row 0) and every move family's rows,
    in enumerate_moves order."""
    n = range(config.n)
    return _table(config, [
        _BASE,
        _chords(config, n),
        _join_whites(config, _white_spans(config)),
        _slides(config, [(m, side) for m in n for side in (1, -1)], EPS_GRID),
        _tripods(config, n, EPS_GRID),
    ])


def _perimeters(config, table):
    """Each row's perimeter. The radii are the same n vectors in every row:
    they are priced in one oriented_weight call whose labels spread them
    over the rows, and the real extra segments of all rows in one more. A
    gauge call rounds each vector alike whatever else the batch holds, so
    every weight has the bits of pricing its segment alone. Each row's
    weights are then summed in segment order, because analytically tied
    moves must keep their order (columns that are not real add exact
    zeros)."""
    n, real = config.n, table.real
    w = np.zeros(real.shape)
    radii = oriented_weight(config.gauge, config.points(), table.left[:, :n], table.right[:, :n])
    w[:, :n] = np.where(real[:, :n], radii, 0.0)
    # the real extras, read by flat index: extra segment c of row r is at
    # r * W + c in p0 and p1 (each row W extras wide), and at r * (n + W) +
    # n + c in the other arrays
    extra = np.flatnonzero(real[:, n:])
    at = extra + (extra // table.p0.shape[1] + 1) * n
    vec = table.p1.reshape(-1, 2).take(extra, axis=0) - table.p0.reshape(-1, 2).take(extra, axis=0)
    w.put(at, oriented_weight(config.gauge, vec, table.left.take(at), table.right.take(at)))
    return w.cumsum(axis=1)[:, -1]


def _priced(config):
    """The table of _candidates, and each row's perimeter."""
    table = _candidates(config)
    return table, _perimeters(config, table)


def enumerate_moves(config):
    """Yield (move descriptor, network) over all families, deterministic order."""
    table = _candidates(config)
    yield from zip(table.moves[1:], _networks(config, table)[1:])


def improve(config):
    """Best competitor over all move families; delta > 0 means improvement.

    Needs more than three radii. For smooth strictly convex gauges the
    returned delta is positive; for kinked or flat-sided gauges the best
    candidate is still returned, with the guarantee flag cleared (delta may
    be nonpositive). Of equal deltas the first enumerated wins. The base
    network and every candidate are priced together: the configuration's
    radii in one oriented_weight call and every other segment in one more.
    Only the winner's move is decoded; the result keeps the configuration
    and that move, and builds the winner's network only when it is read.
    """
    if config.n < 4:
        raise ValueError("hypothesis not met: need more than three radii")
    table, prices = _priced(config)
    if len(prices) == 1:
        raise ValueError("no applicable move (all sectors span at least pi)")
    base = float(prices[0])
    deltas = base - prices[1:]
    r = int(deltas.argmax())
    delta = float(deltas[r])
    return ImproveResult(
        config=config,
        delta=delta,
        move=table.move(r + 1),
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
    construction is purely geometric and gauge independent. When some part
    of the region has no convex corner, the construction is tried once more
    without the vertices that either path runs straight through.

    Paths that cross raise ValueError. Paths that only touch (P = Q, a
    repeated vertex, or a vertex on an edge not at it) also bound a polygon
    that is not simple: they raise ValueError where the construction finds
    no convex corner, and give the path it finds elsewhere.
    """
    c1 = _dedup(np.asarray(tau1, dtype=float))
    c2 = _dedup(np.asarray(tau2, dtype=float))
    if len(c1) < 2 or len(c2) < 2:
        raise ValueError("paths need at least two points")
    if not (np.allclose(c1[0], c2[-1]) and np.allclose(c1[-1], c2[0])):
        raise ValueError("endpoints must match: tau1 P->Q, tau2 Q->P")
    if polyline_self_intersects(np.vstack([c1[:-1], c2[:-1], c1[:1]])):
        raise ValueError("paths cross: the enclosed region is not simple")
    # a vertex that a chain runs straight through can block every chord and
    # leave some part with no convex corner; without such vertices the
    # region and, for every gauge, both chains' lengths are the same
    attempts = [(c1, c2)]
    s1, s2 = _straighten(c1), _straighten(c2)
    if len(s1) < len(c1) or len(s2) < len(c2):
        attempts.append((s1, s2))
    for chains in attempts:
        try:
            return _shortcut(*chains)
        except RuntimeError as err:
            failure = err
    if _touches_itself(np.vstack([c1[:-1], c2[:-1]])):
        raise ValueError("paths touch: the enclosed region is not simple") from failure
    raise failure


def _touches_itself(ring):
    """Whether some vertex of the closed polygon ring lies on an edge not
    at it, to the construction's tolerance of 1e-11 times the ring's extent:
    a repeated vertex lies on the edges at its twin."""
    n = len(ring)
    k, i = np.indices((n, n)).reshape(2, -1)
    j = (i + 1) % n
    far = (k != i) & (k != j)
    v = ring[k[far]]
    scale = max(np.ptp(ring[:, 0]), np.ptp(ring[:, 1]), 1e-30)
    return bool((segment_distance(v, v, ring[i[far]], ring[j[far]]) <= 1e-11 * scale).any())


def _dedup(pts):
    """pts without each point within 1e-12 of the last one kept."""
    keep = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - keep[-1]) > 1e-12:
            keep.append(p)
    return np.array(keep)


def _interior_chord(chain, poly, tol):
    """The first chord (i, j), j > i + 1, between vertices of chain whose
    open segment lies in the open interior of poly, in the order i
    ascending and then j descending; None if there is none.

    All chords are tested at once. A chord qualifies when it is at least
    tol long, crosses no edge of poly, passes within tol of no vertex of
    poly, and an even-odd ray cast towards +x puts its midpoint inside.
    """
    i, j = np.triu_indices(len(chain), 2)
    b, d = chain[i][:, None], chain[j][:, None]  # one chord per row
    p, q = poly, np.roll(poly, -1, axis=0)  # one edge p -> q per column
    seg = d - b
    with np.errstate(divide="ignore", invalid="ignore"):
        # each vertex's foot on the chord's line
        t = ((p - b) * seg).sum(axis=-1) / (seg * seg).sum(axis=-1)
        off = b + t[..., None] * seg - p
        on = (t > 1e-9) & (t < 1 - 1e-9) & (np.hypot(off[..., 0], off[..., 1]) < tol)
        # where each edge meets the horizontal through the chord's midpoint
        x, y = np.moveaxis(0.5 * (b + d), -1, 0)
        xc = p[:, 0] + (y - p[:, 1]) / (q[:, 1] - p[:, 1]) * (q[:, 0] - p[:, 0])
    rays = ((p[:, 1] > y) != (q[:, 1] > y)) & (xc > x)
    ok = (
        (np.hypot(seg[:, 0, 0], seg[:, 0, 1]) >= tol)
        & ~segments_properly_cross(b, d, p, q).any(axis=1)
        & ~on.any(axis=1)
        & (rays.sum(axis=1) % 2 == 1)
    )
    if not ok.any():
        return None
    first = i[ok][0]
    return int(first), int(j[ok & (i == first)].max())


def _shortcut(c1, c2, depth=0):
    if depth > 500:
        raise RuntimeError("shortcut recursion failed to terminate")
    if len(c1) == 2 or len(c2) == 2:
        return np.array([c1[0], c1[-1]])
    poly = np.vstack([c1[:-1], c2[:-1]])
    scale = max(np.ptp(poly[:, 0]), np.ptp(poly[:, 1]), 1e-30)
    tol = 1e-11 * scale

    # swallow any pocket: a same-chain vertex pair seeing each other inside
    for chain, other, first in ((c1, c2, True), (c2, c1, False)):
        chord = _interior_chord(chain, poly, tol)
        if chord is not None:
            i, j = chord
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


def _straighten(chain):
    """chain without the interior vertices it passes straight through: those
    whose two edges point the same way, at an angle below 1e-11 radians."""
    a, b = chain[1:-1] - chain[:-2], chain[2:] - chain[1:-1]
    straight = (np.abs(cross2(a, b)) <= 1e-11 * np.hypot(*a.T) * np.hypot(*b.T)) & ((a * b).sum(axis=1) > 0)
    return chain[np.concatenate([[True], ~straight, [True]])]


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
    # the first of the deepest inner vertices inside the corner triangle;
    # each depth is its own 1-d dot product, rounded as hb is
    p = other[1:-1]
    h = sgn * ((p - a)[:, None, :] @ nrm)[:, 0]
    ok = (h >= -tol) & (h <= abs(hb) - tol) & _inside_triangle(p, a, b, c, tol)
    if not ok.any():
        return None
    d_idx = 1 + int(np.argmax(np.where(ok, h, -np.inf)))
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
    """Whether each point of p (k, 2) lies in the closed triangle abc, up
    to a relative 1e-9 of its area."""
    s1 = cross2(b - a, p - a)
    s2 = cross2(c - b, p - b)
    s3 = cross2(a - c, p - c)
    area = abs(float(cross2(b - a, c - a)))
    lo = -1e-9 * max(area, tol)
    return ((s1 >= lo) & (s2 >= lo) & (s3 >= lo)) | ((s1 <= -lo) & (s2 <= -lo) & (s3 <= -lo))


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
