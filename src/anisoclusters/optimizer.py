"""Constrained perimeter minimization over polygonal clusters, plus the
junction and regularity diagnosis of the results (steiner_diagnose), which
takes each junction arm's tangent from the circle through the arm's first
three points and reads a junction at a wall as the solver moves it.

The solver keeps the cluster topology fixed and moves vertices. Chamber
volumes are enforced with an augmented Lagrangian (penalty doubling,
multiplier update per outer iteration); the inner loop is descent on
finite-difference shape gradients with a Barzilai-Borwein trial step and
Armijo backtracking. Steps cannot fold the boundary (conservative
advancement, after Mirtich 1996): each inner iteration caps every vertex's
step below half its clearance, the distance between a segment at it and the
nearest segment sharing no endpoint with that one; a point of a segment
moves at most as far as its farther-moving endpoint, so no two such segments
can meet. Only the pairs whose bounding boxes, grown by the reach of the
iteration's first trial step, overlap (cluster.crossing_pairs) can come that
close, so the clearances, and the exact crossing test that still guards
every accepted step, look at those pairs alone, as a set: a per-vertex
minimum and an any() read them in any order. The vertices move a small
fraction of a segment per step, so the sort-and-sweep that finds those
pairs runs once per vertex numbering with a skin of one resampling length,
and again only when the drift since then and the step's reach use up the
skin. The neighbour list is sorted by how far apart each pair's boxes were
at its build, and each step applies the same box test to the pairs that
drift and reach can have brought within range alone, often none (Verlet
1967; _Mesh.near_ends).

Each edge has one role, read from its tags by cluster._edge_roles. A free
edge is counted in the objective, its vertices move with two degrees of
freedom, and between outer iterations it is resampled to a uniform target
segment length. A wall edge is part of the region's boundary: vertices
interior to a straight run of walls slide along the wall line, wall
corners stay put. An edge tagged "fixed" is counted but never moves: its
vertices are pinned. Wall and fixed edges are kept: resampling copies them
verbatim. Edge endpoints, and with them every junction, survive
resampling. The solver sees each sampled cluster through one _Mesh, which
holds the segment arrays, the degrees of freedom, the finite-difference
stencil and the evaluations on them.

Each evaluation (_Mesh.evaluate) gathers the endpoints of some rows of one
table, the segments (the objective's rows) and then the finite-difference
stencil's + and - rows, and prices them in one segment_weights and one
fan_volume_terms call. Under a uniform gauge, where a call costs mostly
overhead, a point's first pricing takes its stencil's rows too (a
descent's start, each restart on collapse, the first trial of every step),
so a step accepted at its first trial, as most are, makes one call;
backtracking trials price the objective's rows alone, and a step accepted
after them its stencil's rows alone. A gauge field, which Density.h_at
prices point by point, gains nothing from merging: there every point
prices its objective's rows first and its stencil's alone once accepted.
The gradient is finished at accepted points only, the collapse check reads
the objective rows' gather, and a descent's start takes P0, the perimeter
its objective is scaled by, from its first evaluation. Under a uniform
gauge segment_weights prices through cluster.oriented_weight, one side of
a symmetric gauge (Gauge.symmetric) and both stacked otherwise. No
evaluation picks out the segments that count: one that is no interface (a
wall, or one chamber on both sides) is priced white on both sides, an
exact 0.0 by the orientation rule, and a kept edge gets a collapse spacing
of 0.0. Gathers use take and scatters np.bincount, which adds in
np.add.at's order, so the iterates are those of one call per side and
stencil sign, bit for bit.

What depends on the vertex numbering alone (segment arrays, masks,
gathers, scatter indices, the dof map, the stencil and the broad phase's
neighbour list) is built once per numbering, in whole-array passes. A
resampling or a continuation stage that keeps every edge's vertex list
hands the mesh before it to the new _Mesh, which carries those tables over
and recomputes only what depends on the positions, bit for bit as a mesh
built afresh would.

The mesh is also repaired inside an outer iteration (remeshing on collapse,
as Surface Evolver removes tiny edges during the evolution, Brakke 1992).
When two vertices of an edge slide together, the clearance caps of their
neighbours shrink with the collapsed segment, and the descent freezes
until the step budget runs out. So when an accepted step leaves a segment
shorter than COLLAPSE_FRACTION of the length resampling would give it,
_descend resamples the cluster and starts over from it at the same
multiplier and penalty with the steps that remain of max_inner. Segments of
kept edges and one-segment edges, which resampling cannot lengthen, never
count. Each descent records why it stopped: converged, stalled (the line
search found no acceptable step) or out of budget, and the perimeter,
volumes and volume errors of the state it ended at, which _solve_single
reads instead of pricing that state again.

A gauge with a ladder of smooth surrogates (Gauge.continuation(): the max
norm's l^8, l^32, l^128, through whatever linear map the gauge applies to
it) is approached through it: before the outer loop, one inner descent on
each surrogate in turn, at the starting multiplier and penalty, carries the
cluster from stage to stage (homotopy continuation, Allgower and Georg
1990). Descent on the kinked gauge alone creeps along its flat directions;
from the last surrogate's minimiser it has little left to do.

A solve begins at the targets' total volume wherever one rescale puts
it there exactly (_volume_matched): with no kept edge and a constant g, the
problem's cluster is scaled about the mean of its vertices by
s = sqrt(sum of targets / sum of volumes), since a volume scales as s**2.
The first descent then need not shrink or grow the cluster; shrinking
shortens every segment, and the short ones collapse. A wall or a
fixed edge cannot move, and a callable g breaks the s**2 law, so such a
cluster starts as given; so does one with s exactly 1. The resampling
length still comes from the problem's cluster, so the final resolution is
the same either way.

Such a start also begins at its Euler pressure when the gauge is uniform
(_start_multipliers): the continuation ladder's descents and the first
outer iteration run at lam_i = -T_i / (2 sum_j T_j) for targets T, s == 1
or not, where every other solve runs them at lam = 0. h is 1-homogeneous
and a volume 2-homogeneous, so along the dilation about any point the
objective below changes at the rate P / P0 + 2 sum_i (lam_i + mu e_i) V_i
/ T_i. At the volume-matched start P0 = P and sum V = sum T, so with mu = 0
this lam makes that rate exactly 0 whatever the perimeter, and the first
descent need not shrink the cluster to shorten it. It gives every chamber
the same pressure, P0 / (2 sum T): the volume-weighted mean of the
pressures that the Euler identity P = 2 sum p_i V_i of a minimiser fixes,
exact for one chamber and for equal ones. A kept edge, a callable g or a
gauge field breaks the homogeneity, so such a cluster begins at lam = 0.

Wall edges carry constant perimeter (their geometry never changes as a set),
so the optimization objective counts non-wall interfaces only, normalized by
the initial interface perimeter. Volume errors are relative to the targets.
Both normalizations make the iterates invariant under a common scaling of
g, h and the targets: bit for bit when the factor is a power of two, which
scales every rounded intermediate exactly; otherwise up to rounding, which
can move a solve's step count (an ellipse 64-gon of area 1.3, target 1,
takes the same steps at factors 1, 2 and 0.5, and others at 3 and 0.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .cluster import (
    _edge_roles,
    box_crossing_pairs,
    chamber_index,
    chamber_sums,
    crossing_pairs,  # noqa: F401 (also read as optimizer.crossing_pairs)
    fan_volume_terms,
    interface_perimeter,  # noqa: F401 (also read as optimizer.interface_perimeter)
    interface_sum,
    perimeter_breakdown,
    segment_weights,
    validate,
    weighted_volume,
)
from .density import Density
from .gauge import _euclidean_norm
from .geometry import (
    angle_between,
    angle_of,
    box_gap,
    cross2,
    grown_boxes,
    integer_at_least,
    positive_number,
    row_norms,
    segment_boxes,
    segment_distance,
    segments_properly_cross,
    unit_dir,
    wrap_angle,
)
from .report import plain
from .steiner import arm_forces, detect_junctions, junction_residual

# An accepted inner step that leaves a segment of a free edge shorter than
# this fraction of the length resampling would give it sends _descend
# through resample_cluster and on from the resampled cluster.
COLLAPSE_FRACTION = 0.1

# The finite-difference step of a dof as a fraction of the mean length of
# the segments at its vertex (_Mesh), and the augmented Lagrangian's starting
# penalty mu (_solve_single).
FD_SCALE = 1e-6
PENALTY0 = 10.0


@dataclass
class SolveOptions:
    """The solve's budgets and tolerances, checked as the scenario loader
    checks them: max_outer and max_inner are integers >= 1, vol_tol and
    grad_tol positive finite numbers."""

    max_outer: int = 30
    max_inner: int = 200
    vol_tol: float = 1e-6
    grad_tol: float = 1e-5

    def __post_init__(self):
        for name in ("max_outer", "max_inner"):
            integer_at_least(name, getattr(self, name), 1)
        for name in ("vol_tol", "grad_tol"):
            positive_number(name, getattr(self, name))


@dataclass
class OptimizationProblem:
    cluster: object
    density: object
    targets: object
    options: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        if len(self.targets) != self.cluster.m:
            raise ValueError(
                f"need {self.cluster.m} target volumes, got {len(self.targets)}"
            )
        if not np.isfinite(self.targets).all():
            raise ValueError(f"target volumes must be finite, got {self.targets}")
        if np.any(self.targets <= 0):
            raise ValueError("target volumes must be strictly positive")
        problems = validate(self.cluster)
        if problems:
            raise ValueError("invalid initial cluster:\n" + "\n".join(problems))
        vols = weighted_volume(self.cluster, self.density)
        ratio = np.maximum(vols / self.targets, self.targets / np.maximum(vols, 1e-300))
        if np.any(ratio > 10.0 * (1 + 1e-12)):
            raise ValueError(
                f"initial volumes {vols} not within a factor 10 of targets {self.targets}"
            )


@dataclass
class SolveReport:
    cluster: object
    success: bool
    perimeter: float
    interface_perimeter: float
    volumes: np.ndarray
    volume_errors: np.ndarray
    perimeter_trace: list
    volume_error_trace: list
    outer_iterations: int
    inner_iterations: int
    crossing_rejections: int
    flags: list
    resamples: int = 0
    junctions: list = field(default_factory=list)
    continuation: list = field(default_factory=list)

    def spec(self):
        return plain(vars(self))


def _default_resample_len(cluster):
    """Mean length of the segments resampling redistributes, or of all
    segments when every edge is kept."""
    p, q, _, _, eid = cluster.segment_arrays()
    if len(p) == 0:
        raise ValueError("cluster has no segments")
    lens = _euclidean_norm(q - p)
    _, _, kept = _edge_roles(cluster)
    sel = ~kept[eid]
    use = lens[sel] if sel.any() else lens
    return float(use.mean())


def _apply_step(V, mesh, d):
    """Vertex positions V moved by the dof step d: each dof adds its unit
    vector times its entry to its vertex, a vertex's first dof before its
    second (as np.add.at would), each rank as one gather of the step, kept
    in the mesh's step_buffer (mesh.step_ranks), and one add."""
    step = mesh.step_buffer
    np.multiply(mesh.uvec, d[:, None], out=step[:-1].reshape(-1, 2))
    out = V + step.take(mesh.step_ranks[0])
    out += step.take(mesh.step_ranks[1])
    return out


def _has_crossing(V, ends):
    """True when some pair of segments properly crosses at vertex positions
    V. ends is a (4, P) array of the endpoint indices (i0[a], i1[a], i0[b],
    i1[b]) of the segment pairs (a, b) to test, in any order."""
    if ends.shape[1] == 0:
        return False
    return bool(segments_properly_cross(*V[ends]).any())


def _clearance_caps(V, mesh, d):
    """Per-dof caps under which no step moving each vertex at most as far as
    step d does can make two segments of the mesh that share no endpoint
    meet, and the endpoint indices, as _has_crossing takes them, of the
    segment pairs that such a step can make cross, in any order.

    delta is the largest Euclidean reach of a vertex under d; pairs whose
    boxes grown by delta do not overlap start more than 2 delta apart. On the
    other pairs (mesh.near_ends) each vertex's clearance c_v is the least
    distance from a segment at it to a segment sharing no endpoint with that
    one, and its caps are 0.49 c_v / sqrt(ndof_v), a reach below c_v / 2;
    vertices in no such pair get no cap (inf). With no such pair at all,
    the caps are the mesh's read-only all-inf array.
    """
    nv = len(V)
    delta = float(np.sqrt(np.bincount(mesh.vert, weights=d * d, minlength=nv).max()))
    ends = mesh.near_ends(V, delta)
    if not ends.shape[1]:
        return mesh.no_caps, ends
    clearance = np.full(nv, np.inf)
    dist = segment_distance(*V.take(ends, axis=0))
    np.minimum.at(clearance, ends.ravel(), np.tile(dist, 4))
    return 0.49 * clearance[mesh.vert] / mesh.sqrt_ndof, ends


def _wall_slides(V, at, other):
    """For pairs of a vertex at[i] and the far end other[i] of one of its
    wall segments, each vertex's pairs adjacent: whether the vertex slides,
    its direction u and whether the far end is off it. A vertex whose far
    ends off it lie on one line through it slides along it, u the unit
    direction d / np.linalg.norm(d) to the first; any other is a wall
    corner, pinned."""
    d = V.take(other, axis=0) - V.take(at, axis=0)
    nd = row_norms(d)
    far = ~(nd < 1e-300)
    # each pair's vertex, numbered, and each vertex's first far end
    group = np.cumsum(np.concatenate(([True], at[1:] != at[:-1]))[: len(at)]) - 1
    g, dirs = group[far], d[far] / nd[far, None]
    lead = np.concatenate(([True], g[1:] != g[:-1]))[: len(g)]
    u = np.zeros((group[-1] + 1 if len(group) else 0, 2))
    u[g[lead]] = dirs[lead]
    slides = np.zeros(len(u), dtype=bool)
    slides[g] = True
    slides[g[np.abs(cross2(u[g], dirs)) > 1e-9]] = False
    return slides[group], u[group], far


class _Mesh:
    """The solver's view of one sampled cluster: its segment arrays, the map
    between movable vertex coordinates and a flat parameter vector, the
    finite-difference stencil, and the evaluations on them: evaluate on
    objective_rows, stencil_rows or all_rows, first_rows a point's first
    pricing (all_rows under a uniform gauge), gradient_from and collapsed.
    Volumes use weighted_volume's fan_volume_terms and chamber_sums, so the
    reported constraint errors are exactly the ones being minimized.

    Free vertices carry two axis-aligned degrees of freedom. A vertex whose
    incident wall segments are all parallel slides along that line with one
    degree of freedom; wall corners and vertices of pinned edges carry none
    (_edge_roles).

    char_len, the resampling length, sets the finite-difference floor and
    the skin of the neighbour list behind near_ends.

    Given prev, the mesh of an earlier cluster, a mesh of a cluster with the
    same vertex numbering (as many vertices, and every edge's vertex list,
    labels and role equal) starts from prev's index tables and neighbour
    list, whose drift rule covers the vertices moved since its build, and
    recomputes only what depends on the positions; its dof map and stencil
    are rebuilt too if a wall vertex no longer slides as it did. Either way
    it equals a mesh built without prev, array for array.
    """

    def __init__(self, cluster, density, targets, char_len, prev=None):
        V = cluster.vertices
        roles = _edge_roles(cluster)
        edges = [(tuple(e.vertices), e.left, e.right) for e in cluster.edges]
        numbering = (len(V), edges, [role.tolist() for role in roles[:2]])
        carried = prev is not None and prev.numbering == numbering
        if carried:
            self.__dict__.update(prev.__dict__)
        else:
            self.numbering = numbering
            self._index(cluster, roles)
        self.density = density
        self.skin = char_len
        self.targets = np.asarray(targets, dtype=float)

        seglen = _euclidean_norm(V.take(self.i1, axis=0) - V.take(self.i0, axis=0))
        total = np.bincount(self.ends, weights=seglen.repeat(2), minlength=len(V))
        local = np.maximum(total / np.maximum(self.count, 1), 1e-9 * char_len)

        # vertices at a wall slide along it, or are pinned at a corner
        ndof, at, other = self.ndof_unwalled, self.wall_at, self.wall_other
        slides = far = np.zeros(len(at), dtype=bool)
        if len(at):
            slides, u, far = _wall_slides(V, at, other)
            ndof = ndof.copy()
            ndof[at] = slides
        if not (carried and np.array_equal(ndof, self.ndof)):
            self._dofs(ndof)
        if slides.any():
            # on a copy: a carried uvec is prev's own
            self.uvec = self.uvec.copy()
            self.uvec[self.first[at[slides]]] = u[slides]
            self._fd_units()
        # each sliding dof and a wall neighbour off its vertex, as pairs
        paired = slides & far
        self.wall_dof, self.wall_nb = self.first.take(at[paired]), other[paired]
        self.local_len = local.take(self.vert)
        self.h_fd = FD_SCALE * self.local_len
        self.base_caps = 0.45 * self.local_len
        self.base_caps.flags.writeable = False
        h = self.h_fd.take(self.ent_dof)
        steps = np.concatenate([np.ones(len(self.i0)), h, h]).repeat(2)
        self.row_disp = (self.row_u * steps).reshape(2, -1, 2)
        self.fd_two_h = 2.0 * h
        # a point's first pricing: its stencil rows too under a uniform gauge
        self.first_rows = self.all_rows if density.uniform_gauge else self.objective_rows

    def _index(self, cluster, roles):
        """The tables fixed by the vertex numbering and the edge roles
        (_edge_roles): segment arrays, collapse check, vertex incidence,
        wall pairs, the objective's gathers and masks, and an empty
        neighbour list."""
        nv = len(cluster.vertices)
        i0, i1, left, right, eid = cluster.segment_index_arrays()
        self.i0, self.i1 = i0, i1
        self.left, self.right = left, right
        wall, pinned = roles[0].take(eid), roles[1].take(eid)
        self.active = ~wall & (left != right)
        # collapsed() sums every segment's length into its edge and gives
        # kept edges, which resampling copies, no spacing
        self.eid, self.kept_edge = eid, roles[2]
        self.min_count = np.array([_min_count(e) for e in cluster.edges])

        # the objective gathers every segment's endpoints at once, stacked:
        # seg_ends[0] the starts, seg_ends[1] the ends
        self.seg_ends = np.array([i0, i1])
        # segment s has its start at ends[2 s] and its end at ends[2 s + 1]
        self.ends = ends = self.seg_ends.T.ravel()
        self.count = np.bincount(ends, minlength=nv)
        # the dofs before walls: two at a vertex of a segment, none pinned
        ndof = 2 * (self.count > 0)
        ndof[ends[pinned.repeat(2)]] = 0
        self.ndof_unwalled = ndof
        # each unpinned vertex at a wall and its wall neighbours, as pairs
        # sorted by vertex (not np.unique, which imports numpy.ma)
        at_wall = np.flatnonzero(wall.repeat(2))
        at_wall = at_wall[np.argsort(ends.take(at_wall), kind="stable")]
        at_wall = at_wall[ndof.take(ends.take(at_wall)) > 0]
        self.wall_at, self.wall_other = ends.take(at_wall), ends.take(at_wall ^ 1)

        # the perimeter prices every segment at the labels w_left and
        # w_right, white on both sides of an inactive one, and sums the
        # active ones, act
        self.act = np.flatnonzero(self.active)
        self.w_left = left * self.active
        self.w_right = right * self.active
        self.chambers = chamber_index(left, right)
        # near_ends' list: the positions, margin and rounding slack of its
        # build, and its pairs' box gaps and endpoint indices, in gap order
        self._near = None

    def _dofs(self, ndof):
        """The tables fixed by the dof count of every vertex: the dof map,
        _apply_step's ranks and buffer, the unit vectors of free dofs, and
        the finite-difference stencil's gathers, masks and scatter indices."""
        nv = len(ndof)
        self.ndof = ndof
        # dofs in vertex order, a vertex's dofs adjacent
        first = self.first = ndof.cumsum() - ndof
        self.vert = np.arange(nv).repeat(ndof)
        self.n = len(self.vert)
        # a sliding dof's unit vector is set from the positions
        self.uvec = np.zeros((self.n, 2))
        free = first[ndof == 2]
        self.uvec[free, 0] = 1.0
        self.uvec[free + 1, 1] = 1.0

        # _apply_step's two ranks: for every vertex coordinate, the flat
        # position in step_buffer (uvec * d) of the vertex's first dof, then
        # of its second, or of the -0.0 after it where the vertex has no
        # such dof
        pad = 2 * self.n
        self.step_buffer = np.full(pad + 1, -0.0)
        k = np.arange(2)[:, None, None]
        self.step_ranks = np.where(ndof[:, None] > k, 2 * (first[:, None] + k) + np.arange(2), pad)
        self.sqrt_ndof = np.sqrt(ndof.take(self.vert))
        self.no_caps = np.full(self.n, np.inf)
        self.no_caps.flags.writeable = False

        # finite-difference stencil: one entry per (segment, endpoint, dof)
        ends, S = self.ends, len(self.i0)
        per_end = ndof.take(ends)
        ent = np.arange(len(ends)).repeat(per_end)
        # an end's second dof follows its first
        offset = np.zeros(len(ent), dtype=int)
        offset[1:] = ent[1:] == ent[:-1]
        seg, slot = self.ent_seg, self.ent_slot = ent >> 1, ent & 1
        self.ent_dof = first.take(ends.take(ent)) + offset
        # evaluate's table: the S segments, then the stencil's two signs, row
        # S + r entry r displaced by +h along its dof and row S + E + r by
        # -h. row_ends[0] and row_ends[1] hold the rows' start and end
        # vertices, row_disp their displacements (_fd_units). Starts and ends
        # are kept in separate blocks, as elementwise numpy loops over (n, 2)
        # rows that are not contiguous run an order of magnitude slower
        E = len(ent)
        fd_ends = self.seg_ends.take(seg, axis=1)
        self.row_ends = np.concatenate([self.seg_ends, fd_ends, fd_ends], axis=1)
        self.objective_rows, self.stencil_rows = slice(0, S), slice(S, S + 2 * E)
        self.all_rows = slice(0, S + 2 * E)
        self._fd_units()
        # the rows' labels, masked as for the perimeter, so that inactive
        # rows price 0.0; the stencil's also as they are for the volumes,
        # which walls bound
        self.fd_left, self.fd_right = self.left.take(seg), self.right.take(seg)
        w_left, w_right = self.w_left.take(seg), self.w_right.take(seg)
        self.row_w_left = np.concatenate([self.w_left, w_left, w_left])
        self.row_w_right = np.concatenate([self.w_right, w_right, w_right])

    def _fd_units(self):
        """row_u, row_disp flattened to (2, 2 S + 4 E) over its rows' steps
        (1, or h of a stencil entry): each stencil row's unit vector u at its
        displaced end, -u in a - row ((-u) * h is -(u * h) bit for bit), and
        -0.0, which adds nothing, at an end that stays and in objective rows."""
        u, slot = self.uvec.take(self.ent_dof, axis=0), self.ent_slot
        S = len(self.i0)
        at = np.concatenate([np.full(S, 2), slot, slot]).repeat(2) == np.arange(2)[:, None]
        self.row_u = np.where(at, np.concatenate([np.zeros((S, 2)), u, -u]).ravel(), -0.0)

    def near_ends(self, V, delta):
        """The endpoint indices (i0[a], i1[a], i0[b], i1[b]), as
        _has_crossing takes them, of the pairs (a, b) that
        crossing_pairs(V, i0, i1, margin=delta) gives, in any order, read
        from a neighbour list built once per mesh with a skin (Verlet 1967).

        The list holds crossing_pairs at the positions V0 of its build and a
        margin of at least the skin, sorted by each pair's box gap at V0
        (geometry.box_gap), the sweep's boxes and the gaps both read from one
        geometry.segment_boxes of every segment. If no coordinate has moved
        by more than drift since, each side of a segment's box has moved by
        at most drift, so a pair whose boxes at V grown by delta overlap has
        a gap at V0 of at most 2 (drift + delta), and it is listed while
        drift + delta is at most the margin. Rounding moves each of these
        bounds by a few ulps of the coordinates and the margin; the slack, 16
        eps times the largest coordinate at V0 plus the margin, covers that
        with room to spare. The list is rebuilt once drift + delta exceeds
        the margin less the slack. The build margin is the skin, or 2 delta
        when that is larger, so the list serves its first step too.

        Each step tests only the listed pairs whose gap is at most
        2 (drift + delta) plus the slack, a prefix of the list, with the
        sweep's own grown boxes (geometry.grown_boxes at V and delta).
        """
        near = self._near
        drift = 0.0 if near is None else float(np.abs(V - near[0]).max())
        if near is None or drift + delta > near[1] - near[2]:
            margin = max(self.skin, 2.0 * delta)
            lo, hi = segment_boxes(*V.take(self.seg_ends, axis=0))
            a, b = box_crossing_pairs(lo, hi, self.i0, self.i1, margin=margin)
            ends = np.stack([self.i0[a], self.i1[a], self.i0[b], self.i1[b]])
            gap = box_gap(lo.take(a, axis=0), hi.take(a, axis=0), lo.take(b, axis=0), hi.take(b, axis=0))
            order = np.argsort(gap, kind="stable")
            slack = 16.0 * np.finfo(float).eps * (float(np.abs(V).max()) + margin)
            near = (V.copy(), margin, slack, gap[order], ends[:, order])
            self._near = near
            drift = 0.0
        _, _, slack, gap, ends = near
        k = int(np.searchsorted(gap, 2.0 * (drift + delta) + slack, side="right"))
        if k == 0:
            return ends[:, :0]
        ends = ends[:, :k]
        pa, qa, pb, qb = V.take(ends, axis=0)
        xlo_a, ylo_a, xhi_a, yhi_a = grown_boxes(pa, qa, delta)
        xlo_b, ylo_b, xhi_b, yhi_b = grown_boxes(pb, qb, delta)
        keep = (xlo_a <= xhi_b) & (xlo_b <= xhi_a) & (ylo_a <= yhi_b) & (ylo_b <= yhi_a)
        return ends[:, keep]

    def step_caps(self, V):
        """Per-dof displacement bound: a fraction of the local edge length,
        and for sliding vertices also of the distance to wall neighbors.
        With no sliding vertex, the mesh's read-only base_caps."""
        if not len(self.wall_dof):
            return self.base_caps
        caps = self.base_caps.copy()
        d = V.take(self.wall_nb, axis=0) - V.take(self.vert.take(self.wall_dof), axis=0)
        np.minimum.at(caps, self.wall_dof, 0.4 * row_norms(d))
        return caps

    def collapsed(self, X, target_len):
        """True when a segment of a free edge is shorter than
        COLLAPSE_FRACTION of the segment length resample_cluster would give
        its edge. Kept edges are never resampled, and a single-segment edge
        is never shorter than its resampled segments, so neither counts: a
        kept edge's spacing is 0.0."""
        d = X[1] - X[0]
        lens = np.hypot(d[:, 0], d[:, 1])
        L = np.bincount(self.eid, weights=lens, minlength=len(self.min_count))
        spacing = np.where(self.kept_edge, 0.0, L / _resample_count(L, self.min_count, target_len))
        return bool((lens < COLLAPSE_FRACTION * spacing[self.eid]).any())

    def evaluate(self, V, rows, lam, mu, P0):
        """Prices rows of the table (objective_rows, stencil_rows or
        all_rows) at vertex positions V, gathered at once, in one
        segment_weights and one fan_volume_terms call. Returns f, P, vols, e,
        X, diffs: from the objective's rows the objective, the interface
        perimeter, the volumes, their relative errors and the rows' gather
        X, all None without them, P entering f as P / P0 (P0 None stands for
        P itself, which must be positive: a descent's start); from the
        stencil's rows each entry's perimeter difference over P0 and fan
        volume term difference, for gradient_from, None without them."""
        X = V.take(self.row_ends[:, rows], axis=0)
        X += self.row_disp[:, rows]
        w = segment_weights(self.density, X[0], X[1], self.row_w_left[rows], self.row_w_right[rows])
        t = fan_volume_terms(self.density, X[0], X[1])
        # the objective's rows come first: a call holds all S of them or none
        S, E = len(self.i0), len(self.ent_seg)
        k = S - rows.start
        f = P = vols = e = diffs = None
        if k:
            # act and chamber_sums read the objective's rows alone
            P = float(w.take(self.act).sum())
            if P0 is None:
                if P <= 0:
                    raise ValueError("cluster has no interface perimeter to minimize")
                P0 = P
            vols = chamber_sums(t, self.chambers, len(self.targets))
            e = (vols - self.targets) / self.targets
            f = P / P0 + float((lam * e).sum()) + 0.5 * mu * float((e * e).sum())
        if rows.stop > S:
            diffs = (w[k : k + E] - w[k + E :]) / P0, t[k : k + E] - t[k + E :]
        return f, P, vols, e, (X[:, :k] if k else None), diffs

    def gradient_from(self, diffs, lam, mu, e):
        """Central differences of the objective along every dof, from the
        stencil's differences that evaluate gave at a point whose relative
        volume errors are e: each entry's difference goes to its dof."""
        dval, dt = diffs
        # c[label]: the volume multiplier of chamber label, 0 for white
        c = np.concatenate([[0.0], (lam + mu * e) / self.targets])
        dval = dval + (c[self.fd_left] - c[self.fd_right]) * dt
        return np.bincount(self.ent_dof, weights=dval / self.fd_two_h, minlength=self.n)


@dataclass
class _Descent:
    """What one inner descent did: its steps (loop entries, so a convergence
    check counts as one), why it stopped ("converged", "stalled" when the
    line search found no acceptable step, or "budget" when max_inner steps
    ran out), the interface perimeter at its start and after each accepted
    step, and its crossing rejections and resamplings on collapse. The
    interface perimeter, the volumes and their relative volume errors of the
    state it ended at are those of the evaluation that produced that state.
    The trace holds no entry for the cluster a restart on collapse resamples
    to, so a descent that accepts no step after a restart ends at a state
    the trace does not hold."""

    iterations: int
    stop: str
    trace: list
    rejections: int
    resamples: int
    perimeter: float
    volumes: np.ndarray
    errors: np.ndarray


def _descend(cl, density, targets, lam, mu, opts, rs_len, mesh):
    """One inner descent from cl at fixed lam and mu, in at most
    opts.max_inner steps; stops early on convergence and on a failed line
    search. When a step collapses a segment (_Mesh.collapsed) and steps
    remain, the cluster is resampled and the descent starts over from it
    with the rest of the budget and the same objective. mesh, the mesh of
    the previous descent or None, is passed on as prev to the first _Mesh,
    and each mesh to the next. Moves cl's vertices; returns the final
    cluster, its mesh and the _Descent record."""
    mesh = _Mesh(cl, density, targets, rs_len, mesh)
    V = cl.vertices
    f, P0, vols, e, X, diffs = mesh.evaluate(V, mesh.first_rows, lam, mu, None)
    Pint = P0
    # one perimeter entry for the start, then one per accepted step
    trace = [P0]
    rejections = resamples = it = 0
    stop = "budget"
    while True:
        if mesh.n == 0:
            stop = "converged"
            break
        g = None
        d_prev = None
        t = None
        collapsed = False
        # non-monotone acceptance window: Barzilai-Borwein steps on this badly
        # conditioned problem must be allowed transient objective increases
        recent = [f]
        while it < opts.max_inner:
            it += 1
            # V's stencil rows, unless the evaluation that gave V priced them
            if diffs is None:
                diffs = mesh.evaluate(V, mesh.stencil_rows, lam, mu, P0)[5]
            g_prev, g = g, mesh.gradient_from(diffs, lam, mu, e)
            gn = float(np.abs(g).max())
            if gn * rs_len <= opts.grad_tol:
                stop = "converged"
                break
            if g_prev is not None:
                y = g - g_prev
                sy = float(d_prev @ y)
                t = float(d_prev @ d_prev) / sy if sy > 1e-300 else 2.0 * t
            if t is None or not math.isfinite(t) or t <= 0:
                t = 0.05 * rs_len / gn
            # every trial step below is the first one scaled down and clipped,
            # so its reach bounds theirs and one set of caps serves them all
            # np.minimum(np.maximum(.)) is np.clip, bit for bit on finite
            # steps, without its wrapper
            caps = mesh.step_caps(V)
            safe, ends = _clearance_caps(V, mesh, np.minimum(np.maximum(-t * g, -caps), caps))
            caps = np.minimum(caps, safe)
            low = -caps
            accepted = False
            tt = t
            f_ref = max(recent)
            # the first trial prices mesh.first_rows, backtracking the objective's
            rows = mesh.first_rows
            for _ in range(60):
                d = np.minimum(np.maximum(-tt * g, low), caps)
                gd = float(g @ d)
                if gd >= 0.0:
                    break
                Vt = _apply_step(V, mesh, d)
                ft, Pt, vt, et, Xt, dt = mesh.evaluate(Vt, rows, lam, mu, P0)
                rows = mesh.objective_rows
                if ft <= f_ref + 1e-4 * gd:
                    if _has_crossing(Vt, ends):
                        rejections += 1
                        tt *= 0.5
                        continue
                    V, X, f, Pint, vols, e, diffs = Vt, Xt, ft, Pt, vt, et, dt
                    d_prev = d
                    accepted = True
                    break
                tt *= 0.5
            if not accepted:
                stop = "stalled"
                break
            recent.append(f)
            if len(recent) > 8:
                recent.pop(0)
            trace.append(Pint)
            if mesh.collapsed(X, rs_len):
                collapsed = True
                break
            t = tt
        cl.vertices = V
        if not collapsed or it == opts.max_inner:
            break
        cl = resample_cluster(cl, rs_len)
        mesh = _Mesh(cl, density, targets, rs_len, mesh)
        V = cl.vertices
        f, Pint, vols, e, X, diffs = mesh.evaluate(V, mesh.first_rows, lam, mu, P0)
        resamples += 1
    return cl, mesh, _Descent(it, stop, trace, rejections, resamples, Pint, vols, e)


def _min_count(edge):
    """Fewest segments resampling leaves an edge: a closed one keeps three."""
    return 3 if edge.vertices[0] == edge.vertices[-1] else 1


def _resample_count(L, min_count, target_len):
    """Segments resample_cluster gives edges of polyline lengths L > 0
    (arrays or scalars)."""
    return np.maximum(min_count, np.rint(L / target_len))


def resample_cluster(cluster, target_len):
    """Re-interpolate free edges to segments of roughly target_len.

    Edge endpoints keep their identity, so junction combinatorics are
    untouched; kept edges (_edge_roles: walls and fixed edges) are copied
    verbatim. Interior vertices are placed at even arclength along the old
    polyline, which can only shorten it.

    The segment lengths are taken at once; each free edge's length L is
    their ndarray.sum, and its points np.interp's at np.arange(1, n) *
    (L / n), np.linspace's arclengths.
    """
    positive_number("target_len", target_len)
    _, _, kept = _edge_roles(cluster)
    edges = cluster.edges
    # the kept vertices in order of first appearance, then interior ones
    keep = list(dict.fromkeys(chain.from_iterable(
        e.vertices if k else (e.vertices[0], e.vertices[-1]) for e, k in zip(edges, kept)
    )))
    old2new = dict(zip(keep, range(len(keep))))
    ids, first, _ = cluster.vertex_runs()
    pts = cluster.vertices.take(ids, axis=0)
    # the length of the segment ending at each point, 0.0 at an edge's start
    arc = np.concatenate(([0.0], _euclidean_norm(pts[1:] - pts[:-1])))
    arc[first[:-1]] = 0.0
    bounds = list(zip(kept.tolist(), first[:-1].tolist(), first[1:].tolist()))
    L = np.array([0.0 if k else arc[a + 1 : b].sum() for k, a, b in bounds])
    n_new = np.where(L > 0, _resample_count(L, [_min_count(e) for e in edges], target_len), 1)
    interior = np.empty((2, int(n_new.sum()) - len(edges)))
    out, o = [], 0
    for e, (k, a, b), n, length in zip(edges, bounds, n_new.astype(int).tolist(), L.tolist()):
        vs = [old2new[v] for v in (e.vertices if k else (e.vertices[0], e.vertices[-1]))]
        if n > 1:
            s, x = arc[a:b].cumsum(), np.arange(1.0, n) * (length / n)
            interior[:, o : o + n - 1] = np.interp(x, s, pts[a:b, 0]), np.interp(x, s, pts[a:b, 1])
            vs[1:1] = range(len(keep) + o, len(keep) + o + n - 1)
            o += n - 1
        out.append(type(e)(vs, e.left, e.right, dict(e.tags)))
    return type(cluster)(np.concatenate([cluster.vertices.take(keep, axis=0), interior.T]), out, cluster.m)


def _solve_single(cluster, density, targets, opts, rs_len):
    """The augmented-Lagrangian solve of minimize from cluster, at the
    multipliers of _start_multipliers. rs_len, the resampling length, comes
    from the problem's cluster, not from the volume-matched start."""
    lam = _start_multipliers(cluster, density, targets)
    mu = PENALTY0
    flags = []
    verr_trace = []
    prev_emax = np.inf
    prev_stall_P = None
    converged = False
    cl = cluster
    # the continuation ladder: one descent per smooth surrogate, same g
    ladder = density.gauge_at(None).continuation() if density.uniform_gauge else ()
    g = density.g_const if density.g_const is not None else density.g_at
    descents = []
    mesh = None
    for gauge in ladder:
        stage = Density(gauge, g=g)
        cl, mesh, rec = _descend(cl, stage, targets, lam, mu, opts, rs_len, mesh)
        descents.append(rec)
    for outer in range(1, opts.max_outer + 1):
        if outer > 1:
            cl = resample_cluster(cl, rs_len)
        cl, mesh, rec = _descend(cl, density, targets, lam, mu, opts, rs_len, mesh)
        descents.append(rec)
        vols, e = rec.volumes, rec.errors
        emax = float(np.abs(e).max())
        verr_trace.append(emax)
        if emax <= opts.vol_tol and rec.stop == "converged":
            converged = True
            break
        if emax <= opts.vol_tol:
            # some solves stall above grad_tol with the volumes met: the
            # l^1.5 double bubbles, and the ellipse bubble at n_arc=24. They
            # stall with the exact shape gradient too, so finite-difference
            # error (~1e-9 relative) is not the cause. Accept once a second
            # full pass confirms the perimeter is frozen to 1e-6
            Pint = rec.perimeter
            if prev_stall_P is not None and abs(Pint - prev_stall_P) <= 1e-6 * (1 + Pint):
                converged = True
                flags.append("inner_stall_at_tolerance")
                break
            prev_stall_P = Pint
        else:
            prev_stall_P = None
        lam = lam + mu * e
        if emax > 0.25 * prev_emax:
            mu = min(2.0 * mu, 1e8)
        prev_emax = max(emax, 1e-300)
    if not converged:
        flags += ["max_outer_reached", "non_convergence"]
    parts = perimeter_breakdown(cl, density)
    return SolveReport(
        cluster=cl,
        success=converged,
        perimeter=float(parts.sum()),
        interface_perimeter=interface_sum(cl, parts),
        volumes=vols,
        volume_errors=e,
        perimeter_trace=[P for rec in descents[len(ladder):] for P in rec.trace],
        volume_error_trace=verr_trace,
        outer_iterations=outer,
        inner_iterations=sum(rec.iterations for rec in descents),
        crossing_rejections=sum(rec.rejections for rec in descents),
        flags=flags,
        resamples=sum(rec.resamples for rec in descents),
        continuation=[
            {"gauge": gauge, "inner_iterations": rec.iterations}
            for gauge, rec in zip(ladder, descents)
        ],
    )


def _dilatable(cluster, density):
    """True when a dilation moves every vertex of cluster and scales each
    chamber's weighted volume by its square: no edge is kept and g is
    constant."""
    _, _, kept = _edge_roles(cluster)
    return not kept.any() and density.g_const is not None


def _start_multipliers(cluster, density, targets):
    """The volume multipliers lam a solve from cluster begins with:
    lam_i = -T_i / (2 sum_j T_j) for targets T when cluster is dilatable and
    the gauge uniform, else 0 (see the module docstring)."""
    if not (_dilatable(cluster, density) and density.uniform_gauge):
        return np.zeros(len(targets))
    return -targets / (2.0 * targets.sum())


def _volume_matched(problem):
    """The cluster minimize begins from: a copy of problem.cluster scaled
    about the mean of its vertices by s = sqrt(sum of targets / sum of
    weighted volumes), whose total volume under a constant g meets the
    targets'. Unscaled when an edge is kept, when g is a callable, and when
    s is exactly 1 (see the module docstring)."""
    cl = problem.cluster.copy()
    if not _dilatable(cl, problem.density):
        return cl
    s = float(np.sqrt(problem.targets.sum() / weighted_volume(cl, problem.density).sum()))
    if s != 1.0:
        center = cl.vertices.mean(axis=0)
        cl.vertices = center + s * (cl.vertices - center)
    return cl


def minimize(problem):
    """Minimize weighted perimeter at fixed chamber volumes.

    One deterministic solve from the volume-matched start
    (_volume_matched); its report also carries the junction diagnostics of
    its final cluster.
    """
    rs_len = _default_resample_len(problem.cluster)
    rep = _solve_single(
        _volume_matched(problem), problem.density, problem.targets, problem.options, rs_len
    )
    diag = steiner_diagnose(rep.cluster, problem.density)
    rep.junctions = [j.spec() for j in diag.junctions]
    return rep


@dataclass
class JunctionDiagnostic:
    vertex: int
    point: np.ndarray
    n_arms: int
    non_triple: bool
    sector_colors: list
    angles_deg: list
    tangents: np.ndarray
    residual: np.ndarray | None
    residual_norm: float | None
    flags: list

    def spec(self):
        return plain(vars(self))


@dataclass
class DiagnoseReport:
    junctions: list
    arc_turning: list
    max_turning: float
    flags: list

    def spec(self):
        return plain(vars(self))


def _arm_tangents(P, k):
    """The unit tangent at P[i, 0], along arm i, of the circle through its
    points P[i]: the chord to P[i, 1] turned by the inscribed angle at
    P[i, 2] (the angles of p1 - p0, p2 - p0, p2 - p1). Exact on circles and
    lines at any spacing and second-order accurate on any smooth arc; an arm
    of k[i] = 2 points takes its chord, whatever P[i, 2] holds."""
    ang = angle_of(P[:, [1, 2, 2]] - P[:, [0, 0, 1]])
    theta = ang[:, 0] + wrap_angle(ang[:, 1] - ang[:, 2] + np.pi) - np.pi
    return unit_dir(np.where(k > 2, theta, ang[:, 0]))


def steiner_diagnose(cluster, density):
    """Junction stationarity residuals and arc smoothness statistics.

    Each arm's tangent is that of the circle through its first three points
    (_arm_tangents). A junction on a fixed edge or at a wall corner
    (_wall_slides) is pinned, and has no residual. One that slides along a
    straight wall reports the force of its arms along the wall line, walls
    priced as the solver prices them: white on both sides, so at 0. Other
    junctions of three arms report junction_residual; those of more are
    reported but their residual is skipped. Arc smoothness is the largest
    turning angle between adjacent segments of each edge, in radians. All
    arms, junctions and edges are computed at once.
    """
    wall, pinned, _ = _edge_roles(cluster)
    V = cluster.vertices
    infos = detect_junctions(cluster)
    ends = [0, *accumulate(info.n_arms for info in infos)]
    arms = [a for info in infos for a in info.arms]
    # each arm's first three vertices from its junction (two on an arm of
    # one segment, whose second stands in for the third)
    first3 = [cluster.edges[a["edge"]].vertices[:: 1 if a["forward"] else -1][:3] for a in arms]
    P = V.take(np.array([(p[0], p[1], p[-1]) for p in first3], dtype=int).reshape(-1, 3), axis=0)
    tangents = _arm_tangents(P, np.array([len(p) for p in first3]))
    # each junction's arms clockwise by tangent, ties in arm order, and the
    # gap from each to the next
    ang = angle_of(tangents)
    order = np.lexsort((-ang, np.arange(len(infos)).repeat(np.diff(ends))))
    tangents, ang, arms = tangents[order], ang[order], [arms[i] for i in order]
    nxt = np.arange(1, len(arms) + 1)
    nxt[np.array(ends[1:], dtype=int) - 1] = ends[:-1]
    angles_deg = np.degrees(wrap_angle(ang - ang.take(nxt))).tolist()
    # the slide direction, or None when pinned, of each junction at a wall
    # and on no fixed edge, from its wall arms' far ends in arm order
    fixed = [any(pinned[a["edge"]] for a in info.arms) for info in infos]
    walls = [
        (info.vertex, cluster.edges[a["edge"]].vertices[1 if a["forward"] else -2])
        for info, f in zip(infos, fixed) if not f for a in info.arms if wall[a["edge"]]
    ]
    slid = {}
    if walls:
        at, other = np.array(walls).T
        for v, s, u in zip(at.tolist(), *_wall_slides(V, at, other)[:2]):
            slid.setdefault(v, u if s else None)
    junctions, flags = [], []
    for info, f, lo, hi in zip(infos, fixed, ends, ends[1:]):
        jflags, residual, rnorm = [], None, None
        colors, u = [a["right"] for a in arms[lo:hi]], slid.get(info.vertex)
        if f or (info.vertex in slid and u is None):
            jflags.append("pinned junction: residual skipped")
        elif u is not None:
            sides = np.array([(0, 0) if wall[a["edge"]] else (a["left"], a["right"]) for a in arms[lo:hi]])
            along = float(arm_forces(density.gauge_at(info.point), tangents[lo:hi], *sides.T).sum(axis=0) @ u)
            residual, rnorm = along * u, abs(along)
        elif info.non_triple:
            jflags.append("non-triple junction: residual skipped")
        else:
            try:
                residual = junction_residual(density, info.point, tangents[lo:hi], colors)
                rnorm = float(np.sqrt(residual.dot(residual)))  # np.linalg.norm's
            except ValueError as err:
                jflags.append(f"residual unavailable: {err}")
        junctions.append(JunctionDiagnostic(
            info.vertex, info.point, info.n_arms, info.non_triple, colors,
            angles_deg[lo:hi], tangents[lo:hi], residual, rnorm, jflags,
        ))
        flags.extend(jflags)
    # the largest turning angle between adjacent segments of each edge
    ids, first, inner = cluster.vertex_runs()
    pts = V.take(ids, axis=0)
    vec, both = pts[1:] - pts[:-1], inner[:-1] & inner[1:]
    edge = np.arange(len(cluster.edges)).repeat(first[1:] - first[:-1])[1:-1]
    arc_turning = np.zeros(len(cluster.edges))
    np.maximum.at(arc_turning, edge[both], angle_between(vec[:-1], vec[1:])[both])
    arc_turning = arc_turning.tolist()
    return DiagnoseReport(junctions, arc_turning, max(arc_turning, default=0.0), flags)
