"""Constrained perimeter minimization over polygonal clusters, plus the
junction and regularity diagnosis of the results (steiner_diagnose).

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

Each evaluation makes one gauge call. The objective gathers every
segment's endpoints once and prices the perimeter and the volumes from
that gather; after an accepted step the collapse check reads its segment
lengths from the same gather, and a descent's start takes P0, the
perimeter its objective is scaled by, from its first objective. Its
segment_weights call takes the endpoints: under a uniform gauge it prices
them through cluster.oriented_weight, which evaluates one side only when
the gauge is symmetric (Gauge.symmetric), where the orientation rule
reduces to one where on the labels, and both sides stacked otherwise; only
a gauge field forms midpoints, for Density.h_at. The gradient prices the +
and - stencil in one segment_weights and one fan_volume_terms call. No
evaluation picks out the segments that count: a segment that is not an
interface (a wall, or one chamber on both sides) is priced with white on
both sides, which the orientation rule turns into an exact 0.0, and a
kept edge gets a collapse spacing of 0.0. Gathers use take, and scatters
np.bincount, which adds in the order np.add.at does. The iterates are the
same, bit for bit, as those of one call per side and stencil sign.

What depends on the vertex numbering alone (segment arrays, masks,
gathers, scatter indices, the dof map, the stencil's layout and the broad
phase's neighbour list) is built once per numbering. A resampling or a
continuation stage that leaves every edge's vertex list as it was hands
the mesh before it to the new _Mesh, which carries those tables over and
recomputes only what depends on the positions: the local lengths, the
finite-difference steps and displacements, the step caps and the slides of
wall vertices. The iterates are those of a mesh built afresh, bit for bit.

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

from dataclasses import dataclass, field

import numpy as np

from .cluster import (
    _edge_roles,
    chamber_index,
    chamber_sums,
    crossing_pairs,
    fan_volume_terms,
    interface_perimeter,  # noqa: F401 (also read as optimizer.interface_perimeter)
    interface_sum,
    perimeter_breakdown,
    segment_weights,
    validate,
    weighted_volume,
)
from .density import Density
from .geometry import (
    angle_between,
    angle_of,
    box_gap,
    cross2,
    fit_endpoint_tangent,
    grown_boxes,
    integer_at_least,
    positive_number,
    segment_distance,
    segments_properly_cross,
    wrap_angle,
)
from .report import plain
from .steiner import detect_junctions, junction_residual

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
    lens = np.linalg.norm(q - p, axis=1)
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


class _Mesh:
    """The solver's view of one sampled cluster: its segment arrays, the map
    between movable vertex coordinates and a flat parameter vector, the
    finite-difference stencil, and the objective, volumes, gradient and
    collapse check on them. Volumes use weighted_volume's fan_volume_terms
    and chamber_sums, so the reported constraint errors are exactly the ones
    being minimized. The perimeter, volumes, objective and collapse check
    read X, every segment's endpoints as V.take(seg_ends, axis=0) gathers
    them.

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
        numbering = (
            len(V),
            [(tuple(e.vertices), e.left, e.right) for e in cluster.edges],
            [role.tolist() for role in roles[:2]],
        )
        carried = prev is not None and prev.numbering == numbering
        if carried:
            self.__dict__.update(prev.__dict__)
        else:
            self.numbering = numbering
            self._index(cluster, roles)
        self.density = density
        self.skin = char_len
        self.targets = np.asarray(targets, dtype=float)

        seglen = np.linalg.norm(V[self.i1] - V[self.i0], axis=1)
        total = np.bincount(self.ends, weights=np.repeat(seglen, 2), minlength=len(V))
        local = np.maximum(total / np.maximum(self.count, 1), 1e-9 * char_len)

        # vertices at a wall slide along it, or are pinned at a corner
        ndof = self.ndof_unwalled.copy()
        slide = {}
        for v, others in self.wall_runs:
            ndof[v] = 0
            nbs, dirs = [], []
            for o in others:
                d = V[o] - V[v]
                nd = np.linalg.norm(d)
                if nd < 1e-300:
                    continue
                nbs.append(int(o))
                dirs.append(d / nd)
            if dirs and not any(abs(cross2(dirs[0], d)) > 1e-9 for d in dirs[1:]):
                ndof[v] = 1
                slide[int(v)] = (dirs[0], nbs)
        if not (carried and np.array_equal(ndof, self.ndof)):
            self._dofs(ndof)
        if slide:
            # on a copy: a carried uvec is prev's own
            self.uvec = self.uvec.copy()
            for v, (u, _) in slide.items():
                self.uvec[self.first[v]] = u
        self.wall_nbs = [(int(self.first[v]), nbs) for v, (_, nbs) in slide.items()]
        self.local_len = local[self.vert]
        self.h_fd = FD_SCALE * self.local_len
        self.base_caps = 0.45 * self.local_len
        h = self.h_fd[self.ent_dof]
        disp = self.uvec[self.ent_dof] * h[:, None]
        self.fd_disp = np.full((2, 2 * len(h), 2), -0.0)
        self.fd_disp[self.fd_disp_at] = np.concatenate([disp, -disp])
        self.fd_two_h = 2.0 * h

    def _index(self, cluster, roles):
        """The tables fixed by the vertex numbering and the edge roles
        (_edge_roles): segment arrays, collapse check, vertex incidence,
        wall runs, the objective's gathers and masks, and an empty neighbour
        list."""
        nv = len(cluster.vertices)
        i0, i1, left, right, eid = cluster.segment_index_arrays()
        self.i0, self.i1 = i0, i1
        self.left, self.right = left, right
        wall, pinned = (role[eid] for role in roles[:2])
        self.active = ~wall & (left != right)
        # collapsed() sums every segment's length into its edge and gives
        # kept edges, which resampling copies, no spacing
        self.eid, self.kept_edge = eid, roles[2]
        self.min_count = np.array([_min_count(e) for e in cluster.edges])

        # segment s has its start at ends[2 s] and its end at ends[2 s + 1]
        self.ends = ends = np.stack([i0, i1], 1).ravel()
        self.count = np.bincount(ends, minlength=nv)
        # the dofs before walls: two at a vertex of a segment, none pinned
        ndof = np.where(self.count > 0, 2, 0)
        ndof[ends[np.repeat(pinned, 2)]] = 0
        self.ndof_unwalled = ndof
        # each unpinned vertex at a wall and its wall neighbours. at is
        # sorted, so each vertex's run starts at a cut of np.diff; not
        # np.unique, whose import of numpy.ma every solve would pay
        at_wall = np.flatnonzero(np.repeat(wall, 2))
        order = np.argsort(ends[at_wall], kind="stable")
        at, other = ends[at_wall][order], ends[at_wall ^ 1][order]
        cuts = np.flatnonzero(np.diff(at)) + 1
        starts = at[np.concatenate(([0], cuts))] if len(at) else at
        self.wall_runs = [
            (v, others) for v, others in zip(starts, np.split(other, cuts)) if ndof[v]
        ]

        # the objective gathers every segment's endpoints at once, stacked:
        # seg_ends[0] the starts, seg_ends[1] the ends. The perimeter prices
        # every segment at the labels w_left and w_right, white on both
        # sides of an inactive one, and sums the active ones, act
        self.seg_ends = np.stack([i0, i1])
        self.act = np.flatnonzero(self.active)
        self.w_left = np.where(self.active, left, 0)
        self.w_right = np.where(self.active, right, 0)
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
        first = self.first = np.cumsum(ndof) - ndof
        self.vert = np.repeat(np.arange(nv), ndof)
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
        self.step_ranks = np.full((2, nv, 2), pad)
        for k in range(2):
            has = ndof > k
            self.step_ranks[k, has] = 2 * (first[has] + k)[:, None] + np.arange(2)
        self.sqrt_ndof = np.sqrt(ndof[self.vert])
        self.no_caps = np.full(self.n, np.inf)
        self.no_caps.flags.writeable = False

        # finite-difference stencil: one entry per (segment, endpoint, dof)
        ends = self.ends
        per_end = ndof[ends]
        ent = np.repeat(np.arange(len(ends)), per_end)
        offset = np.arange(len(ent)) - np.repeat(np.cumsum(per_end) - per_end, per_end)
        seg, slot = self.ent_seg, self.ent_slot = np.divmod(ent, 2)
        self.ent_dof = first[ends[ent]] + offset
        # the stencil's two signs stacked: row r < E is entry r displaced by
        # +h along its dof, row E + r the same entry by -h. fd_ends[0] and
        # fd_ends[1] hold the rows' start and end vertices, fd_disp (set at
        # fd_disp_at) their displacements: -0.0, which adds exactly
        # nothing, on the endpoint that stays. Starts and ends are kept in
        # separate blocks, as elementwise numpy loops over (n, 2) rows that
        # are not contiguous run an order of magnitude slower
        E = len(seg)
        self.fd_ends = np.tile(np.stack([self.i0[seg], self.i1[seg]]), 2)
        self.fd_disp_at = (np.tile(slot, 2), np.arange(2 * E))
        # the rows' labels: as they are for the volumes, which walls bound,
        # and masked as for the perimeter, so that inactive rows price 0.0
        self.fd_left, self.fd_right = self.left[seg], self.right[seg]
        self.fd_w_left = np.tile(self.w_left[seg], 2)
        self.fd_w_right = np.tile(self.w_right[seg], 2)

    def near_ends(self, V, delta):
        """The endpoint indices (i0[a], i1[a], i0[b], i1[b]), as
        _has_crossing takes them, of the pairs (a, b) that
        crossing_pairs(V, i0, i1, margin=delta) gives, in any order, read
        from a neighbour list built once per mesh with a skin (Verlet 1967).

        The list holds crossing_pairs at the positions V0 of its build and a
        margin of at least the skin, sorted by each pair's box gap at V0
        (geometry.box_gap). If no coordinate has moved by more than drift
        since, each side of a segment's box has moved by at most drift, so a
        pair whose boxes at V grown by delta overlap has a gap at V0 of at
        most 2 (drift + delta), and it is listed while drift + delta is at
        most the margin. Rounding moves each of these bounds by a few ulps of
        the coordinates and the margin; the slack, 16 eps times the largest
        coordinate at V0 plus the margin, covers that with room to spare.
        The list is rebuilt once drift + delta exceeds the margin less the
        slack. The build margin is the skin, or 2 delta when that is larger,
        so the list serves its first step too.

        Each step tests only the listed pairs whose gap is at most
        2 (drift + delta) plus the slack, a prefix of the list, with the
        sweep's own grown boxes (geometry.grown_boxes at V and delta).
        """
        near = self._near
        drift = 0.0 if near is None else float(np.abs(V - near[0]).max())
        if near is None or drift + delta > near[1] - near[2]:
            margin = max(self.skin, 2.0 * delta)
            a, b = crossing_pairs(V, self.i0, self.i1, margin=margin)
            ends = np.stack([self.i0[a], self.i1[a], self.i0[b], self.i1[b]])
            gap = box_gap(*V.take(ends, axis=0))
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
        and for sliding vertices also of the distance to wall neighbors."""
        caps = self.base_caps.copy()
        for j, nbs in self.wall_nbs:
            d = min(float(np.linalg.norm(V[n] - V[self.vert[j]])) for n in nbs)
            caps[j] = min(caps[j], 0.4 * d)
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

    def perimeter(self, X):
        """The interface perimeter: every segment priced at the masked
        labels, the active ones summed in segment order."""
        w = segment_weights(self.density, X[0], X[1], self.w_left, self.w_right)
        return float(w.take(self.act).sum())

    def volumes(self, X):
        t = fan_volume_terms(self.density, X[0], X[1])
        return chamber_sums(t, self.chambers, len(self.targets))

    def objective(self, X, lam, mu, P0):
        """The objective, the interface perimeter, the volumes and their
        relative errors. The perimeter enters as P / P0; P0 None stands for
        the perimeter at X itself, which must be positive: a descent's
        start, whose perimeter is its P0."""
        P = self.perimeter(X)
        if P0 is None:
            if P <= 0:
                raise ValueError("cluster has no interface perimeter to minimize")
            P0 = P
        vols = self.volumes(X)
        e = (vols - self.targets) / self.targets
        f = P / P0 + float((lam * e).sum()) + 0.5 * mu * float((e * e).sum())
        return f, P, vols, e

    def gradient(self, V, lam, mu, e, P0):
        """Central differences of the objective along every dof, from one
        segment_weights and one fan_volume_terms call on the stencil's two
        signs stacked; each entry's difference goes to its dof. Rows of
        inactive segments carry white on both sides, so their perimeter
        difference is 0.0."""
        E = len(self.ent_seg)
        X = V.take(self.fd_ends, axis=0)
        X += self.fd_disp
        P, Q = X
        w = segment_weights(self.density, P, Q, self.fd_w_left, self.fd_w_right)
        dval = (w[:E] - w[E:]) / P0
        # c[label]: the volume multiplier of chamber label, 0 for white
        c = np.concatenate([[0.0], (lam + mu * e) / self.targets])
        t = fan_volume_terms(self.density, P, Q)
        dval += (c[self.fd_left] - c[self.fd_right]) * (t[:E] - t[E:])
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
    X = V.take(mesh.seg_ends, axis=0)
    f, P0, vols, e = mesh.objective(X, lam, mu, None)
    Pint = P0
    # one perimeter entry for the start, then one per accepted step
    trace = [P0]
    rejections = resamples = it = 0
    stop = "budget"
    while True:
        if mesh.n == 0:
            stop = "converged"
            break
        g = mesh.gradient(V, lam, mu, e, P0)
        g_prev = None
        d_prev = None
        t = None
        collapsed = False
        # non-monotone acceptance window: Barzilai-Borwein steps on this badly
        # conditioned problem must be allowed transient objective increases
        recent = [f]
        while it < opts.max_inner:
            it += 1
            gn = float(np.max(np.abs(g)))
            if gn * rs_len <= opts.grad_tol:
                stop = "converged"
                break
            if g_prev is not None:
                y = g - g_prev
                sy = float(d_prev @ y)
                t = float(d_prev @ d_prev) / sy if sy > 1e-300 else 2.0 * t
            if t is None or not np.isfinite(t) or t <= 0:
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
            for _ in range(60):
                d = np.minimum(np.maximum(-tt * g, low), caps)
                gd = float(g @ d)
                if gd >= 0.0:
                    break
                Vt = _apply_step(V, mesh, d)
                Xt = Vt.take(mesh.seg_ends, axis=0)
                ft, Pt, vt, et = mesh.objective(Xt, lam, mu, P0)
                if ft <= f_ref + 1e-4 * gd:
                    if _has_crossing(Vt, ends):
                        rejections += 1
                        tt *= 0.5
                        continue
                    V, X, f, Pint, vols, e = Vt, Xt, ft, Pt, vt, et
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
            g_prev = g
            g = mesh.gradient(V, lam, mu, e, P0)
            t = tt
        cl.vertices = V
        if not collapsed or it == opts.max_inner:
            break
        cl = resample_cluster(cl, rs_len)
        mesh = _Mesh(cl, density, targets, rs_len, mesh)
        V = cl.vertices
        X = V.take(mesh.seg_ends, axis=0)
        f, Pint, vols, e = mesh.objective(X, lam, mu, P0)
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
    """
    positive_number("target_len", target_len)
    _, _, kept = _edge_roles(cluster)
    keep = []
    seen = set()
    for e, k in zip(cluster.edges, kept):
        ids = list(e.vertices) if k else [e.vertices[0], e.vertices[-1]]
        for v in ids:
            if v not in seen:
                seen.add(v)
                keep.append(v)
    old2new = {old: k for k, old in enumerate(keep)}
    # the kept vertices, then each resampled edge's interior ones
    blocks = [cluster.vertices[keep]]
    nverts = len(keep)
    edges = []
    for e, k in zip(cluster.edges, kept):
        if k:
            edges.append(
                type(e)([old2new[v] for v in e.vertices], e.left, e.right, dict(e.tags))
            )
            continue
        pts = cluster.edge_points(e)
        seg = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
        L = float(seg.sum())
        n_new = int(_resample_count(L, _min_count(e), target_len)) if L > 0 else 1
        ids = [old2new[e.vertices[0]]]
        if n_new > 1 and L > 0:
            s = np.concatenate([[0.0], np.cumsum(seg)])
            s_new = np.linspace(0.0, L, n_new + 1)[1:-1]
            xs = np.interp(s_new, s, pts[:, 0])
            ys = np.interp(s_new, s, pts[:, 1])
            blocks.append(np.column_stack([xs, ys]))
            ids.extend(range(nverts, nverts + n_new - 1))
            nverts += n_new - 1
        ids.append(old2new[e.vertices[-1]])
        edges.append(type(e)(ids, e.left, e.right, dict(e.tags)))
    return type(cluster)(np.concatenate(blocks), edges, cluster.m)


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
        stage = Density(gauge, g=g, domain=density.domain)
        cl, mesh, rec = _descend(cl, stage, targets, lam, mu, opts, rs_len, mesh)
        descents.append(rec)
    for outer in range(1, opts.max_outer + 1):
        if outer > 1:
            cl = resample_cluster(cl, rs_len)
        cl, mesh, rec = _descend(cl, density, targets, lam, mu, opts, rs_len, mesh)
        descents.append(rec)
        vols, e = rec.volumes, rec.errors
        emax = float(np.max(np.abs(e)))
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


def steiner_diagnose(cluster, density, fit_points=5):
    """Junction stationarity residuals and arc smoothness statistics.

    Tangents at each junction come from a circle fit through the first
    fit_points polyline points of every arm, which is exact when converged
    interfaces are circular arcs or straight lines. Four-way junctions are
    reported but their residual is skipped. Arc smoothness is the largest
    turning angle between adjacent segments of each edge, in radians.
    """
    junctions = []
    flags = []
    for info in detect_junctions(cluster):
        jflags = []
        tangents = []
        for a in info.arms:
            e = cluster.edges[a["edge"]]
            pts = cluster.edge_points(e)
            if not a["forward"]:
                pts = pts[::-1]
            tangents.append(fit_endpoint_tangent(pts, k=min(fit_points, len(pts))))
        tangents = np.asarray(tangents)
        ang = angle_of(tangents)
        order = np.argsort(-ang, kind="stable")
        tangents = tangents[order]
        arms = [info.arms[i] for i in order]
        colors = [a["right"] for a in arms]
        gaps = wrap_angle(ang[order] - np.roll(ang[order], -1))
        angles_deg = [float(np.degrees(x)) for x in gaps]
        residual = None
        rnorm = None
        if info.non_triple:
            jflags.append("non-triple junction: residual skipped")
        else:
            try:
                residual = junction_residual(density, info.point, tangents, colors)
                rnorm = float(np.linalg.norm(residual))
            except ValueError as err:
                jflags.append(f"residual unavailable: {err}")
        junctions.append(
            JunctionDiagnostic(
                vertex=info.vertex,
                point=info.point,
                n_arms=info.n_arms,
                non_triple=info.non_triple,
                sector_colors=colors,
                angles_deg=angles_deg,
                tangents=tangents,
                residual=residual,
                residual_norm=rnorm,
                flags=jflags,
            )
        )
        flags.extend(jflags)
    arc_turning = []
    for e in cluster.edges:
        pts = cluster.edge_points(e)
        vec = pts[1:] - pts[:-1]
        if len(vec) < 2:
            arc_turning.append(0.0)
        else:
            arc_turning.append(float(angle_between(vec[:-1], vec[1:]).max()))
    return DiagnoseReport(
        junctions=junctions,
        arc_turning=arc_turning,
        max_turning=max(arc_turning, default=0.0),
        flags=flags,
    )
