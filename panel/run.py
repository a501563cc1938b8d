"""Accuracy panel: what the solver solves, as one JSON line.

Run from the repository root; it takes no options:

    python3 panel/run.py > PANEL_<label>.json

It runs a fixed list of solves (SOLVES) and prints one line
{"rows": [...], "wall_s": {...}}. Each row records what one solve reached:
its outcome and flags, inner and outer iterations, resamplings and final
vertex count, the interface perimeter P (walls excluded), where an exact
minimum P* is known P - P* and the refinement ratio (the coarser mesh's
P - P* over this one's), and the worst junction residual. Everything in "rows" is deterministic, so
two commits that solve alike print the same rows; "wall_s" holds each
solve's wall time in seconds, which varies from run to run.

The list:
- the Euclidean and the ellipse diag(1, 0.5) double bubbles, targets 1 / 1,
  at n_arc = 24, 48, 96 and 192, against the standard double bubble's
  perimeter (Foisy et al. 1993), times (det Q)^(1/4) for the ellipse;
- the l^3 and l^1.5 double bubbles at n_arc = 48, from the builder's start
  and from that start turned 45 degrees about the origin;
- regular_polygon_chamber(64, area=1.3), target 1, under one gauge of every
  kind (P only: the Wulff perimeter is not computed here);
- the max-norm square crosses at jitter rngs 0, 1 and 2, against the exact
  in-square perimeter 4.
Options are SolveOptions(max_outer=30), and max_outer=60 for the crosses.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import anisoclusters as ac  # noqa: E402
from anisoclusters import Density  # noqa: E402


def standard_double_bubble_perimeter():
    """Two unit areas: three circular arcs of one radius r meeting at 120
    degrees, the middle one straight. Each chamber is a disk less a segment
    of angle 2 pi / 3, of area r^2 (2 pi / 3 + sqrt(3) / 4)."""
    r = 1.0 / np.sqrt(2.0 * np.pi / 3.0 + np.sqrt(3.0) / 4.0)
    return (8.0 * np.pi / 3.0 + np.sqrt(3.0)) * r


def _profile_gauge(profile, n=64):
    """A tabulated gauge of the angular profile at n equally spaced angles."""
    return ac.TabulatedGauge(profile(np.arange(n) * (2.0 * np.pi / n)))


GAUGES = {
    "euclidean": ac.EuclideanGauge(),
    "ellipse": ac.EllipseGauge([[2.0, 0.3], [0.3, 1.0]]),
    "shifted_disk": ac.ShiftedDiskGauge(np.array([0.2, -0.1])),
    "tabulated_ellipse": _profile_gauge(
        lambda t: ac.EllipseGauge([[1.6, 0.25], [0.25, 1.0]]).value(np.column_stack([np.cos(t), np.sin(t)]))
    ),
    "odd_profile": _profile_gauge(lambda t: 1.0 + 0.1 * np.sin(3.0 * t)),
    "l3": ac.LpGauge(3.0),
    "l1.5": ac.LpGauge(1.5),
    "max_norm": ac.LpGauge(np.inf),
    "l1": ac.LpGauge(1.0),
    "smoothed_l1": ac.SmoothedL1Gauge(0.35),
}

BUBBLE_ELLIPSE = np.diag([1.0, 0.5])


class Solve(NamedTuple):
    name: str
    problem: Callable  # () -> OptimizationProblem
    p_star: float | None = None
    coarser: str | None = None  # the solve whose P - P* the ratio divides


def _bubble(gauge, n_arc, turn_deg=0.0):
    def problem():
        cl = ac.double_bubble_cluster(n_arc=n_arc, n_mid=n_arc // 3)
        if turn_deg:
            c, s = np.cos(np.radians(turn_deg)), np.sin(np.radians(turn_deg))
            cl.vertices = cl.vertices @ np.array([[c, -s], [s, c]]).T
        return ac.OptimizationProblem(
            cl, Density.constant(gauge), [1.0, 1.0], ac.SolveOptions(max_outer=30)
        )

    return problem


def _polygon(gauge):
    def problem():
        return ac.OptimizationProblem(
            ac.regular_polygon_chamber(64, area=1.3),
            Density.constant(gauge),
            [1.0],
            ac.SolveOptions(max_outer=30),
        )

    return problem


def _cross(rng):
    def problem():
        cl = ac.square_cross_cluster(n_sub=8, jitter=0.02, rng=np.random.default_rng(rng))
        return ac.OptimizationProblem(
            cl, Density.constant(GAUGES["max_norm"]), np.ones(4), ac.SolveOptions(max_outer=60)
        )

    return problem


def _solves():
    out = []
    p_star = standard_double_bubble_perimeter()
    for kind, gauge, star in (
        ("euclidean", GAUGES["euclidean"], p_star),
        ("ellipse_diag_1_0.5", ac.EllipseGauge(BUBBLE_ELLIPSE), p_star * np.linalg.det(BUBBLE_ELLIPSE) ** 0.25),
    ):
        coarser = None
        for n_arc in (24, 48, 96, 192):
            name = f"bubble {kind} n_arc={n_arc}"
            out.append(Solve(name, _bubble(gauge, n_arc), float(star), coarser))
            coarser = name
    for kind in ("l3", "l1.5"):
        out.append(Solve(f"bubble {kind} n_arc=48", _bubble(GAUGES[kind], 48)))
        out.append(Solve(f"bubble {kind} n_arc=48 turned 45", _bubble(GAUGES[kind], 48, 45.0)))
    for kind, gauge in GAUGES.items():
        out.append(Solve(f"64-gon {kind}", _polygon(gauge)))
    for rng in range(3):
        out.append(Solve(f"max-norm cross rng={rng}", _cross(rng), 4.0))
    return out


SOLVES = _solves()


def _row(solve, rep, gaps):
    P = float(rep.interface_perimeter)
    gap = None if solve.p_star is None else P - solve.p_star
    ratio = None
    if gap is not None and gaps.get(solve.coarser) is not None:
        ratio = gaps[solve.coarser] / gap
    residuals = [j["residual_norm"] for j in rep.junctions if j["residual_norm"] is not None]
    return {
        "name": solve.name,
        "outcome": "success" if rep.success else "failure",
        "flags": list(rep.flags),
        "inner": int(rep.inner_iterations),
        "outer": int(rep.outer_iterations),
        "resamples": int(rep.resamples),
        "vertices": len(rep.cluster.vertices),
        "P": P,
        "P_star": solve.p_star,
        "P_minus_P_star": gap,
        "refinement_ratio": ratio,
        "junction_residual": max(residuals) if residuals else None,
    }


def panel(solves=SOLVES):
    """The panel's line, as a dict, over the given solves in order."""
    rows, wall, gaps = [], {}, {}
    for solve in solves:
        t0 = time.perf_counter()
        rep = ac.minimize(solve.problem())
        wall[solve.name] = time.perf_counter() - t0
        rows.append(_row(solve, rep, gaps))
        gaps[solve.name] = rows[-1]["P_minus_P_star"]
    return {"rows": rows, "wall_s": wall}


if __name__ == "__main__":
    print(json.dumps(panel(), sort_keys=True))
