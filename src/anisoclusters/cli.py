"""Command line runner: one scenario file in, one JSON report (and
optionally one SVG) out.

Each subcommand matches a scenario task; running a scenario under the wrong
subcommand is a validation error. Exit codes: 0 on success, 2 for any
scenario or hypothesis violation, 3 when a solve finishes without meeting
its convergence criteria (the report and SVG are still written so the run
can be inspected).

A process imports what its task runs: each runner imports its task's module
and calls through it, and svg is imported only when an SVG is written. A
runner's render takes the svg module and returns the document.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .report import make_report, plain, write_report
from .scenario import TASKS, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3

OUT_ENV = "ANISOCLUSTERS_OUT"

# task functions also readable as attributes of this module (perfbench's
# spans.py wraps them here), resolved on access through the package's
# table. The runners call them through their own modules, so each call
# passes one wrapper, not this one and the defining module's both.
_TASK_FUNCTIONS = ("minimize", "steiner_diagnose", "improve", "fermat_point", "admissible_pairs")


def __getattr__(name):
    if name in _TASK_FUNCTIONS:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_fermat(scn):
    from . import steiner

    a, b, c = scn.payload["terminals"]
    if "colors" in scn.payload:
        modes, _ = steiner.fermat_modes_for_colors(scn.payload["colors"])
    else:
        modes = scn.payload.get("modes", ("sym", "sym", "sym"))
    res = steiner.fermat_point(scn.gauge, a, b, c, modes=modes, tol=scn.payload.get("tol", 1e-10))
    result = {
        "point": res.point,
        "value": res.value,
        "iterations": res.iterations,
        "gradient_norm": res.gradient_norm,
        "modes": modes,
        "terminals": [a, b, c],
        "degenerate_vertex": res.degenerate_vertex,
        "collinear": res.collinear,
    }

    def render(svg):
        return svg.render_fermat_svg((a, b, c), res.point, modes)

    return result, render, EXIT_OK


def _run_triples(scn):
    from . import steiner

    a = scn.payload["point"]
    pairs = steiner.admissible_pairs(
        scn.gauge,
        a,
        resolution=scn.payload.get("resolution", 720),
        tol=scn.payload.get("tol", 1e-9),
    )
    result = {
        "point": a,
        "count": len(pairs),
        "pairs": [
            {
                "a": t.a,
                "b": t.b,
                "c": t.c,
                "angle_b_deg": np.degrees(t.angle_b),
                "angle_c_deg": np.degrees(t.angle_c),
                "residual": t.residual,
                "iterations": t.iterations,
            }
            for t in pairs
        ],
    }
    a_pt = pairs[0].a if pairs else scn.gauge.boundary_point(np.arctan2(a[1], a[0]))

    def render(svg):
        return svg.render_triples_svg(scn.gauge, a_pt, pairs)

    return result, render, EXIT_OK


def _run_slices(scn):
    from . import slices

    config = slices.SliceConfig(scn.payload["angles"], scn.payload["colors"], scn.gauge)
    res = slices.improve(config)
    result = {
        "config": config,
        "perimeter_before": res.perimeter_before,
        "perimeter_after": res.perimeter_after,
        "delta": res.delta,
        "move": res.move,
        "guaranteed": res.guaranteed,
    }

    def render(svg):
        return svg.render_network_svg(
            res.network.segments,
            ghost_segments=config.base_network().segments,
            circle_radius=1.0,
        )

    return result, render, EXIT_OK


def _run_perimeter(scn):
    from .cluster import interface_sum, perimeter_breakdown, validate, weighted_volume

    cluster = scn.payload["cluster"]
    parts = perimeter_breakdown(cluster, scn.density)
    result = {
        "perimeter": float(parts.sum()),
        "interface_perimeter": interface_sum(cluster, parts),
        "volumes": weighted_volume(cluster, scn.density),
        "edge_perimeters": parts,
        "chambers": cluster.m,
        "validation": validate(cluster),
    }

    def render(svg):
        return svg.render_cluster_svg(cluster)

    return result, render, EXIT_OK


def _run_solve(scn):
    from . import optimizer

    problem = optimizer.OptimizationProblem(
        cluster=scn.payload["cluster"],
        density=scn.density,
        targets=scn.payload["targets"],
        options=optimizer.SolveOptions(**scn.payload.get("options", {})),
    )
    report = optimizer.minimize(problem)
    result = report.spec()

    def render(svg):
        points = [j["point"] for j in report.junctions]
        return svg.render_cluster_svg(report.cluster, junction_points=points)

    return result, render, EXIT_OK if report.success else EXIT_NO_CONVERGENCE


def _run_diagnose(scn):
    from . import optimizer

    cluster = scn.payload["cluster"]
    rep = optimizer.steiner_diagnose(cluster, scn.density, fit_points=scn.payload.get("fit_points", 5))
    result = rep.spec()

    def render(svg):
        points = [j.point for j in rep.junctions]
        return svg.render_cluster_svg(cluster, junction_points=points)

    return result, render, EXIT_OK


def _run_gaugeprobe(scn):
    from .gauge import roundedness_constant, strict_convexity_margin, unit_ball_boundary
    from .geometry import unit_dir

    gauge = scn.gauge
    n = scn.payload.get("directions", 256)
    u = unit_dir(np.arange(n) * (2.0 * np.pi / n))
    values = gauge.value(u)
    grads = gauge.grad(u)
    result = {
        "gauge": gauge,
        "directions": n,
        "h_min": values.min(),
        "h_max": values.max(),
        "euler_residual": np.abs(np.sum(grads * u, axis=1) - values).max(),
        "smooth": gauge.smooth,
        "symmetric": gauge.symmetric,
        "strict_convexity_margin": strict_convexity_margin(gauge, n_dirs=n),
        "roundedness_constant": roundedness_constant(gauge),
        "boundary": unit_ball_boundary(gauge, n=min(n, 64)),
    }

    def render(svg):
        return svg.render_gauge_svg(gauge)

    return result, render, EXIT_OK


_RUNNERS = {
    "fermat": _run_fermat,
    "triples": _run_triples,
    "slices": _run_slices,
    "perimeter": _run_perimeter,
    "solve": _run_solve,
    "diagnose": _run_diagnose,
    "gaugeprobe": _run_gaugeprobe,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="anisoclusters",
        description="Planar clusters with anisotropic perimeter and weighted volume.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASKS:
        sp = sub.add_parser(name, help=f"run a '{name}' scenario")
        sp.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        sp.add_argument(
            "--out",
            default=None,
            help=f"output directory (default: ${OUT_ENV} or the working directory)",
        )
        sp.add_argument("--svg", action="store_true", help="also write an SVG rendering")
        sp.add_argument("--verbose", action="store_true", help="print run details")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.scenario)
        if scn.task != args.command:
            raise ScenarioError(
                "scenario.task",
                f"scenario task {scn.task!r} does not match subcommand {args.command!r}",
            )
        result, render, code = _RUNNERS[scn.task](scn)
    except ValueError as err:  # ScenarioError included
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID

    out_dir = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    report = make_report(scn.task, result, scenario_name=os.path.basename(args.scenario))
    report_path = os.path.join(out_dir, scn.out_report or f"{scn.task}.json")
    write_report(report_path, report)
    wrote = [report_path]
    if args.svg or scn.out_svg:
        from . import svg

        svg_path = os.path.join(out_dir, scn.out_svg or f"{scn.task}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(render(svg))
        wrote.append(svg_path)
    if args.verbose:
        for key in ("perimeter", "value", "delta", "count", "success"):
            if isinstance(result, dict) and key in result:
                print(f"{key}: {plain(result[key])}")
    for path in wrote:
        print(f"wrote {path}")
    return code
