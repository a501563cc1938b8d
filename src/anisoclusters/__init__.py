"""Planar clusters with a volume density and an anisotropic, possibly
asymmetric perimeter density.

The package evaluates weighted perimeter and volume of polygonal clusters,
solves weighted three-arm junction problems, builds explicit
perimeter-decreasing competitors inside small disks, minimizes cluster
perimeter at fixed chamber volumes, and checks junction balance and
regularity diagnostics on the results.

The public names below resolve on first access, each from the module that
defines it (_MODULES): a bare import loads no submodule, and a command line
run loads only the modules its task uses. cluster holds the wall rule
(_edge_roles, interface_sum, interface_perimeter) and the side labels of
the Fermat arm modes (MODE_SIDES), so measuring a cluster needs neither
the solver nor the junction code.
"""

import importlib

__version__ = "0.1.0"

# module: the public names it defines
_MODULES = {
    "builders": (
        "double_bubble_cluster",
        "polygon_chamber",
        "regular_polygon_chamber",
        "square_cross_cluster",
    ),
    "cluster": (
        "BallBoundReport",
        "Cluster",
        "Edge",
        "ball_bound_check",
        "chamber_perimeter",
        "growth_estimate",
        "interface_perimeter",
        "interface_sum",
        "isoperimetric_check",
        "oriented_weight",
        "perimeter_breakdown",
        "relative_perimeter",
        "union_perimeter",
        "validate",
        "weighted_perimeter",
        "weighted_volume",
        "weighted_volume_plain",
    ),
    "density": ("Density", "DiskDomain", "Rect", "ball_volume"),
    "gauge": (
        "EllipseGauge",
        "EuclideanGauge",
        "Gauge",
        "LinearGauge",
        "LpGauge",
        "RotatedGauge",
        "ShiftedDiskGauge",
        "SmoothedL1Gauge",
        "TabulatedGauge",
        "gauge_from_spec",
        "roundedness_constant",
        "strict_convexity_margin",
        "unit_ball_boundary",
    ),
    "optimizer": (
        "DiagnoseReport",
        "OptimizationProblem",
        "SolveOptions",
        "SolveReport",
        "minimize",
        "resample_cluster",
        "steiner_diagnose",
    ),
    "report": ("make_report", "render_report", "write_report"),
    "scenario": ("Scenario", "ScenarioError", "load_scenario", "parse_scenario"),
    "slices": (
        "CompetitorNetwork",
        "ImproveResult",
        "NetSegment",
        "SliceConfig",
        "enumerate_moves",
        "improve",
        "path_length_gauge",
        "shortcut_path",
    ),
    "steiner": (
        "AdmissibleTriple",
        "FermatResult",
        "JunctionInfo",
        "admissible_pairs",
        "detect_junctions",
        "fermat_modes_for_colors",
        "fermat_point",
        "junction_residual",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    """The public name from its defining module, read on each access, so it
    is always that module's current object."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
