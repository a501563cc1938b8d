"""Scenario files: one JSON tree describing a single task run.

A scenario names exactly one task and carries the blocks that task needs.
Validation is strict: unknown keys anywhere in the tree, and non-finite
numbers (NaN and Infinity, which Python's JSON reader accepts), raise a
ScenarioError carrying the dotted path of the offending value, so typos
never silently alter an experiment. Angles in files are degrees; everything
internal is radians.

Each block is read through one table from its keys to their converters
(_block). A converter takes a value and its dotted path and returns what the
runtime uses, or raises a ScenarioError at that path.

The top-level "gauge" block always parameterizes the weight the task itself
consumes: junction tasks (fermat, triples) weight oriented segments with it
directly, while cluster and slice tasks read it as the normal-based
perimeter density h.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import builders
from .cluster import MODE_SIDES, Cluster
from .density import Density
from .gauge import gauge_from_spec

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario validation failure with the dotted path of the bad key."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass
class Scenario:
    version: int
    task: str
    gauge: object
    density: Density
    payload: dict
    out_report: str | None = None
    out_svg: str | None = None


def _mapping(obj, path):
    if not isinstance(obj, dict):
        raise ScenarioError(path, "expected a mapping")
    return obj


def _block(obj, path, table, required=(), tag=()):
    """The entries of mapping obj, each converted at its dotted path by its
    key's converter in table, or read as a block by its key's nested table.
    A key in neither table nor tag, the keys the caller reads, is an error."""
    _mapping(obj, path)
    for key in obj:
        if key not in table and key not in tag:
            raise ScenarioError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ScenarioError(path, f"missing required key {key!r}")
    out = {}
    for key, convert in table.items():
        if key in obj:
            at = f"{path}.{key}"
            out[key] = _block(obj[key], at, convert) if isinstance(convert, dict) else convert(obj[key], at)
    return out


def _number(obj, path):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(path, "expected a number")
    if not abs(obj) <= sys.float_info.max:  # NaN, infinities and ints no float holds
        raise ScenarioError(path, "expected a finite number")
    return float(obj)


def _positive(obj, path):
    value = _number(obj, path)
    if not value > 0:
        raise ScenarioError(path, "must be positive")
    return value


def _integer(obj, path):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ScenarioError(path, "expected an integer")
    return obj


def _at_least(minimum):
    def convert(obj, path):
        if _integer(obj, path) < minimum:
            raise ScenarioError(path, f"must be at least {minimum}")
        return obj

    return convert


def _point(obj, path):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ScenarioError(path, "expected a point [x, y]")
    return np.array([_number(obj[0], f"{path}[0]"), _number(obj[1], f"{path}[1]")])


def _points(exactly=None, at_least=None):
    def convert(obj, path):
        if not isinstance(obj, list):
            raise ScenarioError(path, "expected a list of points")
        if exactly is not None and len(obj) != exactly:
            raise ScenarioError(path, f"expected exactly {exactly} points")
        if at_least is not None and len(obj) < at_least:
            raise ScenarioError(path, f"expected at least {at_least} points")
        return np.array([_point(p, f"{path}[{k}]") for k, p in enumerate(obj)])

    return convert


def _numbers(at_least):
    def convert(obj, path):
        if not isinstance(obj, list) or len(obj) < at_least:
            raise ScenarioError(path, f"expected a list of at least {at_least} numbers")
        return [_number(v, f"{path}[{k}]") for k, v in enumerate(obj)]

    return convert


def _indices(obj, path):
    if not isinstance(obj, list):
        raise ScenarioError(path, "expected a list of integers")
    return [_at_least(0)(v, f"{path}[{k}]") for k, v in enumerate(obj)]


def _instance(kind, message):
    def convert(obj, path):
        if not isinstance(obj, kind):
            raise ScenarioError(path, message)
        return obj

    return convert


_boolean = _instance(bool, "expected a boolean")
_file_name = _instance(str, "expected a file name")


def _rng(obj, path):
    return np.random.default_rng(_at_least(0)(obj, path))


def _gauge(obj, path):
    _mapping(obj, path)
    if "kind" not in obj:
        raise ScenarioError(path, "missing required key 'kind'")
    try:
        return gauge_from_spec(obj)
    except ValueError as err:
        raise ScenarioError(path, str(err)) from err


# builder name: (function name in builders, {key: converter}, required
# keys). The function is looked up when the cluster is built, so a wrapper
# set on builders later is called. Each key is passed as the builder's
# keyword of that name; seed is passed as the rng it seeds (_BUILDER_KEYWORDS)
_BUILDERS = {
    "square-cross": (
        "square_cross_cluster",
        {"center": _point, "n_sub": _at_least(1), "jitter": _number, "seed": _rng, "half": _positive},
        (),
    ),
    "regular-polygon": (
        "regular_polygon_chamber",
        {"n": _at_least(3), "area": _positive, "center": _point},
        ("n",),
    ),
    "double-bubble": (
        "double_bubble_cluster",
        {
            "n_arc": _at_least(1),
            "n_mid": _at_least(1),
            "width": _positive,
            "height": _positive,
            "bulge": _positive,
        },
        (),
    ),
    "polygon": ("polygon_chamber", {"points": _points(at_least=3)}, ("points",)),
}
_BUILDER_KEYWORDS = {"seed": "rng"}


def _edge_vertices(obj, path):
    idx = _indices(obj, path)
    if len(idx) < 2:
        raise ScenarioError(path, "expected at least two vertex indices")
    return idx


_EDGE = {
    "vertices": _edge_vertices,
    "left": _at_least(0),
    "right": _at_least(0),
    "tags": {"wall": _boolean, "fixed": _boolean},
}


def _edges(obj, path):
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(path, "expected a non-empty list")
    required = ("vertices", "left", "right")
    return [_block(e, f"{path}[{k}]", _EDGE, required) for k, e in enumerate(obj)]


_INLINE_CLUSTER = {"vertices": _points(at_least=2), "chambers": _at_least(1), "edges": _edges}


def _cluster(obj, path):
    _mapping(obj, path)
    if "builder" not in obj:
        return Cluster.from_spec(_block(obj, path, _INLINE_CLUSTER, required=tuple(_INLINE_CLUSTER)))
    _block(obj, path, {}, tag=("builder",))  # no inline keys beside a builder
    bp = f"{path}.builder"
    b = _mapping(obj["builder"], bp)
    if "name" not in b:
        raise ScenarioError(bp, "missing required key 'name'")
    if not isinstance(b["name"], str) or b["name"] not in _BUILDERS:
        raise ScenarioError(f"{bp}.name", f"unknown builder {b['name']!r}")
    name, table, required = _BUILDERS[b["name"]]
    kw = _block(b, bp, table, required, tag=("name",))
    return getattr(builders, name)(**{_BUILDER_KEYWORDS.get(key, key): value for key, value in kw.items()})


def _modes(obj, path):
    if not isinstance(obj, list) or len(obj) != 3:
        raise ScenarioError(path, "expected three of 'out'/'in'/'sym'")
    for k, m in enumerate(obj):
        if m not in MODE_SIDES:
            raise ScenarioError(f"{path}[{k}]", "expected 'out', 'in' or 'sym'")
    return tuple(obj)


def _sector_colors(obj, path):
    colors = _indices(obj, path)
    if len(colors) != 3:
        raise ScenarioError(path, "expected three sector colors")
    return colors


def _options(obj, path):
    """The solve options: SolveOptions' fields, integers >= 1 where the
    default is an integer, positive numbers otherwise. The optimizer is
    imported here, so only a solve scenario loads it."""
    from .optimizer import SolveOptions

    table = {f.name: _at_least(1) if type(f.default) is int else _positive for f in fields(SolveOptions)}
    return _block(obj, path, table)


# task: ({key: converter}, required keys)
_TASK_BLOCKS = {
    "fermat": (
        {"terminals": _points(exactly=3), "modes": _modes, "colors": _sector_colors, "tol": _positive},
        ("terminals",),
    ),
    "triples": ({"point": _point, "resolution": _at_least(16), "tol": _positive}, ("point",)),
    "slices": ({"angles_deg": _numbers(2), "colors": _indices}, ("angles_deg", "colors")),
    "perimeter": ({"cluster": _cluster}, ("cluster",)),
    "solve": ({"cluster": _cluster, "targets": _numbers(1), "options": _options}, ("cluster", "targets")),
    "diagnose": ({"cluster": _cluster}, ("cluster",)),
    "gaugeprobe": ({"directions": _at_least(8)}, ()),
}

TASKS = tuple(_TASK_BLOCKS)

# the top-level keys but version, task and the task block
_TOP = {
    "gauge": _gauge,
    "g": _positive,
    "out": {"report": _file_name, "svg": _file_name},
}


def _task_payload(task, obj, path):
    """The converted task block, with the checks that join its keys."""
    table, required = _TASK_BLOCKS[task]
    payload = _block(obj, path, table, required)
    if task == "fermat" and "modes" in payload and "colors" in payload:
        raise ScenarioError(path, "give either 'modes' or 'colors', not both")
    if task == "slices":
        if len(payload["colors"]) != len(payload["angles_deg"]):
            raise ScenarioError(f"{path}.colors", "need one color per radius")
        payload["angles"] = np.radians(payload.pop("angles_deg"))
    return payload


def parse_scenario(raw):
    """Validate a decoded scenario tree and build its runtime objects."""
    _mapping(raw, "scenario")
    if "version" not in raw:
        raise ScenarioError("scenario", "missing required key 'version'")
    version = _integer(raw["version"], "scenario.version")
    if version != SCHEMA_VERSION:
        raise ScenarioError("scenario.version", f"unsupported version {version}, expected {SCHEMA_VERSION}")
    if "task" not in raw:
        raise ScenarioError("scenario", "missing required key 'task'")
    task = raw["task"]
    if task not in TASKS:
        raise ScenarioError("scenario.task", f"unknown task {task!r}; expected one of {list(TASKS)}")
    if task not in raw:
        raise ScenarioError("scenario", f"missing required block {task!r}")
    top = _block(raw, "scenario", _TOP, required=("gauge",), tag=("version", "task", task))
    out = top.get("out", {})
    path = f"scenario.{task}"
    return Scenario(
        version=version,
        task=task,
        gauge=top["gauge"],
        density=Density(top["gauge"], g=top.get("g", 1.0)),
        payload=_task_payload(task, _mapping(raw[task], path), path),
        out_report=out.get("report"),
        out_svg=out.get("svg"),
    )


def load_scenario(path):
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ScenarioError("scenario", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ScenarioError("scenario", f"invalid JSON in {path}: {err}") from err
    return parse_scenario(raw)
