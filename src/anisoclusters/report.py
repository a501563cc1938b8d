"""Deterministic JSON reports.

plain turns a result into plain Python values exactly; render_report then
sorts the keys and rounds floats to 12 significant digits before
serialization. Identical inputs therefore serialize to identical bytes on
any platform.
"""

from __future__ import annotations

import json

import numpy as np

REPORT_SCHEMA = "anisoclusters-report"
REPORT_VERSION = 1


def plain(value):
    """value with numpy scalars and arrays turned into the Python values they
    hold, tuples into lists and any object with a spec() into its spec,
    throughout dicts and lists. Nothing is rounded."""
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return plain(value.tolist())
    if hasattr(value, "spec"):
        return plain(value.spec())
    return value


def _canon(value):
    """A plain value with floats rounded and non-finite ones spelled out."""
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out[key] = _canon(value[key])
        return out
    if isinstance(value, list):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if value is None or isinstance(value, (str, bool, int)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def make_report(task, result, scenario_name=None):
    """Wrap a task result in the report envelope."""
    rep = {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "task": task,
        "result": result,
    }
    if scenario_name is not None:
        rep["scenario"] = str(scenario_name)
    return rep


def render_report(report):
    """Serialize a report to canonical JSON text."""
    return json.dumps(_canon(plain(report)), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(path, report):
    text = render_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
