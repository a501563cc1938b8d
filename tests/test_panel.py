"""The accuracy panel's machinery (panel/run.py) on a two-solve subset."""

import importlib.util
import json
from pathlib import Path

import pytest

PANEL = Path(__file__).resolve().parents[1] / "panel" / "run.py"
ROW_KEYS = {
    "name", "outcome", "flags", "inner", "outer", "resamples", "vertices",
    "P", "P_star", "P_minus_P_star", "refinement_ratio", "junction_residual",
}


@pytest.fixture(scope="module")
def panel():
    spec = importlib.util.spec_from_file_location("accuracy_panel", PANEL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_solves_give_one_line_with_every_key(panel):
    names = ("bubble euclidean n_arc=24", "bubble euclidean n_arc=48")
    solves = [s for s in panel.SOLVES if s.name in names]
    line = json.loads(json.dumps(panel.panel(solves)))
    assert set(line) == {"rows", "wall_s"}
    assert [r["name"] for r in line["rows"]] == list(names)
    assert set(line["wall_s"]) == set(names)
    for row in line["rows"]:
        assert set(row) == ROW_KEYS
        assert row["outcome"] == "success" and row["flags"] == []
        assert row["P_minus_P_star"] == row["P"] - row["P_star"] > 0
        assert row["junction_residual"] < 1e-2
    coarse, fine = line["rows"]
    assert coarse["refinement_ratio"] is None
    assert fine["refinement_ratio"] == coarse["P_minus_P_star"] / fine["P_minus_P_star"]


def test_the_list_is_fixed_and_named_once(panel):
    names = [s.name for s in panel.SOLVES]
    assert len(names) == len(set(names)) == 25
    assert all(s.coarser is None or s.coarser in names[: names.index(s.name)] for s in panel.SOLVES)
