"""Canonical JSON report serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from anisoclusters.report import make_report, render_report, write_report

REPORT_SCHEMA_PATH = (
    Path(__file__).resolve().parent.parent / "src" / "anisoclusters" / "schemas" / "report.schema.json"
)


class TestRender:
    def test_floats_rounded_to_12_significant_digits(self):
        text = render_report({"x": 0.1 + 0.2})
        assert json.loads(text)["x"] == 0.3

    def test_keys_sorted_and_trailing_newline(self):
        text = render_report({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert not text.endswith("\n\n")

    def test_numpy_types_become_plain(self):
        text = render_report(
            {
                "arr": np.arange(3, dtype=np.int64),
                "f": np.float64(1.5),
                "b": np.bool_(True),
                "nested": [np.float32(2.0)],
            }
        )
        data = json.loads(text)
        assert data == {"arr": [0, 1, 2], "f": 1.5, "b": True, "nested": [2.0]}

    def test_non_finite_floats_become_strings(self):
        data = json.loads(
            render_report({"a": float("nan"), "b": float("inf"), "c": -float("inf")})
        )
        assert data == {"a": "nan", "b": "inf", "c": "-inf"}

    def test_identical_inputs_identical_bytes(self):
        rep = {"values": np.linspace(0, 1, 7), "name": "x", "n": 7}
        assert render_report(rep) == render_report(rep)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            render_report({"x": object()})

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            render_report({1: "x"})

    def test_tuple_becomes_list(self):
        assert json.loads(render_report({"t": (1, 2)}))["t"] == [1, 2]


class TestEnvelope:
    def test_required_fields(self):
        rep = make_report("triples", {"count": 1})
        assert rep["schema"] == "anisoclusters-report"
        assert rep["version"] == 1
        assert rep["task"] == "triples"
        assert rep["result"] == {"count": 1}
        assert "seed" not in rep and "scenario" not in rep

    def test_optional_fields(self):
        rep = make_report("solve", {}, scenario_name="run.json")
        assert rep["scenario"] == "run.json"

    def test_seed_is_not_a_parameter(self):
        # a solve has one deterministic start, so a report records no seed
        with pytest.raises(TypeError, match="seed"):
            make_report("solve", {}, seed=5)

    def test_schema_rejects_a_seed_in_the_envelope(self):
        import jsonschema

        schema = json.loads(REPORT_SCHEMA_PATH.read_text())
        rep = make_report("solve", {}, scenario_name="run.json")
        jsonschema.validate(rep, schema)
        with pytest.raises(jsonschema.ValidationError, match="seed"):
            jsonschema.validate(dict(rep, seed=0), schema)


class TestWrite:
    def test_write_returns_text(self, tmp_path):
        p = tmp_path / "out.json"
        text = write_report(p, make_report("gaugeprobe", {"h_min": 1.0}))
        assert p.read_text(encoding="utf-8") == text
        assert json.loads(text)["result"] == {"h_min": 1.0}
