"""Scenario parsing: strict validation with dotted error paths."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from anisoclusters import (
    Cluster,
    DiskDomain,
    EuclideanGauge,
    Rect,
    ScenarioError,
    SolveOptions,
    growth_estimate,
    load_scenario,
    parse_scenario,
)
from anisoclusters import builders, scenario
from anisoclusters.cli import _RUNNERS
from anisoclusters.steiner import MODE_SIDES

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "anisoclusters" / "schemas"
SCHEMA_PATH = SCHEMA_DIR / "scenario.schema.json"


def base(task, block, **top):
    raw = {"version": 1, "task": task, "gauge": {"kind": "euclidean"}, task: block}
    raw.update(top)
    return raw


FERMAT = {"terminals": [[0, 0], [1, 0], [0.5, 1]]}
TRIPLES = {"point": [0, 1]}
SLICES = {"angles_deg": [0, 90, 180, 270], "colors": [1, 2, 3, 4]}
SOLVE = {
    "cluster": {"builder": {"name": "regular-polygon", "n": 16, "area": 3.14}},
    "targets": [3.14],
}
PERIMETER = {"cluster": {"builder": {"name": "square-cross", "n_sub": 2}}}
DIAGNOSE = {"cluster": {"builder": {"name": "double-bubble", "n_arc": 8}}}
GAUGEPROBE = {"directions": 64}

MINIMAL = {
    "fermat": FERMAT,
    "triples": TRIPLES,
    "slices": SLICES,
    "solve": SOLVE,
    "perimeter": PERIMETER,
    "diagnose": DIAGNOSE,
    "gaugeprobe": GAUGEPROBE,
}


class TestMinimalScenarios:
    @pytest.mark.parametrize("task", sorted(MINIMAL))
    def test_every_task_parses(self, task):
        scn = parse_scenario(base(task, MINIMAL[task]))
        assert scn.task == task
        assert scn.version == 1
        assert isinstance(scn.gauge, EuclideanGauge)
        assert scn.density.h_range(np.zeros((0, 2)))[0] == pytest.approx(1.0)

    def test_degrees_become_radians(self):
        scn = parse_scenario(base("slices", SLICES))
        assert np.allclose(scn.payload["angles"], np.radians([0, 90, 180, 270]))

    def test_fermat_modes_tuple(self):
        blk = dict(FERMAT, modes=["out", "in", "sym"])
        scn = parse_scenario(base("fermat", blk))
        assert scn.payload["modes"] == ("out", "in", "sym")

    def test_solve_options_collected(self):
        blk = dict(SOLVE, options={"max_outer": 5, "vol_tol": 1e-5})
        scn = parse_scenario(base("solve", blk))
        assert scn.payload["options"] == {"max_outer": 5, "vol_tol": 1e-5}
        assert isinstance(scn.payload["cluster"], Cluster)

    def test_domain_shapes(self):
        # the rect and disk a scenario once carried are growth_estimate's
        # domains, passed beside a scenario's density
        density = parse_scenario(base("triples", TRIPLES)).density
        for domain in (Rect(-2, 2, -1, 1), DiskDomain([0, 0], 2)):
            _, eta = growth_estimate(density, domain, [0.1, 0.2, 0.4], rng=np.random.default_rng(11))
            assert eta == pytest.approx(2.0, abs=0.05)

    def test_out_and_seed(self):
        raw = base("triples", TRIPLES, out={"report": "r.json", "svg": "p.svg"})
        scn = parse_scenario(raw)
        assert scn.out_report == "r.json"
        assert scn.out_svg == "p.svg"

    def test_inline_cluster(self):
        blk = {
            "cluster": {
                "vertices": [[0, 0], [1, 0], [0, 1]],
                "edges": [
                    {"vertices": [0, 1, 2, 0], "left": 1, "right": 0, "tags": {"wall": False}}
                ],
                "chambers": 1,
            }
        }
        scn = parse_scenario(base("perimeter", blk))
        assert scn.payload["cluster"].m == 1


def err_path(raw):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(raw)
    return exc.value.path


class TestErrorPaths:
    def test_unknown_top_key(self):
        raw = base("triples", TRIPLES)
        raw["bogus"] = 1
        assert err_path(raw) == "scenario.bogus"

    def test_missing_version(self):
        assert err_path({"task": "triples", "gauge": {"kind": "euclidean"}}) == "scenario"

    def test_wrong_version(self):
        raw = base("triples", TRIPLES)
        raw["version"] = 2
        assert err_path(raw) == "scenario.version"

    def test_unknown_task(self):
        raw = {"version": 1, "task": "juggle", "gauge": {"kind": "euclidean"}}
        assert err_path(raw) == "scenario.task"

    def test_missing_task_block(self):
        raw = {"version": 1, "task": "triples", "gauge": {"kind": "euclidean"}}
        assert err_path(raw) == "scenario"

    def test_foreign_task_block_rejected(self):
        raw = base("triples", TRIPLES)
        raw["fermat"] = FERMAT
        assert err_path(raw) == "scenario.fermat"

    def test_bad_gauge_kind(self):
        raw = base("triples", TRIPLES)
        raw["gauge"] = {"kind": "taxicab-ish"}
        assert err_path(raw) == "scenario.gauge"

    def test_gauge_without_kind(self):
        raw = base("triples", TRIPLES)
        raw["gauge"] = {}
        assert err_path(raw) == "scenario.gauge"

    def test_modes_and_colors_conflict(self):
        blk = dict(FERMAT, modes=["out", "out", "out"], colors=[1, 2, 3])
        assert err_path(base("fermat", blk)) == "scenario.fermat"

    def test_bad_mode_name(self):
        blk = dict(FERMAT, modes=["out", "spin", "sym"])
        assert err_path(base("fermat", blk)) == "scenario.fermat.modes[1]"

    def test_unknown_solve_option(self):
        blk = dict(SOLVE, options={"max_outre": 5})
        assert err_path(base("solve", blk)) == "scenario.solve.options.max_outre"

    def test_seed_in_options_rejected(self):
        blk = dict(SOLVE, options={"seed": 5})
        assert err_path(base("solve", blk)) == "scenario.solve.options.seed"

    def test_top_level_seed_rejected(self):
        # a solve has one deterministic start, and nothing else reads a seed
        for seed in (7, -1):
            assert err(base("triples", TRIPLES, seed=seed)) == ("scenario.seed", "unknown key")

    def test_non_string_report_name(self):
        raw = base("triples", TRIPLES, out={"report": 7})
        assert err_path(raw) == "scenario.out.report"

    def test_bad_domain_shape(self):
        # no scenario key sets a domain, of any shape
        raw = base("triples", TRIPLES, domain={"shape": "hexagon"})
        assert err(raw) == ("scenario.domain", "unknown key")

    @pytest.mark.parametrize(
        "domain",
        [
            {"shape": "rect", "xmin": 1, "xmax": -1, "ymin": -1, "ymax": 1},
            {"shape": "rect", "xmin": -1, "xmax": 1, "ymin": 2, "ymax": 2},
        ],
    )
    def test_empty_rect_domain(self, domain):
        bounds = {key: value for key, value in domain.items() if key != "shape"}
        with pytest.raises(ValueError, match="empty rectangle"):
            Rect(**bounds)
        assert err(base("triples", TRIPLES, domain=domain)) == ("scenario.domain", "unknown key")

    def test_unknown_builder(self):
        blk = {"cluster": {"builder": {"name": "megacross"}}}
        assert err_path(base("perimeter", blk)) == "scenario.perimeter.cluster.builder.name"

    def test_builder_excludes_inline_keys(self):
        blk = {
            "cluster": {
                "builder": {"name": "square-cross"},
                "vertices": [[0, 0]],
            }
        }
        assert err_path(base("perimeter", blk)) == "scenario.perimeter.cluster.vertices"

    def test_builder_foreign_parameter(self):
        blk = {"cluster": {"builder": {"name": "regular-polygon", "n_sub": 2}}}
        assert (
            err_path(base("perimeter", blk))
            == "scenario.perimeter.cluster.builder.n_sub"
        )

    def test_builder_required_parameter(self):
        # regular_polygon_chamber has no default n; it raised TypeError
        blk = {"cluster": {"builder": {"name": "regular-polygon", "area": 1.0}}}
        assert err(base("perimeter", blk)) == (
            "scenario.perimeter.cluster.builder",
            "missing required key 'n'",
        )

    def test_non_boolean_tag(self):
        blk = {
            "cluster": {
                "vertices": [[0, 0], [1, 0], [0, 1]],
                "edges": [
                    {"vertices": [0, 1, 2, 0], "left": 1, "right": 0, "tags": {"wall": 1}}
                ],
                "chambers": 1,
            }
        }
        assert (
            err_path(base("perimeter", blk))
            == "scenario.perimeter.cluster.edges[0].tags.wall"
        )

    def test_unknown_tag(self):
        blk = {
            "cluster": {
                "vertices": [[0, 0], [1, 0], [0, 1]],
                "edges": [
                    {
                        "vertices": [0, 1, 2, 0],
                        "left": 1,
                        "right": 0,
                        "tags": {"color": True},
                    }
                ],
                "chambers": 1,
            }
        }
        assert (
            err_path(base("perimeter", blk))
            == "scenario.perimeter.cluster.edges[0].tags.color"
        )

    def test_slices_color_count_mismatch(self):
        blk = {"angles_deg": [0, 90, 180], "colors": [1, 2]}
        assert err_path(base("slices", blk)) == "scenario.slices.colors"

    def test_terminal_count(self):
        blk = {"terminals": [[0, 0], [1, 0]]}
        assert err_path(base("fermat", blk)) == "scenario.fermat.terminals"

    def test_scenario_must_be_mapping(self):
        assert err_path([1, 2, 3]) == "scenario"

    def test_retired_solve_option_rejected(self):
        # fd_scale, penalty0, resample_len and jitter are solver constants
        # now, and a solve has one start
        for key in ("fd_scale", "penalty0", "resample_len", "jitter", "multi_start"):
            blk = dict(SOLVE, options={key: 1.0})
            assert err_path(base("solve", blk)) == f"scenario.solve.options.{key}"

    def test_retired_merge_radius_rejected(self):
        blk = dict(DIAGNOSE, merge_radius=0.5)
        assert err(base("diagnose", blk)) == ("scenario.diagnose.merge_radius", "unknown key")


def err(raw):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(raw)
    return exc.value.path, exc.value.message


class TestNonFiniteNumbers:
    # json.load reads NaN and Infinity; a scenario must not pass them on

    def test_nan_target(self):
        blk = dict(SOLVE, targets=[float("nan")])
        assert err(base("solve", blk)) == ("scenario.solve.targets[0]", "expected a finite number")

    def test_infinite_g(self):
        raw = base("triples", TRIPLES, g=float("inf"))
        assert err(raw) == ("scenario.g", "expected a finite number")

    def test_nan_terminal(self):
        blk = {"terminals": [[0, 0], [1, float("nan")], [0.5, 1]]}
        assert err(base("fermat", blk)) == ("scenario.fermat.terminals[1][1]", "expected a finite number")

    def test_integer_no_float_holds(self):
        raw = base("triples", TRIPLES, g=10**400)
        assert err(raw) == ("scenario.g", "expected a finite number")
        raw["g"], raw["gauge"] = 1, {"kind": "lp", "p": 10**400}
        assert err(raw)[0] == "scenario.gauge"

    def test_read_from_a_file(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"version": 1, "task": "triples", "gauge": {"kind": "euclidean"}, '
                     '"triples": {"point": [0, 1], "tol": NaN}}')
        with pytest.raises(ScenarioError) as exc:
            load_scenario(p)
        assert exc.value.path == "scenario.triples.tol"


class TestGaugeParameterTypes:
    # gauge parameters are JSON numbers (p may be "inf"), as the schema says

    @pytest.mark.parametrize(
        "gauge,key",
        [
            pytest.param({"kind": "lp", "p": True}, "p", id="p-true"),
            pytest.param({"kind": "lp", "p": "2"}, "p", id="p-string"),
            pytest.param({"kind": "lp", "p": float("nan")}, "p", id="p-nan"),
            pytest.param({"kind": "smoothed-l1", "kappa": "0.35"}, "kappa", id="kappa-string"),
            pytest.param({"kind": "ellipse", "matrix": [[1, "0"], [0, 1]]}, "matrix", id="matrix-string"),
            pytest.param(
                {"kind": "shifted-disk", "center": [0, "0.2"], "radius": 1}, "center", id="center-string"
            ),
            pytest.param({"kind": "tabulated", "values": [1.0] * 7 + ["1"]}, "values", id="values-string"),
        ],
    )
    def test_non_number_rejected_at_the_gauge(self, gauge, key):
        raw = base("triples", TRIPLES)
        raw["gauge"] = gauge
        path, message = err(raw)
        assert path == "scenario.gauge"
        assert f"{key} must be" in message

    def test_inf_spelling_still_loads_the_max_norm(self):
        raw = base("triples", TRIPLES)
        raw["gauge"] = {"kind": "lp", "p": "inf"}
        assert parse_scenario(raw).gauge.spec() == {"kind": "lp", "p": "inf"}


class TestSchemaAndCodeAgree:
    def test_solve_options_builders_and_tasks(self):
        defs = json.loads(SCHEMA_PATH.read_text())["$defs"]
        options = set(defs["solve"]["properties"]["options"]["properties"])
        assert options == {f.name for f in fields(SolveOptions)}
        builder = defs["cluster"]["oneOf"][0]["properties"]["builder"]
        assert set(builder["properties"]["name"]["enum"]) == set(scenario._BUILDERS)
        # one branch per builder, with its keys and required keys
        branches = {b["properties"]["name"]["const"]: b for b in builder["oneOf"]}
        assert set(branches) == set(scenario._BUILDERS)
        for name, (_, table, required) in scenario._BUILDERS.items():
            assert set(branches[name]["properties"]) - {"name"} == set(table), name
            assert set(branches[name].get("required", ())) == set(required), name
        task_enum = json.loads(SCHEMA_PATH.read_text())["properties"]["task"]["enum"]
        report_enum = json.loads((SCHEMA_DIR / "report.schema.json").read_text())["properties"]["task"]["enum"]
        assert set(task_enum) == set(report_enum) == set(scenario.TASKS) == set(_RUNNERS)

    def test_task_blocks_and_modes(self):
        defs = json.loads(SCHEMA_PATH.read_text())["$defs"]
        for task, (table, required) in scenario._TASK_BLOCKS.items():
            assert set(defs[task]["properties"]) == set(table), task
            assert set(defs[task].get("required", ())) == set(required), task
        assert defs["fermat"]["properties"]["modes"]["items"]["enum"] == list(MODE_SIDES)


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(p)

    def test_round_trip_from_disk(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(base("triples", TRIPLES)))
        scn = load_scenario(p)
        assert scn.task == "triples"


class TestShippedScenarios:
    def scenario_files(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 10
        return files

    def test_all_parse(self):
        for f in self.scenario_files():
            scn = load_scenario(f)
            assert scn.task in f.name, f.name

    def test_all_match_json_schema(self):
        import jsonschema

        schema = json.loads(SCHEMA_PATH.read_text())
        validator = jsonschema.Draft202012Validator(schema)
        for f in self.scenario_files():
            raw = json.loads(f.read_text())
            errors = list(validator.iter_errors(raw))
            assert errors == [], f"{f.name}: {[e.message for e in errors]}"

    @pytest.mark.parametrize(
        "builder",
        [
            {"name": "square-cross", "n_sub": 2, "half": 1.5, "jitter": 0.1, "seed": 3},
            {"name": "regular-polygon", "n": 6, "area": 2.0},
            {"name": "double-bubble", "n_arc": 8, "bulge": 0.5},
            {"name": "polygon", "points": [[0, 0], [1, 0], [0, 1]]},
        ],
        ids=lambda b: b["name"],
    )
    def test_schema_and_loader_accept_each_builder(self, builder):
        import jsonschema

        raw = base("perimeter", {"cluster": {"builder": builder}})
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        assert list(validator.iter_errors(raw)) == []
        parse_scenario(raw)

    @pytest.mark.parametrize(
        "builder",
        [
            {"name": "regular-polygon"},
            {"name": "square-cross", "n_arc": 8},
            {"name": "polygon"},
            {"name": "double-bubble", "points": [[0, 0], [1, 0], [0, 1]]},
        ],
        ids=["polygon-without-n", "cross-with-n_arc", "polygon-without-points", "bubble-with-points"],
    )
    def test_schema_rejects_what_the_loader_rejects(self, builder):
        import jsonschema

        raw = base("perimeter", {"cluster": {"builder": builder}})
        with pytest.raises(ScenarioError):
            parse_scenario(raw)
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        assert list(validator.iter_errors(raw)) != []

    def test_schema_rejects_unknown_top_key(self):
        import jsonschema

        schema = json.loads(SCHEMA_PATH.read_text())
        raw = base("triples", TRIPLES)
        raw["bogus"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(raw, schema)

    @pytest.mark.parametrize(
        "raw, path",
        [
            (base("solve", SOLVE, seed=7), "scenario.seed"),
            (base("solve", dict(SOLVE, options={"multi_start": 2})), "scenario.solve.options.multi_start"),
            (
                base("solve", SOLVE, domain={"shape": "rect", "xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1}),
                "scenario.domain",
            ),
        ],
        ids=["seed", "multi_start", "domain"],
    )
    def test_schema_and_loader_reject_the_retired_seed_and_multi_start(self, raw, path):
        import jsonschema

        assert err(raw) == (path, "unknown key")
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        assert list(validator.iter_errors(raw)) != []

    def test_schema_and_loader_reject_the_retired_fit_points(self):
        # a junction arm's tangent is a closed form in its first three
        # points, with no count of points to set
        import jsonschema

        raw = base("diagnose", dict(DIAGNOSE, fit_points=5))
        assert err(raw) == ("scenario.diagnose.fit_points", "unknown key")
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        assert [(list(e.absolute_path), e.validator) for e in validator.iter_errors(raw)] == [
            (["diagnose"], "additionalProperties")
        ]

    def test_a_builder_is_looked_up_when_the_cluster_is_built(self, monkeypatch):
        # a wrapper set on builders after import, as a profiler's hook is,
        # sees the loader's call
        calls = []
        build = builders.double_bubble_cluster
        monkeypatch.setattr(builders, "double_bubble_cluster", lambda **kw: calls.append(kw) or build(**kw))
        scn = parse_scenario(base("diagnose", DIAGNOSE))
        assert calls == [{"n_arc": 8}]
        assert scn.payload["cluster"].vertices.tobytes() == build(n_arc=8).vertices.tobytes()

    def test_the_cross_builder_keeps_its_seed(self):
        # the builder's seed draws its jitter, so unlike the retired
        # top-level seed it changes the cluster
        raw = json.loads((SCENARIO_DIR / "solve-square-cross.json").read_text())

        def vertices(seed):
            raw["solve"]["cluster"]["builder"]["seed"] = seed
            return parse_scenario(raw).payload["cluster"].vertices

        assert vertices(7).tobytes() == vertices(7).tobytes()
        assert vertices(7).tobytes() != vertices(8).tobytes()
