"""End-to-end command line runs against the shipped scenarios."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import anisoclusters
from anisoclusters.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
REPORT_SCHEMA_PATH = (
    Path(__file__).resolve().parent.parent
    / "src"
    / "anisoclusters"
    / "schemas"
    / "report.schema.json"
)

FAST_SCENARIOS = [
    ("fermat", "fermat-euclidean.json"),
    ("triples", "triples-lp-2.json"),
    ("slices", "slices-five-radii.json"),
    ("slices", "slices-cross-maxnorm.json"),
    ("perimeter", "perimeter-square-cross.json"),
    ("solve", "solve-disk.json"),
    ("diagnose", "diagnose-double-bubble.json"),
    ("gaugeprobe", "gaugeprobe-smoothed-l1.json"),
]


def run(task, scenario, out, *extra):
    return main([task, "--scenario", str(SCENARIO_DIR / scenario), "--out", str(out), *extra])


def read_report(out_dir, scenario):
    raw = json.loads((SCENARIO_DIR / scenario).read_text())
    name = raw.get("out", {}).get("report", f"{raw['task']}.json")
    return json.loads((Path(out_dir) / name).read_text())


class TestFastScenarios:
    @pytest.mark.parametrize("task,scenario", FAST_SCENARIOS, ids=lambda v: v)
    def test_runs_clean(self, tmp_path, task, scenario):
        assert run(task, scenario, tmp_path) == 0
        rep = read_report(tmp_path, scenario)
        assert rep["schema"] == "anisoclusters-report"
        assert rep["version"] == 1
        assert rep["task"] == task
        assert rep["scenario"] == scenario
        assert isinstance(rep["seed"], int)
        assert isinstance(rep["result"], dict)

    @pytest.mark.parametrize("task,scenario", FAST_SCENARIOS, ids=lambda v: v)
    def test_reports_match_json_schema(self, tmp_path, task, scenario):
        import jsonschema

        schema = json.loads(REPORT_SCHEMA_PATH.read_text())
        assert run(task, scenario, tmp_path) == 0
        jsonschema.validate(read_report(tmp_path, scenario), schema)

    @pytest.mark.parametrize("scenario", ["solve-disk.json", "solve-square-cross.json"])
    def test_shipped_solves_never_resample_mid_descent(self, tmp_path, scenario):
        assert run("solve", scenario, tmp_path) == 0
        assert read_report(tmp_path, scenario)["result"]["resamples"] == 0

    def test_perimeter_prices_the_cluster_once(self, tmp_path, monkeypatch):
        # perimeter, interface_perimeter and edge_perimeters are sums of one
        # per-edge breakdown
        calls = []
        price = anisoclusters.cluster.segment_weights
        monkeypatch.setattr(
            anisoclusters.cluster, "segment_weights", lambda *args: calls.append(1) or price(*args)
        )
        assert run("perimeter", "perimeter-square-cross.json", tmp_path) == 0
        assert len(calls) == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("triples", "triples-lp-2.json", a) == 0
        assert run("triples", "triples-lp-2.json", b) == 0
        pa = next(a.glob("*.json"))
        pb = b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


class TestSeedPrecedence:
    def test_cli_seed_wins(self, tmp_path):
        assert run("slices", "slices-five-radii.json", tmp_path, "--seed", "42") == 0
        assert read_report(tmp_path, "slices-five-radii.json")["seed"] == 42

    def test_default_seed_is_zero(self, tmp_path):
        assert run("fermat", "fermat-euclidean.json", tmp_path) == 0
        assert read_report(tmp_path, "fermat-euclidean.json")["seed"] == 0

    def test_scenario_seed_used_when_no_flag(self, tmp_path):
        scn = json.loads((SCENARIO_DIR / "fermat-euclidean.json").read_text())
        scn["seed"] = 9
        p = tmp_path / "seeded.json"
        p.write_text(json.dumps(scn))
        assert main(["fermat", "--scenario", str(p), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "fermat.json").read_text())
        assert rep["seed"] == 9

    def test_negative_cli_seed_rejected(self, tmp_path, capsys):
        code = run("fermat", "fermat-euclidean.json", tmp_path, "--seed", "-3")
        assert code == 2
        assert "seed" in capsys.readouterr().err


class TestFailureModes:
    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main(["fermat", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_task_subcommand_mismatch(self, tmp_path, capsys):
        code = run("fermat", "triples-lp-2.json", tmp_path)
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_unknown_key_prints_dotted_path(self, tmp_path, capsys):
        raw = json.loads((SCENARIO_DIR / "fermat-euclidean.json").read_text())
        raw["fermat"]["tol"] = 1e-9
        raw["fermat"]["tolerance"] = 1e-9
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(raw))
        code = main(["fermat", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 2
        assert "scenario.fermat.tolerance" in capsys.readouterr().err

    def test_nan_target_exits_2_before_solving(self, tmp_path, capsys):
        raw = json.loads((SCENARIO_DIR / "solve-disk.json").read_text())
        raw["solve"]["targets"] = [float("nan")]
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(raw))
        assert "NaN" in p.read_text()
        code = main(["solve", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 2
        assert "scenario.solve.targets[0]" in capsys.readouterr().err
        assert not (tmp_path / "solve.json").exists()

    def test_unconverged_solve_exits_3_but_writes(self, tmp_path):
        raw = json.loads((SCENARIO_DIR / "solve-disk.json").read_text())
        raw.setdefault("solve", {}).setdefault("options", {})["max_outer"] = 1
        raw["solve"]["options"]["grad_tol"] = 1e-14
        p = tmp_path / "hopeless.json"
        p.write_text(json.dumps(raw))
        code = main(["solve", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 3
        rep = json.loads((tmp_path / "solve.json").read_text())
        assert rep["result"]["success"] is False


class TestArtifacts:
    def test_svg_flag(self, tmp_path):
        assert run("fermat", "fermat-euclidean.json", tmp_path, "--svg") == 0
        svgs = list(tmp_path.glob("*.svg"))
        assert len(svgs) == 1
        text = svgs[0].read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")

    def test_out_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANISOCLUSTERS_OUT", str(tmp_path))
        assert main(
            ["fermat", "--scenario", str(SCENARIO_DIR / "fermat-euclidean.json")]
        ) == 0
        assert (tmp_path / "fermat.json").exists()

    def test_verbose_prints_headline_numbers(self, tmp_path, capsys):
        assert run("slices", "slices-five-radii.json", tmp_path, "--verbose") == 0
        out = capsys.readouterr().out
        assert "delta:" in out
        assert "wrote" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "anisoclusters" in capsys.readouterr().out


def test_package_import_loads_no_scipy():
    # scipy is a test oracle only; importing it would dominate CLI start-up
    src = str(Path(anisoclusters.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import anisoclusters; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
