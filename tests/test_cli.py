"""End-to-end command line runs against the shipped scenarios."""

import argparse
import hashlib
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import anisoclusters
from anisoclusters.cli import _build_parser, main
from anisoclusters.optimizer import SolveReport
from anisoclusters.scenario import TASKS

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


# The SHA-256 of each shipped scenario's report and SVG. A change that
# alters a report or an SVG updates its digests here and names the file in
# CHANGES.md.
SHIPPED_DIGESTS = {
    "diagnose-double-bubble.json": (
        "43832ab5c750e3c8ae7ac672d3ca030161c708a0bf65c34dc9c483f2034ecae6",
        "ce484958f2b825fa9cd875e71901966af8cef8eec3b71a718628c4e975eb5709",
    ),
    "fermat-euclidean.json": (
        "b1c88b6b20adfd17ecafa0df21aff2ec3bb950ea8d9ccb2f63417eccb8d192ca",
        "cac40e443335aaf6c0991ac7f70ba6018ac800de2079a9bf3d891cc59f4c8aff",
    ),
    "gaugeprobe-smoothed-l1.json": (
        "94ebacfbde113d11163fc885e67004c41523042e2b0da491c5686f6427fcb9e8",
        "32f498866f777b72912f4e459fed483d6980b8115537fa7d0fad284894b00a11",
    ),
    "perimeter-square-cross.json": (
        "ddafa841ef3919f824ade92c2a8c5d1a6c09287d3f55901fdcaab1ae7c0fc1b0",
        "ed1407b7995f6308193ba61c8374520789f9786d38e1637526ef1fc332eb3ec5",
    ),
    "slices-cross-maxnorm.json": (
        "fc2d3e977de9bae1593ac3806c648a71995d64d2766ffd251f5603d46e36f1a4",
        "c70aae570edd32c8c52da1482653b1ff97250e7609c670f7a397e5fc34d70548",
    ),
    "slices-five-radii.json": (
        "fb064cfd8bb8f9e625917d1493200427876b6eb735a68660b7054376dcf52ee0",
        "59da151054d2824d8043e3f22f7f90414772e7ec2da2020ee8087b73afc02b44",
    ),
    "solve-disk.json": (
        "05bc7ac40816960b2591d3d1e52060a13d06003ac8cb0595e99a88a94ea893bb",
        "c1a21647cc155677082135e53ed5f3ff95a649f834ffe30a98f3081ca977a7f6",
    ),
    "solve-double-bubble.json": (
        "2db90d15e374c303b3034054fee287a3797158f849cd8706baa6ab6ab780e6cd",
        "b6038cf2f76a567a1b91001bec3f2d6d28a95c720cf7c7f7b18e465fb6d31aab",
    ),
    "solve-square-cross.json": (
        "2173ff9de4150bab0ba9c1535fff934b69f476e27edd634c993751ba69b01e08",
        "e4b132ecb094915f9bfa6c88ba4e0a929782c340d89f4bae28a11295463ce69a",
    ),
    "triples-euclidean.json": (
        "42cac745fae6cc38770cc145b7e94efab0344f5f0071f5bbe42101983d42cbf2",
        "1801dee0c2cee21b2ff40db21727fe60eacf9f58ff52e21fbc971b3c56871845",
    ),
    "triples-lp-2.json": (
        "e60e71a2cdd97ab490118743ae51f39a5dcaebe56ddfe99ff405e0beaeec0381",
        "1801dee0c2cee21b2ff40db21727fe60eacf9f58ff52e21fbc971b3c56871845",
    ),
    "triples-shifted-disk.json": (
        "be8828d109cd9123c00ed1774cdce08dc9e703404495bd59594831c7283c4953",
        "bfa2863725fbde674b87254ccfd1bc6e02b6856fde4e3356f2cb555224b918c7",
    ),
}


def run(task, scenario, out, *extra):
    return main([task, "--scenario", str(SCENARIO_DIR / scenario), "--out", str(out), *extra])


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """The output directory of a shipped scenario's run with --svg, which
    must exit 0. Each scenario runs once, on first use, for all the tests of
    this module."""
    dirs = {}

    def out_dir(scenario):
        if scenario not in dirs:
            out = tmp_path_factory.mktemp(Path(scenario).stem)
            task = json.loads((SCENARIO_DIR / scenario).read_text())["task"]
            assert run(task, scenario, out, "--svg") == 0
            dirs[scenario] = out
        return dirs[scenario]

    return out_dir


def read_report(out_dir, scenario):
    raw = json.loads((SCENARIO_DIR / scenario).read_text())
    name = raw.get("out", {}).get("report", f"{raw['task']}.json")
    return json.loads((Path(out_dir) / name).read_text())


class TestFastScenarios:
    @pytest.mark.parametrize("task,scenario", FAST_SCENARIOS, ids=lambda v: v)
    def test_runs_clean(self, shipped, task, scenario):
        rep = read_report(shipped(scenario), scenario)
        assert rep["schema"] == "anisoclusters-report"
        assert rep["version"] == 1
        assert rep["task"] == task
        assert rep["scenario"] == scenario
        assert "seed" not in rep
        assert isinstance(rep["result"], dict)

    @pytest.mark.parametrize("task,scenario", FAST_SCENARIOS, ids=lambda v: v)
    def test_reports_match_json_schema(self, shipped, task, scenario):
        import jsonschema

        schema = json.loads(REPORT_SCHEMA_PATH.read_text())
        jsonschema.validate(read_report(shipped(scenario), scenario), schema)

    @pytest.mark.parametrize(
        "scenario", ["solve-disk.json", "solve-double-bubble.json", "solve-square-cross.json"]
    )
    def test_solve_results_hold_the_report_fields_only(self, shipped, scenario):
        # one start per solve: no starts list and no index of a champion
        result = read_report(shipped(scenario), scenario)["result"]
        assert set(result) == {f.name for f in fields(SolveReport)}
        assert not {"starts", "start_index"} & set(result)

    @pytest.mark.parametrize("scenario", ["solve-disk.json", "solve-square-cross.json"])
    def test_shipped_solves_never_resample_mid_descent(self, shipped, scenario):
        assert read_report(shipped(scenario), scenario)["result"]["resamples"] == 0

    @pytest.mark.parametrize("scenario", sorted(SHIPPED_DIGESTS))
    def test_reports_and_svgs_match_their_pinned_digests(self, shipped, scenario):
        out = shipped(scenario)
        report, svg = sorted(out.iterdir(), key=lambda f: f.suffix != ".json")
        assert (report.suffix, svg.suffix) == (".json", ".svg")
        got = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (report, svg))
        assert got == SHIPPED_DIGESTS[scenario]

    def test_every_shipped_scenario_is_pinned(self):
        assert sorted(SHIPPED_DIGESTS) == sorted(p.name for p in SCENARIO_DIR.glob("*.json"))

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


class TestSectorColors:
    def test_modes_from_sector_colors(self, tmp_path):
        # a fermat scenario may give its sector colors instead of its
        # modes: the two arcs next to the white sector become one-sided
        raw = json.loads((SCENARIO_DIR / "fermat-euclidean.json").read_text())
        del raw["fermat"]["modes"]
        raw["fermat"]["colors"] = [1, 2, 0]
        p = tmp_path / "colors.json"
        p.write_text(json.dumps(raw))
        assert main(["fermat", "--scenario", str(p), "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "fermat.json").read_text())["result"]
        assert result["modes"] == ["in", "sym", "out"]
        expect = anisoclusters.fermat_point(
            anisoclusters.EuclideanGauge(), *raw["fermat"]["terminals"], modes=("in", "sym", "out")
        )
        assert result["point"] == pytest.approx(expect.point.tolist(), abs=1e-9)


SCENARIO_OF_TASK = dict(FAST_SCENARIOS)


class TestFailureModes:
    @pytest.mark.parametrize("task", TASKS)
    def test_retired_seed_flag_is_a_usage_error(self, task, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(task, SCENARIO_OF_TASK[task], tmp_path, "--seed", "3")
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_every_subcommand_takes_the_same_four_flags(self):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(TASKS)
        for name, sp in sub.choices.items():
            flags = {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == {"--scenario", "--out", "--svg", "--verbose"}, name

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
