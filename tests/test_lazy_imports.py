"""What a process imports: the package's lazy exports, and the modules each
shipped scenario's command line run loads.

The package resolves its public names on first access, and the command
line runner imports only its task's module, so a fermat run compiles no
solver and a perimeter run no junction code. The module sets are read in
fresh interpreters, since this process has imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import anisoclusters as ac
from anisoclusters import cli, cluster, optimizer, scenario, steiner, svg

SRC = Path(ac.__file__).resolve().parent.parent
SCENARIO_DIR = SRC.parent / "scenarios"

OPTIMIZER, SLICES, STEINER = "anisoclusters.optimizer", "anisoclusters.slices", "anisoclusters.steiner"

# task: the modules its run must not load
NOT_LOADED = {
    "fermat": {OPTIMIZER, SLICES},
    "triples": {OPTIMIZER, SLICES},
    "slices": {OPTIMIZER, STEINER},
    "perimeter": {OPTIMIZER, SLICES, STEINER, "numpy.random"},
    "gaugeprobe": {OPTIMIZER, SLICES, STEINER, "numpy.random"},
    "solve": {SLICES},
    "diagnose": {SLICES},
}


def _loaded(code):
    """The sys.modules names after code runs in a fresh interpreter."""
    prelude = f"import json, sys; sys.path.insert(0, {str(SRC)!r})"
    code = f"{prelude}; {code}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_bare_import_loads_no_submodule():
    loaded = _loaded("import anisoclusters")
    assert sorted(m for m in loaded if m.startswith("anisoclusters.")) == []


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_a_scenario_run_loads_only_its_task_modules(path, tmp_path):
    task = json.loads(path.read_text())["task"]
    argv = [task, "--scenario", str(path), "--out", str(tmp_path), "--svg"]
    loaded = _loaded(f"from anisoclusters.cli import main; assert main({argv!r}) == 0")
    assert "anisoclusters.cli" in loaded
    assert sorted(NOT_LOADED[task] & loaded) == []


def test_every_task_has_its_module_set():
    assert set(NOT_LOADED) == set(scenario.TASKS)


def test_each_export_is_its_defining_modules_object():
    for name in ac.__all__:
        if name == "__version__":
            continue
        obj = getattr(ac, name)
        assert obj.__module__.startswith("anisoclusters."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert ac.minimize is optimizer.minimize
    assert ac.interface_sum is cluster.interface_sum is optimizer.interface_sum


def test_star_import_binds_every_name():
    namespace = {}
    exec("from anisoclusters import *", namespace)
    assert sorted(set(ac.__all__) - set(namespace)) == []
    assert namespace["__version__"] == ac.__version__


def test_dir_covers_all():
    assert sorted(set(ac.__all__) - set(dir(ac))) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ac.no_such_name
    with pytest.raises(ImportError):
        exec("from anisoclusters import no_such_name", {})
    assert not hasattr(cli, "no_such_name")


def test_the_cli_serves_its_task_functions_from_their_modules():
    # in a fresh interpreter: installing and removing the benchmark's hooks
    # (test_bench_hooks) leaves a wrapper in cli's namespace
    code = (
        "import anisoclusters.cli as cli; "
        "assert all(getattr(cli, n) is getattr(sys.modules['anisoclusters.' + m], n) for n, m in ["
        "('minimize', 'optimizer'), ('steiner_diagnose', 'optimizer'), ('improve', 'slices'), "
        "('fermat_point', 'steiner'), ('admissible_pairs', 'steiner')])"
    )
    assert {OPTIMIZER, SLICES, STEINER} <= _loaded(code)


def test_mode_sides_has_one_home():
    assert steiner.MODE_SIDES is cluster.MODE_SIDES
    assert svg.MODE_SIDES is cluster.MODE_SIDES
