import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_out():
    proc = _run_python("-c", "import sys, ddgates.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_noise_and_calibration_demo_runs():
    proc = _run_python("demos/02_noise_and_calibration.py")
    assert proc.returncode == 0, proc.stderr
    assert "fitted T2*   =     370.0 us" in proc.stdout
    assert "fitted T2    =     750.0 us" in proc.stdout


_STAR_SCRIPT = """
import importlib, sys
import ddgates
assert "numpy" not in sys.modules
names = {}
exec("from ddgates import *", names)
del names["__builtins__"]
assert sorted(names) == ddgates.__all__, sorted(names)
for name, obj in names.items():
    assert obj is getattr(importlib.import_module("ddgates." + ddgates._MODULE_OF[name]), name), name
assert set(ddgates.__all__) <= set(dir(ddgates))
"""


def test_package_import_leaves_numpy_out_and_star_binds_each_submodule_object():
    # Every public name comes from its submodule on first use, so `import ddgates` loads no engine.
    proc = _run_python("-c", _STAR_SCRIPT)
    assert proc.returncode == 0, proc.stderr


# The layers of src/ddgates, lowest first: a module imports only modules of a lower layer.
LAYERS = (("ou",), ("noise",), ("core",), ("config",), ("simulate",), ("tomography",), ("compiler",), ("harness",),
          ("cli",))


def test_every_relative_import_points_down_the_layers():
    rank = {module: i for i, layer in enumerate(LAYERS) for module in layer}
    paths = [p for p in sorted((ROOT / "src" / "ddgates").glob("*.py")) if p.stem not in ("__init__", "__main__")]
    assert sorted(p.stem for p in paths) == sorted(rank)  # a new module takes its place in LAYERS
    upward = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):  # imports inside functions too
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module.partition(".")[0]] if node.module else [alias.name for alias in node.names]
                upward += [f"{path.stem}:{node.lineno} imports {t}" for t in targets if rank[t] >= rank[path.stem]]
    assert not upward
