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
