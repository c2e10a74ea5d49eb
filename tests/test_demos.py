"""Every demo script runs to completion against the package under src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import packbound

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run(demo: Path) -> subprocess.CompletedProcess:
    src = str(Path(packbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=demo.parent,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = run(demo)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_bounds_table_shows_each_proven_threshold():
    out = run(next(path for path in DEMOS if path.name == "bounds_table.py")).stdout
    assert "root of 256R^3 + 9264R^2 + 78669R - 167589" in out
    assert "root of R^2 - 3" in out
    assert out.count(", proven") == 5
