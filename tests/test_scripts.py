"""Smoke tests: each experiment script runs to completion and prints a table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, extra",
    [
        ("pole_scaling.py", []),
        ("thermal_sweep.py", []),
        ("trajectory_demo.py", ["--t-final", "2", "-o", "{tmp}/path.csv"]),
    ],
)
def test_script_runs(script, extra, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    args = [a.format(tmp=tmp_path) for a in extra]
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    if script == "trajectory_demo.py":
        assert (tmp_path / "path.csv").read_text().startswith("t,q1,p1,q2,p2")
