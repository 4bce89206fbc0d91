"""Smoke tests: every script in ``scripts/`` runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatpade

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("mc_convergence.py", ["--walkers", "200", "--dts", "4e-4", "--t", "0.01"]),
    ],
)
def test_script_runs(script, args):
    src = os.path.dirname(os.path.dirname(heatpade.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
