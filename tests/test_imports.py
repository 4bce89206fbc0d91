"""scipy and mpmath stay off the start-up path.

Only ``bessel_ratio`` and ``prony_moments`` load scipy, and nothing in
the package loads mpmath, which the tests alone use.  Each check runs in a
fresh interpreter, since the test process itself has imported scipy long
before.
"""

import json
import os
import subprocess
import sys

import heatpade
from heatpade.pade import prony_moments
from heatpade.series import bessel_ratio, j0_zero, maclaurin_tau_disk

_SRC = os.path.dirname(os.path.dirname(heatpade.__file__))


def _fresh(code):
    """Run ``code`` in a new interpreter importing heatpade from this tree; returns stdout."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


_LOADED = "print(sorted(k for k in sys.modules if k.split('.')[0] in ('scipy', 'mpmath')))\n"


def test_no_scipy_on_series_ladder_and_mc_paths():
    code = (
        "import os, sys\n"
        "import heatpade.cli\n"
        "from heatpade.disk_exact import survival_disk\n"
        "from heatpade.geometry import Disk, Ellipse, FourierCurve\n"
        "from heatpade.heat_content import tau_large_s_series\n"
        "from heatpade.mc_oracle import McConfig, simulate_survival\n"
        "from heatpade.pade import ladder\n"
        "for curve in (FourierCurve((1.0, 0.1), (0.05,)), Ellipse(b=1.0, eps=0.5)):\n"
        "    tau_large_s_series(curve, 6, 'curvature')\n"
        "    tau_large_s_series(curve, 6, 'savo')\n"
        "ladder(tau_large_s_series(Disk(), 4), 2)\n"
        "simulate_survival(Ellipse(b=1.0, eps=0.5), McConfig(walkers=8, dt=1e-3, t_grid=(0.01,)))\n"
        "heatpade.cli._environment()\n"
        "survival_disk(0.1)\n"
        "survival_disk(1e-3)\n"
        "heatpade.cli.main(['table1', '--n-max', '1', '--out', os.devnull])\n"
        + _LOADED
    )
    assert _fresh(code).strip() == "[]"


def test_scipy_helpers_work_in_a_fresh_process():
    code = (
        "import json, sys\n"
        "from heatpade.pade import prony_moments\n"
        "from heatpade.series import bessel_ratio, j0_zero, maclaurin_tau_disk\n"
        + _LOADED
        + "print(json.dumps([bessel_ratio(2.5), [j0_zero(k) for k in range(1, 4)],"
        " prony_moments(maclaurin_tau_disk(1, 5), 3)]))\n"
    )
    loaded, values = _fresh(code).splitlines()
    assert loaded == "[]"
    expected = [
        bessel_ratio(2.5),
        [j0_zero(k) for k in range(1, 4)],
        [list(p) for p in prony_moments(maclaurin_tau_disk(1, 5), 3)],
    ]
    assert json.loads(values) == expected


def test_cli_runs_without_mpmath():
    # The solver's polish is exact rational arithmetic: blocking mpmath
    # must not change a byte of the output.
    ellipse = '{"kind":"ellipse","b":1.0,"eps":0.5}'
    for argv in (
        ["table1", "--n-max", "7"],
        ["lambda1", "--shape", ellipse, "--n-max", "4", "--mode", "savo"],
    ):
        run = f"from heatpade.cli import main\nmain({argv!r})\n"
        blocked = _fresh("import sys\nsys.modules['mpmath'] = None\n" + run)
        assert blocked and blocked == _fresh(run)
