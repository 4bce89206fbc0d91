"""The runtime needs numpy alone.

Nothing in the package imports scipy or mpmath, which the tests alone use
as references: blocking either changes no output, and no path loads them
when they are installed.  Each check runs in a fresh interpreter, since
the test process itself has imported both long before.
"""

import os
import subprocess
import sys

import heatpade

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
        "from heatpade.disk_exact import survival_disk, tau_disk\n"
        "from heatpade.geometry import Disk, Ellipse, FourierCurve\n"
        "from heatpade.heat_content import tau_large_s_series\n"
        "from heatpade.mc_oracle import McConfig, simulate_survival\n"
        "from heatpade.pade import ladder, prony_moments\n"
        "from heatpade.series import maclaurin_tau_disk\n"
        "for curve in (FourierCurve((1.0, 0.1), (0.05,)), Ellipse(b=1.0, eps=0.5)):\n"
        "    tau_large_s_series(curve, 6, 'curvature')\n"
        "    tau_large_s_series(curve, 6, 'savo')\n"
        "ladder(tau_large_s_series(Disk(), 4), 2)\n"
        "simulate_survival(Ellipse(b=1.0, eps=0.5), McConfig(walkers=8, dt=1e-3, t_grid=(0.01,)))\n"
        "heatpade.cli._environment()\n"
        "survival_disk(0.1)\n"
        "survival_disk(1e-3)\n"
        "tau_disk(0.5), tau_disk(50.0)\n"
        "prony_moments(maclaurin_tau_disk(1, 5), 3)\n"
        "heatpade.cli.main(['table1', '--n-max', '1', '--out', os.devnull])\n"
        + _LOADED
    )
    assert _fresh(code).strip() == "[]"


def test_cli_and_prony_run_without_scipy():
    # Every subcommand, with the exact disk tau on both sides of the seam
    # x0 = 30 of its continued fraction, and the moment estimator.
    disk, ellipse = '{"kind":"disk","R":1.0}', '{"kind":"ellipse","b":1.0,"eps":0.5}'
    argvs = [
        ["coeffs", "--shape", ellipse, "--j-max", "6"],
        ["survival", "--shape", disk, "--times", "0.001,0.01,0.1"],
        ["survival", "--shape", ellipse, "--times", "0.01", "--mode", "savo"],
        ["tau", "--shape", disk, "--s", "0.5,29.9,30.1,1e4", "--method", "exact"],
        ["tau", "--shape", ellipse, "--s", "5,50"],
        ["pade", "--shape", disk, "--n", "2"],
        ["lambda1", "--shape", ellipse, "--n-max", "3", "--mode", "savo"],
        ["sweep", "--eps", "0.2,0.4", "--n", "2"],
        ["table1", "--n-max", "3"],
        ["mc", "--shape", disk, "--walkers", "50", "--dt", "1e-3", "--times", "0.01,0.05"],
    ]
    run = (
        "from heatpade.cli import main\n"
        "from heatpade.pade import prony_moments\n"
        "from heatpade.series import maclaurin_tau_disk\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(prony_moments(maclaurin_tau_disk(1, 5), 3))\n"
    )
    blocked = _fresh("import sys\nsys.modules['scipy'] = None\n" + run)
    assert blocked and blocked == _fresh(run)


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
