"""scipy stays off the start-up path: only the Bessel helpers and ``prony_moments`` load it.

Each check runs in a fresh interpreter, since the test process itself has
imported scipy long before.
"""

import json
import os
import subprocess
import sys

import heatpade
from heatpade.disk_exact import tau_disk_local
from heatpade.pade import prony_moments
from heatpade.series import bessel_ratio, j0_zeros, maclaurin_tau_disk

_SRC = os.path.dirname(os.path.dirname(heatpade.__file__))


def _fresh(code):
    """Run ``code`` in a new interpreter importing heatpade from this tree; returns stdout."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


_SCIPY_LOADED = "print(sorted(k for k in sys.modules if k.startswith('scipy')))\n"


def test_no_scipy_on_series_ladder_and_mc_paths():
    code = (
        "import sys\n"
        "import heatpade.cli\n"
        "from heatpade.geometry import Disk, Ellipse, FourierCurve\n"
        "from heatpade.heat_content import tau_large_s_series\n"
        "from heatpade.mc_oracle import McConfig, simulate_survival\n"
        "from heatpade.pade import ladder\n"
        "for curve in (FourierCurve((1.0, 0.1), (0.05,)), Ellipse(b=1.0, eps=0.5)):\n"
        "    tau_large_s_series(curve, 6, 'curvature')\n"
        "    tau_large_s_series(curve, 6, 'savo')\n"
        "ladder(tau_large_s_series(Disk(), 4), 2)\n"
        "simulate_survival(Ellipse(b=1.0, eps=0.5), McConfig(walkers=8, dt=1e-3, t_grid=(0.01,)))\n"
        + _SCIPY_LOADED
    )
    assert _fresh(code).strip() == "[]"


def test_scipy_helpers_work_in_a_fresh_process():
    code = (
        "import json, sys\n"
        "from heatpade.disk_exact import tau_disk_local\n"
        "from heatpade.pade import prony_moments\n"
        "from heatpade.series import bessel_ratio, j0_zeros, maclaurin_tau_disk\n"
        + _SCIPY_LOADED
        + "print(json.dumps([bessel_ratio(2.5), j0_zeros(3), tau_disk_local(3.0, 0.4),"
        " prony_moments(maclaurin_tau_disk(1, 5), 3)]))\n"
    )
    loaded, values = _fresh(code).splitlines()
    assert loaded == "[]"
    expected = [
        bessel_ratio(2.5),
        j0_zeros(3),
        tau_disk_local(3.0, 0.4),
        [list(p) for p in prony_moments(maclaurin_tau_disk(1, 5), 3)],
    ]
    assert json.loads(values) == expected
