"""Coefficient-layer outputs pinned bit for bit as float hex.

``tests/data/series_pins.json`` holds, for each shape of ``pinned_corpus()``,
the c_j of ``tau_large_s_series`` at J = 11 in curvature mode and J = 6 in
savo mode, and every field of ``boundary_integrals(curve, 8, derivatives=True)``.
``pinned_corpus()`` includes every shape of the solve corpus, which keeps
its c_j (up to J = 11, on the disk) as frozen inputs in
``tests/data/solve_corpus.json``: these pins alone own the quadrature's
bits.  Running this file as a script rewrites that file from the
installed code:

    PYTHONPATH=src python tests/test_series_pins.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatpade
from conftest import random_fourier_curve
from heatpade.geometry import (
    Disk,
    Ellipse,
    FourierCurve,
    boundary_integrals,
    curve_to_json,
)
from heatpade.heat_content import tau_large_s_series

PINS = Path(__file__).parent / "data" / "series_pins.json"
# numpy's AVX-512 targets; NPY_DISABLE_CPU_FEATURES set to these gives the
# kernels numpy runs on an x86 CPU without AVX-512.
NO_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def pinned_corpus():
    rng = np.random.default_rng(23)
    corpus_rng = np.random.default_rng(7)
    return [
        Disk(R=1.3),
        *(Ellipse(b=1.0, eps=eps) for eps in (0.2, 0.5, 0.9, 0.95)),
        *(random_fourier_curve(rng) for _ in range(6)),
        # c0 - S = 0 lies below the rounding margin: positivity is sampled.
        FourierCurve((1.0, 0.5), (0.5,)),
        # The solve corpus's shapes that the ones above miss.
        Disk(),
        *(Ellipse(b=1.0, eps=eps) for eps in (0.4, 0.6, 0.8)),
        *(random_fourier_curve(corpus_rng) for _ in range(6)),
    ]


def record(curve):
    """The pinned outputs of one shape, every float as ``float.hex``."""
    b = boundary_integrals(curve, 8, derivatives=True)
    return {
        "shape": curve_to_json(curve),
        "curvature": [v.hex() for v in tau_large_s_series(curve, 11, "curvature").c],
        "savo": [v.hex() for v in tau_large_s_series(curve, 6, "savo").c],
        "integrals": {
            "perimeter": b.perimeter.hex(),
            "area": b.area.hex(),
            "powers": [v.hex() for v in b.powers],
            "kp2": b.kp2.hex(),
            "k_kp2": b.k_kp2.hex(),
            "k2_kpp": b.k2_kpp.hex(),
        },
    }


def _load():
    with open(PINS) as fh:
        return json.load(fh)


def test_every_shape_is_pinned():
    assert len(_load()) == len(pinned_corpus())


@pytest.mark.parametrize("i", range(len(pinned_corpus())))
def test_outputs_are_pinned(i):
    assert record(pinned_corpus()[i]) == _load()[i]


def test_outputs_hold_without_avx512():
    """A child interpreter without numpy's AVX-512 kernels records the same bits.

    The coefficient layer takes no np.power, np.exp or np.log, whose
    kernels numpy picks per CPU at run time and which differ in the last
    bits.  On a host without AVX-512, the child takes the same kernels as
    this process, and this checks nothing new.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    if not set(NO_AVX512) <= set(__cpu_features__):
        pytest.skip("numpy does not know the AVX-512 targets")
    tests = Path(__file__).parent
    src = Path(heatpade.__file__).parent.parent
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(NO_AVX512),
        PYTHONPATH=os.pathsep.join([str(src), str(tests)]),
    )
    code = (
        "import json, test_series_pins as t\n"
        "print(json.dumps([t.record(c) for c in t.pinned_corpus()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [record(c) for c in pinned_corpus()]


if __name__ == "__main__":
    with open(PINS, "w") as fh:
        json.dump([record(c) for c in pinned_corpus()], fh, indent=1)
        fh.write("\n")
