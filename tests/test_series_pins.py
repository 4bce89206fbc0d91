"""Coefficient-layer outputs pinned bit for bit as float hex.

``tests/data/series_pins.json`` holds, for each shape of ``pinned_corpus()``,
the c_j of ``tau_large_s_series`` at J = 9 in curvature mode and J = 6 in
savo mode, and every field of ``boundary_integrals(curve, 8, derivatives=True)``.
Running this file as a script rewrites that file from the installed code:

    PYTHONPATH=src python tests/test_series_pins.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

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


def pinned_corpus():
    rng = np.random.default_rng(23)
    return [
        Disk(R=1.3),
        *(Ellipse(b=1.0, eps=eps) for eps in (0.2, 0.5, 0.9, 0.95)),
        *(random_fourier_curve(rng) for _ in range(6)),
        # c0 - S = 0 lies below the rounding margin: positivity is sampled.
        FourierCurve((1.0, 0.5), (0.5,)),
    ]


def record(curve):
    """The pinned outputs of one shape, every float as ``float.hex``."""
    b = boundary_integrals(curve, 8, derivatives=True)
    return {
        "shape": curve_to_json(curve),
        "curvature": [v.hex() for v in tau_large_s_series(curve, 9, "curvature").c],
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


if __name__ == "__main__":
    with open(PINS, "w") as fh:
        json.dump([record(c) for c in pinned_corpus()], fh, indent=1)
        fh.write("\n")
