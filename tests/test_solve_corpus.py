"""Solver outputs pinned bit for bit as float hex.

``tests/data/solve_corpus.json`` holds, for each case of ``corpus()`` and
each order n, every accepted (p, q) of ``solve_interpolation`` as float
hex, or its ``NoSolutionFound`` message, and the index of the solution
``select_solution`` picks, or its message.  Each case also holds what
``ladder`` gives up to its highest order: the selected (p, q) of every
order, or the message it raises.  Running this file as a script rewrites
that file from the installed code:

    PYTHONPATH=src python tests/test_solve_corpus.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_fourier_curve
from heatpade.errors import NoSolutionFound
from heatpade.geometry import Disk, Ellipse, curve_to_json
from heatpade.heat_content import tau_large_s_series
from heatpade.pade import ladder, select_solution, solve_interpolation

CORPUS = Path(__file__).parent / "data" / "solve_corpus.json"


def corpus():
    """(curve, mode, J, n_max) for every pinned case."""
    rng = np.random.default_rng(7)
    ellipses = [Ellipse(b=1.0, eps=eps) for eps in (0.2, 0.4, 0.6, 0.8, 0.9)]
    return [
        (Disk(), "curvature", 11, 9),
        *((e, "curvature", 9, 7) for e in ellipses),
        *((e, "savo", 6, 4) for e in ellipses),
        *((random_fourier_curve(rng), "curvature", 8, 6) for _ in range(6)),
    ]


def _row(sol):
    a = sol.approximant
    return {"p": [v.hex() for v in a.p], "q": [v.hex() for v in a.q]}


def record(curve, mode, J, n_max):
    """The pinned outputs of one case."""
    c = tau_large_s_series(curve, J, mode)
    orders = []
    for n in range(1, n_max + 1):
        try:
            sols = solve_interpolation(c, n)
        except NoSolutionFound as exc:
            orders.append({"error": str(exc)})
            continue
        try:
            selected = [s.approximant for s in sols].index(select_solution(sols).approximant)
        except NoSolutionFound as exc:
            selected = str(exc)
        orders.append({"accepted": [_row(s) for s in sols], "selected": selected})
    try:
        rows = [_row(s) for s in ladder(c, n_max)]
    except NoSolutionFound as exc:
        rows = str(exc)
    return {
        "shape": curve_to_json(curve),
        "mode": mode,
        "J": J,
        "orders": orders,
        "ladder": rows,
    }


def _load():
    with open(CORPUS) as fh:
        return json.load(fh)


def test_every_case_is_pinned():
    assert len(_load()) == len(corpus())


@pytest.mark.parametrize("i", range(len(corpus())))
def test_outputs_are_pinned(i):
    assert record(*corpus()[i]) == _load()[i]


if __name__ == "__main__":
    with open(CORPUS, "w") as fh:
        json.dump([record(*case) for case in corpus()], fh, indent=1)
        fh.write("\n")
