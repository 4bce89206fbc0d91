"""Solver outputs pinned bit for bit as float hex.

``tests/data/solve_corpus.json`` holds one entry per case.  Its inputs are
frozen: the coefficients c_1..c_J as float hex, taken once from
``tau_large_s_series`` of the shape, mode and J stored next to them, and
the highest order ``n_max``.  Its outputs are, for each order n <= n_max,
every accepted (p, q) of ``solve_interpolation`` as float hex with its
lambda1, or its ``NoSolutionFound`` message, and the index of the
solution ``select_solution`` picks, or its message; and what ``ladder``
gives up to n_max: the selected row of every order, or the message it
raises.  The solver reads the committed c alone, so no change to the
quadrature or to numpy's kernels can move these pins; the coefficient
layer has its own pins in ``tests/test_series_pins.py``.  Running this
file as a script rewrites every case's outputs from its committed inputs
with the installed solver; it never recomputes c:

    PYTHONPATH=src python tests/test_solve_corpus.py
"""

import json
from pathlib import Path

import pytest

from heatpade.errors import NoSolutionFound
from heatpade.heat_content import LargeSSeries
from heatpade.pade import ladder, select_solution, solve_interpolation

CORPUS = Path(__file__).parent / "data" / "solve_corpus.json"
INPUTS = ("shape", "mode", "J", "n_max", "c")


def _row(sol):
    a = sol.approximant
    return {
        "p": [v.hex() for v in a.p],
        "q": [v.hex() for v in a.q],
        "lambda1": None if sol.lambda1 is None else sol.lambda1.hex(),
    }


def record(case):
    """A case's inputs, and the outputs the installed solver gives on its c."""
    c = LargeSSeries([float.fromhex(v) for v in case["c"]])
    n_max = case["n_max"]
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
    return {**{k: case[k] for k in INPUTS}, "orders": orders, "ladder": rows}


def _load():
    with open(CORPUS) as fh:
        return json.load(fh)


def test_every_case_is_pinned():
    cases = _load()
    assert len(cases) == 17
    for case in cases:
        assert len(case["c"]) == case["J"]
        assert len(case["orders"]) == case["n_max"]


@pytest.mark.parametrize("i", range(len(_load())))
def test_outputs_are_pinned(i):
    case = _load()[i]
    assert record(case) == case


if __name__ == "__main__":
    cases = [record(case) for case in _load()]
    with open(CORPUS, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
