"""Spans around calls into heatpade's layers, recorded from outside the program.

``instrument`` swaps each layer entry point for a wrapper that records a
span (name, start, end, parent, counts) while the block runs, and puts the
originals back afterwards.  Spans stay in memory until ``write_spans``.
The layer modules are imported here, before any timed section, because
importing scipy.optimize alone takes a fifth of a second.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import scipy.optimize
from mpmath import mp

from heatpade import geometry, heat_content, mc_oracle, pade
from heatpade.heat_content import ExpansionMode


class Tracer:
    """The spans of one run, each ``[name, start, end, parent index, counts]``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def begin(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def end(self, rec, counts=None):
        rec[2] = time.perf_counter()
        self._stack.pop()
        rec[4] = counts

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recorded as a span; ``counts(args, kwargs, result)`` gives its counts."""

        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if counts is not None:
                rec[4] = counts(args, kwargs, out)
            return out

        return traced

    def wrap_quadrature(self, fn):
        """``periodic_quadrature`` recorded with the grid points handed to its integrand."""

        def traced(integrand, *args, **kwargs):
            points = 0

            def counted(phi):
                nonlocal points
                points += len(phi)
                return integrand(phi)

            rec = self.begin("geometry.quad")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.end(rec, {"points": points})

        return traced


def _curve_kind(curve) -> str:
    return type(curve).__name__.lower()


@contextmanager
def instrument(tracer: Tracer):
    """Record spans at every measured layer boundary while the block runs."""

    def series_counts(args, kwargs, out):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else ExpansionMode.CURVATURE_APPROX)
        return {"mode": ExpansionMode(mode).value}

    def contains_counts(args, kwargs, out):
        return {"kind": _curve_kind(args[0]), "points": int(np.size(out))}

    # (owner, attribute, wrapper).  solve_interpolation is looked up in the
    # pade module by ladder, least_squares in scipy.optimize at call time by
    # solve_interpolation, lu_solve on the mpmath context by the polish, and
    # periodic_quadrature in the geometry module by every boundary integral.
    patches = [
        (pade, "ladder", tracer.wrap("pade.ladder", pade.ladder)),
        (
            pade,
            "solve_interpolation",
            tracer.wrap(
                "pade.solve",
                pade.solve_interpolation,
                lambda a, k, out: {"n": a[1] if len(a) > 1 else k["n"], "solutions": len(out)},
            ),
        ),
        (
            scipy.optimize,
            "least_squares",
            tracer.wrap(
                "pade.lm", scipy.optimize.least_squares, lambda a, k, out: {"nfev": out.nfev}
            ),
        ),
        (mp, "lu_solve", tracer.wrap("pade.lu_solve", mp.lu_solve)),
        (
            heat_content,
            "tau_large_s_series",
            tracer.wrap("heat_content.series", heat_content.tau_large_s_series, series_counts),
        ),
        (geometry, "periodic_quadrature", tracer.wrap_quadrature(geometry.periodic_quadrature)),
        (
            geometry.Disk,
            "contains",
            tracer.wrap("geometry.contains", geometry.Disk.contains, contains_counts),
        ),
        (
            geometry.BoundaryCurve,
            "contains",
            tracer.wrap("geometry.contains", geometry.BoundaryCurve.contains, contains_counts),
        ),
        (
            mc_oracle,
            "simulate_survival",
            tracer.wrap(
                "mc_oracle.simulate",
                mc_oracle.simulate_survival,
                lambda a, k, out: {"kind": _curve_kind(a[0]), "walkers": a[1].walkers},
            ),
        ),
    ]
    saved = []
    try:
        for owner, attr, wrapper in patches:
            # An attribute found on the class rather than the object (mp's
            # lu_solve) is restored by deleting the override.
            saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def layer_totals(spans):
    """Per-layer sums from the spans of one traced pass; layers not called read 0."""
    selfs = self_times(spans)
    tot = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    for (name, start, end, _, counts), self_s in zip(spans, selfs):
        dur = end - start
        counts = counts or {}
        if name == "pade.ladder":
            add("pade.ladder_self_s", self_s)
        elif name == "pade.solve":
            add(f"pade.solve_s.n{counts['n']}", dur)
            add(f"pade.solutions.n{counts['n']}", counts["solutions"])
            add("pade.other_s", self_s)
        elif name == "pade.lm":
            add("pade.lm_s", dur)
            add("pade.lm_calls", 1)
            add("pade.lm_nfev", counts["nfev"])
        elif name == "pade.lu_solve":
            add("pade.lu_solve_s", dur)
            add("pade.lu_solve_calls", 1)
        elif name == "heat_content.series":
            add(f"heat_content.series_s.{counts['mode']}", dur)
            add("heat_content.series_self_s", self_s)
        elif name == "geometry.quad":
            add("geometry.quad_calls", 1)
            add("geometry.quad_points", counts["points"])
            add("geometry.quad_s", dur)
        elif name == "geometry.contains":
            add(f"geometry.contains_s.{counts['kind']}", dur)
            add("geometry.contains_points", counts["points"])
        elif name == "mc_oracle.simulate":
            add(f"mc_oracle.simulate_s.{counts['kind']}", dur)
            add(f"mc_oracle.walkers.{counts['kind']}", counts["walkers"])
            add("mc_oracle.self_s", self_s)
    tot["trace.self_sum_s"] = float(sum(selfs))
    return tot


def write_spans(path, tracer: Tracer, header: dict):
    """One JSON line for the run, then one per span, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"run": tracer.run_id, **header}) + "\n")
        for i, (name, start, end, parent, counts) in enumerate(tracer.spans):
            rec = {"run": tracer.run_id, "id": i, "parent": parent, "name": name}
            rec.update(start=start, end=end, **(counts or {}))
            fh.write(json.dumps(rec) + "\n")
