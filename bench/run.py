#!/usr/bin/env python3
"""Benchmark command: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload {ladder,coeffs,mc} --seed N --seconds S --trace {0,1}

Run from the repository root; heatpade is imported from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics, and writes the spans of the traced
pass to ``.bench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

# One BLAS thread: the load stays one single-threaded process, and an idle
# BLAS worker spinning on a second core would be charged to cpu_s.  Set
# before numpy is first imported here or in a set-up probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
# Reference-kernel samples (speed.py) in each gap between rounds, and
# before the first and after the last; inside a round the kernel runs on
# a CPU-time timer.  A set-up probe lasts about 1 CPU s, so it samples
# more often.
GAP_SPEED_SAMPLES = 2
PROBE_INTERVAL_S = 0.1
PROBE_TIMEOUT_S = 60
# The layer self times of the traced pass must account for its wall time
# to within this share; the rest is the benchmark's own loop.
ATTRIBUTION_TOL = 0.02

# workloads and tracing import heatpade, so they are imported inside the
# functions below, after load_program() has put src/ on the path.


def load_program():
    """Put ``src/`` first on the import path; refuse to run without it."""
    if not (SRC / "heatpade" / "__init__.py").is_file():
        raise SystemExit(f"error: heatpade sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import heatpade

    if Path(heatpade.__file__).resolve().parent != SRC / "heatpade":
        raise SystemExit(f"error: imported heatpade from {heatpade.__file__}, not {SRC}")


def metric_specs():
    """name -> unit for the end-to-end and the per-layer metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "heatpade").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, rounds: int, sizes) -> dict:
    """What the result depends on besides the code: versions, machine, inputs."""
    import mpmath
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "sizes": asdict(sizes),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def setup_probe(workload: str, seed: int, seconds: int):
    """The set-up alone, in this fresh process; prints its CPU time and the host slowdown.

    The CPU time counts from the start of the process and leaves out the
    kernel samples, which run every PROBE_INTERVAL_S throughout.
    """
    import speed

    sampler = speed.Sampler(PROBE_INTERVAL_S)
    with sampler.active():
        load_program()
        import workloads

        make_rounds(workloads.WORKLOADS[workload], seed, workloads.Sizes.for_seconds(seconds))
    cpu_s = time.process_time() - sum(sampler.samples)
    samples = sampler.samples + speed.sample(GAP_SPEED_SAMPLES)
    print(json.dumps({"cpu_s": cpu_s, "slowdown": speed.slowdown(samples)}))


def setup_seconds(argv):
    """Set-up probes in fresh processes; medians of (CPU s / slowdown, CPU s, wall s)."""
    norms, cpus, walls = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
            cwd=ROOT,
            check=True,
            timeout=PROBE_TIMEOUT_S,
            stdout=subprocess.PIPE,
            text=True,
        )
        walls.append(time.perf_counter() - t0)
        probe = json.loads(out.stdout.splitlines()[-1])
        cpus.append(probe["cpu_s"])
        norms.append(probe["cpu_s"] / probe["slowdown"])
    return statistics.median(norms), statistics.median(cpus), statistics.median(walls)


def timed_rounds(wl, rounds, instrument=contextlib.nullcontext):
    """Run every round once; returns (outputs per round, per-op seconds, wall s per round)."""
    outputs, op_times, walls = [], [], []
    for inputs in rounds:
        t0 = time.perf_counter()
        with instrument():
            out, times = wl.run(inputs)
        walls.append(time.perf_counter() - t0)
        outputs.append(out)
        op_times += times
    return outputs, op_times, walls


def sampled_rounds(wl, rounds):
    """Run every round once with the kernel sampled in and around it.

    Returns (outputs per round, per-op seconds, CPU s per round, slowdown
    per round, wall s per round).  A round's times leave out the kernel
    samples taken inside it; its slowdown comes from those and the samples
    in the gaps before and after it.
    """
    import speed

    sampler = speed.Sampler()
    outputs, op_times, cpus, slowdowns, walls = [], [], [], [], []
    before = speed.sample(GAP_SPEED_SAMPLES)
    for inputs in rounds:
        n0 = len(sampler.samples)
        c0, t0 = time.process_time(), time.perf_counter()
        with sampler.active():
            out, times = wl.run(inputs)
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        inside = sampler.samples[n0:]
        after = speed.sample(GAP_SPEED_SAMPLES)
        cpus.append(cpu - sum(inside))
        walls.append(wall - sum(inside))
        slowdowns.append(speed.slowdown(before + inside + after))
        before = after
        outputs.append(out)
        op_times += times
    return outputs, op_times, cpus, slowdowns, walls


def end_to_end_metrics(name, checked, times, cpus, slowdowns, walls, setup):
    """The bounded metrics, round CPU times divided by the host's slowdown, and the table-only figures.

    ``setup`` is what ``setup_seconds`` returns.
    """
    import workloads

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s, setup_cpu_s, setup_wall_s = setup
    metrics = {
        "setup_s": setup_s,
        "norm_cpu_s": statistics.median(c / s for c, s in zip(cpus, slowdowns)),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    # Reported alongside, not bounded: the raw times follow the other
    # guests on a shared host, failed_frac is 0 on a healthy run and the
    # others exist on one workload only.
    extra = {
        "cpu_s": (statistics.median(cpus), "s"),
        "host_slowdown": (statistics.median(slowdowns), "1"),
        "wall_s": (statistics.median(walls), "s"),
        "setup_cpu_s": (setup_cpu_s, "s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "failed_frac": (checked.failed / checked.attempted, "1"),
    }
    if name == "ladder":
        extra["im_s_dev_max"] = (checked.extras["im_s_dev_max"], "1")
    if name == "coeffs":
        extra["shape_p50_ms"] = (workloads.op_percentile_ms(times, 50), "ms")
        extra["shape_p95_ms"] = (workloads.op_percentile_ms(times, 95), "ms")
    return metrics, extra


def per_layer_metrics(names, name, checked, times, wall_untraced, wall_traced, spans):
    """Every per-layer metric in ``names``; a layer the workload does not call reads 0."""
    import tracing
    import workloads

    tot = tracing.layer_totals(spans)
    m = {k: tot.get(k, 0.0) for k in names}
    lm_calls = tot.get("pade.lm_calls", 0)
    solutions = sum(tot.get(f"pade.solutions.n{n}", 0) for n in range(1, 5))
    m["pade.solutions_per_start"] = solutions / lm_calls if lm_calls else 0.0
    m["pade.im_s_dev_max"] = checked.extras.get("im_s_dev_max", 0.0)
    m["heat_content.identity_err_max"] = checked.extras.get("identity_err_max", 0.0)
    coeffs = name == "coeffs"
    m["heat_content.shape_p50_ms"] = workloads.op_percentile_ms(times, 50) if coeffs else 0.0
    m["heat_content.shape_p95_ms"] = workloads.op_percentile_ms(times, 95) if coeffs else 0.0
    walkers = 0
    for kind in ("disk", "ellipse"):
        w = tot.get(f"mc_oracle.walkers.{kind}", 0)
        s = tot.get(f"mc_oracle.simulate_s.{kind}", 0.0)
        m[f"mc_oracle.walkers_per_s.{kind}"] = w / s if s else 0.0
        walkers += w
    m["mc_oracle.points_per_walker"] = tot.get("geometry.contains_points", 0) / walkers if walkers else 0.0
    for key, value in checked.extras.items():
        if key.startswith("bias"):
            m[f"mc_oracle.{key}"] = value
    m["trace.wall_s"] = wall_traced
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["trace.attributed_frac"] = tot["trace.self_sum_s"] / wall_traced
    return m


def make_rounds(wl, seed: int, sizes):
    """Inputs of every round, then a warm-up; this is the set-up that setup_s times."""
    rounds = [wl.make(s, sizes) for s in wl.round_seeds(seed)]
    wl.warm(rounds[0])
    return rounds


def measure(name: str, seed: int, sizes, trace: bool, probe_argv):
    """One benchmark run in this process; returns (result dict, report lines)."""
    import workloads

    wl = workloads.WORKLOADS[name]
    env = environment(name, seed, wl.rounds, sizes)
    e2e_units, layer_units = metric_specs()
    setup = None if trace else setup_seconds(probe_argv)
    rounds = make_rounds(wl, seed, sizes)

    if trace:
        outputs, times, walls = timed_rounds(wl, rounds)
    else:
        outputs, times, cpus, slowdowns, walls = sampled_rounds(wl, rounds)
    checked = wl.check(list(zip(rounds, outputs)))
    lines = ["env " + json.dumps(env)]
    lines += [f"FAILED {label}: {msg}" for label, msg in checked.problems]
    correct = checked.failed == 0

    if not trace:
        metrics, extra = end_to_end_metrics(name, checked, times, cpus, slowdowns, walls, setup)
        units = e2e_units
    else:
        # Imported only here: tracing loads scipy.optimize, which an
        # untraced coeffs or mc run never needs and whose memory would
        # show in peak_rss_mb.
        import tracing

        tracer = tracing.Tracer(f"{name}-seed{seed}-pid{os.getpid()}")
        traced_out, _, traced_walls = timed_rounds(wl, rounds, lambda: tracing.instrument(tracer))
        traced_wall = sum(traced_walls)
        same = [wl.fingerprint(o) for o in traced_out] == [wl.fingerprint(o) for o in outputs]
        if not same:
            lines.append("FAILED trace: traced outputs differ from the untraced pass")
        metrics = per_layer_metrics(
            layer_units, name, checked, times, sum(walls), traced_wall, tracer.spans
        )
        attributed = metrics["trace.attributed_frac"]
        if not abs(1.0 - attributed) <= ATTRIBUTION_TOL:
            lines.append(f"FAILED trace: self times cover {attributed:.4f} of the traced wall time")
        correct = correct and same and abs(1.0 - attributed) <= ATTRIBUTION_TOL
        extra = {}
        units = layer_units
        path = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracing.write_spans(path, tracer, {"env": env, "untraced_wall_s": sum(walls)})
        lines.append(f"spans written to {path.relative_to(ROOT)}")

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    # A failed disk ladder leaves im_s_dev_max infinite; JSON has no such
    # number, so the value becomes null and the run counts as incorrect.
    finite = all(math.isfinite(v) for v in metrics.values())
    if not finite:
        lines.append("FAILED metrics: a value is not finite")
    correct = correct and finite
    lines.append(f"{name} seed {seed}: {checked.attempted} operations, {checked.failed} failed")
    lines.append("  round wall s: " + " ".join(f"{w:.4f}" for w in walls))
    if not trace:
        lines.append("  round CPU s:  " + " ".join(f"{c:.4f}" for c in cpus))
        lines.append("  slowdown:     " + " ".join(f"{s:.4f}" for s in slowdowns))
    for key, value in metrics.items():
        lines.append(f"  {key:36s} {value:.6g} {units[key]}")
    for key, (value, unit) in extra.items():
        lines.append(f"  {key:36s} {value:.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            k: {"value": float(v) if math.isfinite(v) else None, "unit": units[k]}
            for k, v in metrics.items()
        },
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("ladder", "coeffs", "mc"))
    ap.add_argument("--seed", type=int, default=0, help="non-negative; makes every input")
    ap.add_argument("--seconds", type=int, default=15, help="sizes the coeffs and mc inputs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")

    if args.setup_only:
        setup_probe(args.workload, args.seed, args.seconds)
        return 0
    load_program()
    import workloads

    sizes = workloads.Sizes.for_seconds(args.seconds)
    probe_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    result, lines = measure(args.workload, args.seed, sizes, bool(args.trace), probe_argv)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
