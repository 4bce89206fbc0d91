"""Tests of the benchmark itself: tiny runs, metric names, and that the checks catch bad outputs.

    python -m pytest -q bench
"""

import dataclasses
import functools
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(orders=2, disk_starts=30, ellipse_starts=30, shapes=6, walkers=400)
SEED = 5


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _listed(section):
    return {m["name"]: m["unit"] for m in _spec()[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", ["ladder", "coeffs", "mc"])
def test_tiny_run_passes_and_emits_exactly_the_listed_metrics(name, trace):
    probe = ["--workload", name, "--seed", str(SEED), "--seconds", "1"]
    result, _ = run.measure(name, SEED, TINY, trace, probe)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = _listed("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bounded_times_are_divided_by_the_host_slowdown():
    ref = speed.REFERENCE_S
    assert speed.slowdown([ref] * 3) == pytest.approx(1.0)
    # Half the CPU time at slowdown 1 and half at 3 does 1/2 + 1/6 of the work.
    assert speed.slowdown([ref, 3 * ref]) == pytest.approx(1.5)
    checked = workloads.Checked(attempted=2, problems=[], extras={})
    cpus, slowdowns = [3.0, 4.0, 1.0], [1.5, 2.0, 0.25]
    walls = [3.1, 4.2, 1.1]
    metrics, extra = run.end_to_end_metrics("mc", checked, [0.1, 0.2], cpus, slowdowns, walls, (0.8, 1.2, 1.4))
    assert metrics["norm_cpu_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == 0.8
    assert extra["cpu_s"][0] == 3.0 and extra["host_slowdown"][0] == 1.5


def test_sampler_runs_the_kernel_only_while_active():
    sampler = speed.Sampler()
    handler = signal.getsignal(signal.SIGPROF)
    with sampler.active():
        c0 = time.process_time()
        while time.process_time() - c0 < 3 * speed.INTERVAL_S:
            pass
    taken = len(sampler.samples)
    assert taken >= 2
    assert signal.getsignal(signal.SIGPROF) == handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    c0 = time.process_time()
    while time.process_time() - c0 < 2 * speed.INTERVAL_S:
        pass
    assert len(sampler.samples) == taken


@pytest.mark.parametrize("name", ["ladder", "mc"])
def test_kernel_samples_leave_the_outputs_unchanged(name, monkeypatch):
    monkeypatch.setattr(speed, "Sampler", functools.partial(speed.Sampler, 0.01))
    wl = workloads.WORKLOADS[name]
    rounds = [wl.make(SEED, TINY)]
    plain, _, _ = run.timed_rounds(wl, rounds)
    sampled, _, _, slowdowns, _ = run.sampled_rounds(wl, rounds)
    assert [wl.fingerprint(o) for o in sampled] == [wl.fingerprint(o) for o in plain]
    assert slowdowns[0] > 0


def test_traced_pass_restores_the_program():
    from mpmath import mp

    from heatpade import geometry, pade

    before = (pade.ladder, pade.solve_interpolation, geometry.periodic_quadrature)
    with tracing.instrument(tracing.Tracer("t")) as tracer:
        assert pade.ladder is not before[0]
        assert "lu_solve" in vars(mp)
    assert (pade.ladder, pade.solve_interpolation, geometry.periodic_quadrature) == before
    assert "lu_solve" not in vars(mp)
    assert "contains" not in vars(geometry.Ellipse)
    assert tracer.spans == []


def test_self_times_subtract_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


@pytest.fixture(scope="module")
def tiny_ladder():
    inp = workloads.make_ladder(SEED, TINY)
    outputs, _ = workloads.run_ladder(inp)
    return inp, outputs


def test_ladder_check_catches_a_disk_row_off_by_two_percent(tiny_ladder):
    inp, outputs = tiny_ladder
    assert workloads.check_ladder([(inp, outputs)]).failed == 0
    (c, sols), rest = outputs[0], outputs[1:]
    for k in range(4):
        small = list(sols[0].small_s_coeffs)
        small[k] *= 1.02
        bad = [dataclasses.replace(sols[0], small_s_coeffs=tuple(small)), *sols[1:]]
        checked = workloads.check_ladder([(inp, [(c, bad), *rest])])
        assert [label for label, _ in checked.problems] == ["disk n=1"]


def test_disk_row_check_catches_each_column_off_by_two_percent():
    for n, row in reference.DISK_ROWS.items():
        assert workloads.disk_row_problem(n, row[:4], row[4]) is None
        for k in range(5):
            bad = [v * (1.02 if i == k else 1.0) for i, v in enumerate(row)]
            assert workloads.disk_row_problem(n, bad[:4], bad[4]) is not None


def test_mc_check_catches_an_estimate_shifted_by_ten_stderr():
    inp = workloads.make_mc(SEED, TINY)
    outputs, _ = workloads.run_mc(inp)
    assert workloads.check_mc([(inp, outputs)]).failed == 0
    disk_rows, ellipse_rows = outputs
    for sign in (1.0, -1.0):
        shifted = [(t, s + sign * 10.0 * se, se) for t, s, se in disk_rows]
        checked = workloads.check_mc([(inp, [shifted, ellipse_rows])])
        assert {label for label, _ in checked.problems} == {"round 0 disk"}
        t, s, se = ellipse_rows[0]
        shifted = [(t, s + sign * 10.0 * se, se), *ellipse_rows[1:]]
        checked = workloads.check_mc([(inp, [disk_rows, shifted])])
        assert {label for label, _ in checked.problems} == {"round 0 ellipse"}


def test_full_size_bias_allowance_stays_below_five_stderr():
    # A 10-stderr shift is caught only while the bias allowance is below
    # the remaining 5 stderr; check that at the full-size walker count.
    from heatpade.disk_exact import survival_disk

    walkers = workloads.Sizes.for_seconds(_spec()["run_seconds"]).walkers
    se = min((survival_disk(t) * (1 - survival_disk(t)) / walkers) ** 0.5 for t in workloads.MC_T_GRID)
    disk_bias = reference.mc_bias_allowance(2 * math.pi, math.pi, workloads.MC_DT)
    assert disk_bias < reference.MC_STDERR_K * se


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
