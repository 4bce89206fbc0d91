"""Acceptance gate: one test per criterion, each emitting a pass/fail line.

The heavy shared computations (disk interpolation ladder, ellipse sweeps)
run once in module-scoped fixtures; the per-criterion runtime budgets are
measured around the work they constrain.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_fourier_curve
from heatpade.disk_exact import survival_disk
from heatpade.geometry import Disk, Ellipse, arc_measures, curvature_power_integral
from heatpade.heat_content import (
    ExpansionMode,
    sigma_curvature,
    sigma_savo,
    small_time_expansion,
    small_time_survival,
    tau_large_s_series,
)
from heatpade.mc_oracle import McConfig, simulate_survival
from heatpade.pade import ladder, prony_moments, select_solution, solve_interpolation
from heatpade.series import asymptotic_ratio_coeffs, maclaurin_tau_disk

LAMBDA1_EXACT = 5.783186
TABLE_ROWS = {
    1: (0.1743, -0.07472, 0.008383, -0.00004709, 1.756),
    2: (0.1475, -0.03538, 0.011763, -0.00246499, 1.940),
    3: (0.1378, -0.02803, 0.006355, -0.00162755, 2.074),
    4: (0.1331, -0.02516, 0.005090, -0.00106198, 2.178),
}
IM_HIGH = {5: 2.252, 6: 2.299, 7: 2.328}


@pytest.fixture
def report(capsys):
    def _report(num, desc, ok):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}", flush=True)
        assert ok, f"criterion {num} failed: {desc}"

    return _report


@pytest.fixture(scope="module")
def disk_ladder7():
    """Disk solutions for n = 1..7 plus the wall time of the n <= 4 part."""
    c = tau_large_s_series(Disk(), 9)
    t0 = time.perf_counter()
    sols = ladder(c, 4, seed=0, n_multistart=200)
    t_low = time.perf_counter() - t0
    for n in range(5, 8):
        sols.append(select_solution(solve_interpolation(c, n, seed=0, n_multistart=200)))
    return sols, t_low


def _ellipse_lambda1(eps, n_max, mode):
    curve = Ellipse(b=1.0, eps=eps)
    c = tau_large_s_series(curve, n_max + 2, mode)
    return {sol.n: sol.lambda1 for sol in ladder(c, n_max, seed=0, n_multistart=120)}


@pytest.fixture(scope="module")
def ellipse_sweep():
    """lambda_1 for both coefficient modes over an eccentricity grid at n = 3, 4."""
    eps_grid = (1e-6, 0.2, 0.4, 0.6, 0.8)
    out = {}
    for mode in (ExpansionMode.CURVATURE_APPROX, ExpansionMode.SAVO_EXACT):
        for eps in eps_grid:
            lam = _ellipse_lambda1(eps, 4, mode)
            for n in (3, 4):
                out[(mode, eps, n)] = lam[n]
    return eps_grid, out


def test_criterion_01_asymptotic_coefficients(report):
    from heatpade.series import _ratio_coeffs_cached

    _ratio_coeffs_cached.cache_clear()
    t0 = time.perf_counter()
    a = asymptotic_ratio_coeffs(5)
    elapsed = time.perf_counter() - t0
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(-1, 8),
        Fraction(-1, 8),
        Fraction(-25, 128),
        Fraction(-13, 32),
    ]
    ok = a == expected and elapsed < 1e-3
    report(1, f"exact ratio coefficients a_0..a_5 in {elapsed * 1e6:.0f} us", ok)


def test_criterion_02_disk_small_time_coefficients(report):
    sqrt_pi = math.sqrt(math.pi)
    expected = [-4.0 / sqrt_pi, 1.0, 1.0 / (3.0 * sqrt_pi), 0.125, 5.0 / (24.0 * sqrt_pi)]
    got = [sigma_curvature(Disk(), j) for j in range(1, 6)]
    err = max(abs(g - e) for g, e in zip(got, expected))
    report(2, f"disk sigma_1..sigma_5, max abs error {err:.2e} < 1e-12", err < 1e-12)


def test_criterion_03_universal_second_order(report):
    rng = np.random.default_rng(2024)
    worst_sigma = worst_turning = 0.0
    for _ in range(20):
        curve = random_fourier_curve(rng)
        area = arc_measures(curve).area
        worst_sigma = max(worst_sigma, abs(sigma_curvature(curve, 2) - math.pi / area))
        worst_turning = max(
            worst_turning, abs(curvature_power_integral(curve, 1) - 2.0 * math.pi)
        )
    ok = worst_sigma < 1e-9 and worst_turning < 1e-9
    report(
        3,
        f"20 random shapes: |sigma_2 - pi/area| <= {worst_sigma:.1e}, "
        f"|curvature integral - 2 pi| <= {worst_turning:.1e}",
        ok,
    )


def test_criterion_04_disk_moments(report):
    got = [float(v) for v in maclaurin_tau_disk(1, 3)]
    printed = [0.1250, -0.0208333, 0.00358073, -0.00061849]
    # Match every printed digit: round to the printed precision.
    ok = all(abs(g - p) < 0.5 * 10.0 ** (math.floor(math.log10(abs(p))) - 5) for g, p in zip(got, printed))
    report(4, f"disk Maclaurin d_0..d_6 = {got}", ok)


def test_criterion_05_moment_truncation(report):
    # Three retained decay modes reproduce the reference lambda_1; note the
    # two-mode fit on d_0..d_6 instead lands on 5.784128.
    pairs = prony_moments(maclaurin_tau_disk(1, 5), 3)
    lam1 = pairs[0][0]
    rel = abs(lam1 - 5.783187) / 5.783187
    report(5, f"moment-truncation lambda_1 = {lam1:.6f}, rel err {rel:.1e} < 1e-5", rel < 1e-5)


def test_criterion_06_table_rows(report, disk_ladder7):
    sols, t_low = disk_ladder7
    ok = t_low < 60.0
    detail = [f"n<=4 in {t_low:.1f}s"]
    for sol in sols[:4]:
        got = (*sol.small_s_coeffs, sol.closest_pole.imag)
        row_ok = all(abs(g - r) <= 0.01 * abs(r) for g, r in zip(got, TABLE_ROWS[sol.n]))
        ok &= row_ok
        detail.append(f"n={sol.n} {'ok' if row_ok else 'off'}")
    for sol in sols[4:]:
        im_ok = abs(sol.closest_pole.imag - IM_HIGH[sol.n]) <= 0.01 * IM_HIGH[sol.n]
        ok &= im_ok
        detail.append(f"n={sol.n} Im={sol.closest_pole.imag:.3f}")
    ims = [sol.closest_pole.imag for sol in sols]
    ok &= all(b > a for a, b in zip(ims, ims[1:]))
    report(6, "disk table rows within 1%, Im monotone (" + ", ".join(detail) + ")", ok)


def test_criterion_07_extrapolated_precision(report, disk_ladder7):
    sols, _ = disk_ladder7
    im6, im7 = sols[5].closest_pole.imag, sols[6].closest_pole.imag
    # Richardson step assuming Im_n = L - A / n^2.
    limit = (49.0 * im7 - 36.0 * im6) / 13.0
    lam = limit**2
    rel = abs(lam - LAMBDA1_EXACT) / LAMBDA1_EXACT
    report(7, f"extrapolated lambda_1 = {lam:.4f}, rel err {rel:.2%} < 2%", rel < 0.02)


def test_criterion_08_exact_vs_curvature_modes(report, ellipse_sweep):
    ok = all(
        abs(sigma_savo(Disk(), j) - sigma_curvature(Disk(), j)) < 1e-12 for j in range(1, 7)
    )
    e = Ellipse(b=1.0, eps=0.5)
    ok &= all(sigma_savo(e, j) == sigma_curvature(e, j) for j in range(1, 5))
    s5, s5t = sigma_savo(e, 5), sigma_curvature(e, 5)
    s6, s6t = sigma_savo(e, 6), sigma_curvature(e, 6)
    ok &= s5 < s5t and s6 != s6t
    eps_grid, lam = ellipse_sweep
    worst = 0.0
    for eps in eps_grid:
        for n in (3, 4):
            a = lam[(ExpansionMode.CURVATURE_APPROX, eps, n)]
            b = lam[(ExpansionMode.SAVO_EXACT, eps, n)]
            worst = max(worst, abs(a - b) / b)
    ok &= worst < 0.01
    report(8, f"mode agreement: max lambda_1 deviation {worst:.2%} < 1% for eps <= 0.8", ok)


def test_criterion_09_ellipse_limit_and_monotonicity(report, ellipse_sweep, disk_ladder7):
    eps_grid, lam = ellipse_sweep
    sols, _ = disk_ladder7
    disk_lam = sols[3].lambda1
    near = lam[(ExpansionMode.CURVATURE_APPROX, 1e-6, 4)]
    rel = abs(near - disk_lam) / disk_lam
    curve_vals = [lam[(ExpansionMode.CURVATURE_APPROX, e, 4)] for e in eps_grid]
    monotone = all(b < a for a, b in zip(curve_vals, curve_vals[1:]))
    ok = rel < 1e-4 and monotone
    report(
        9,
        f"eps->0 limit rel err {rel:.1e} < 1e-4; lambda_1 decreasing in eps: {monotone}",
        ok,
    )


def test_criterion_10_oracle_consistency(report):
    t0 = time.perf_counter()
    exp = small_time_expansion(Disk(), 5)
    gap = abs(survival_disk(0.01) - small_time_survival(exp, 0.01))
    cfg = McConfig(walkers=10**5, dt=1e-5, t_grid=(0.1,), seed=7)
    [(_, s_hat, stderr)] = simulate_survival(Disk(), cfg)
    mc_gap = abs(s_hat - survival_disk(0.1))
    allowance = 3.0 * stderr + 0.005
    elapsed = time.perf_counter() - t0
    ok = gap < 1e-4 and mc_gap < allowance and elapsed < 120.0
    report(
        10,
        f"expansion gap {gap:.1e} < 1e-4; MC gap {mc_gap:.4f} < {allowance:.4f}; "
        f"{elapsed:.0f}s < 120s",
        ok,
    )
