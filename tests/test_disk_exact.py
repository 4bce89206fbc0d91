import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from conftest import BESSEL_GRID
from heatpade import series
from heatpade.disk_exact import survival_disk, tau_disk
from heatpade.heat_content import small_time_expansion, small_time_survival
from heatpade.series import j0_zero, maclaurin_tau_disk


class TestTauDisk:
    def test_against_scipy_bessel(self):
        for s in (0.5, 1.0, 3.0, 10.0):
            ref = (1.0 - 2.0 * special.iv(1, s) / (s * special.iv(0, s))) / s**2
            assert tau_disk(s) == pytest.approx(ref, rel=1e-13)

    def test_against_30_digit_reference(self):
        from mpmath import besseli, mp, mpf

        with mp.workdps(30):
            for x in BESSEL_GRID:
                ref = (1 - 2 * besseli(1, x) / (x * besseli(0, x))) / mpf(x) ** 2
                assert abs(tau_disk(x) - ref) <= 1e-15 * ref, x

    def test_huge_argument_returns_zero_at_once(self):
        # The fraction's depth grows with x; the large-x branch never uses it.
        start = time.process_time()
        assert tau_disk(1e300) == 0.0
        assert time.process_time() - start < 0.01

    def test_small_s_limit(self):
        # tau(0) = R^2 / 8.
        # s small enough for the truncated series, large enough that the
        # 1/s^2-amplified cancellation in the closed form stays below 1e-12.
        d = [float(v) for v in maclaurin_tau_disk(1, 3)]
        s = 0.1
        series = d[0] + d[1] * s**2 + d[2] * s**4 + d[3] * s**6
        assert tau_disk(s) == pytest.approx(series, rel=1e-10)

    def test_large_s_decay(self):
        # tau ~ 1/s^2 - 2/s^3 at large s; I0(800) and I1(800) overflow a double.
        for s in (200.0, 800.0):
            assert tau_disk(s) == pytest.approx(1.0 / s**2 - 2.0 / s**3, rel=1e-3)

    def test_positive_and_decreasing(self):
        ss = np.linspace(0.05, 30.0, 120)
        vals = [tau_disk(float(s)) for s in ss]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_radius_scaling(self):
        # tau_R(s) = R^2 tau_1(sR).
        for s in (0.7, 2.0):
            assert tau_disk(s, R=2.0) == pytest.approx(4.0 * tau_disk(2.0 * s), rel=1e-13)

    @pytest.mark.parametrize("R", [1e-5, 1e-7])
    def test_small_radius_is_accurate(self, R):
        # 1 - 2 I1(x)/(x I0(x)) cancels as x = sR -> 0; R^2 / (2 K + x^2)
        # from Gauss's continued fraction does not.
        ref = R**2 / 8 - R**4 / 48 + 11 * R**6 / 3072
        assert tau_disk(1.0, R) == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_tiny_radius_is_not_negative(self):
        assert tau_disk(1.0, 1e-200) >= 0.0

    @pytest.mark.parametrize("side", [-1e-12, 1e-12])
    def test_fraction_and_series_forms_meet_at_x0(self, side):
        s = series.ASYMPTOTIC_FROM + side
        bessel = (1.0 - 2.0 * special.i1e(s) / (s * special.i0e(s))) / s**2
        assert tau_disk(s) == pytest.approx(bessel, rel=1e-14, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            tau_disk(0.0)
        with pytest.raises(ValueError):
            tau_disk(1.0, R=-1.0)


class TestSurvivalDisk:
    def test_completeness(self):
        # 4 sum z_n^-2 = 1; slow algebraic tail, modest N gives ~1e-3.
        z = np.array([j0_zero(k) for k in range(1, 2001)])
        assert 4.0 * np.sum(z**-2.0) == pytest.approx(1.0, abs=1e-3)

    def test_zero_time_is_one(self):
        # Every walker starts inside.
        assert survival_disk(0.0) == 1.0

    def test_long_time_single_mode(self):
        t = 2.0
        z1 = j0_zero(1)
        ref = 4.0 / z1**2 * math.exp(-(z1**2) * t)
        assert survival_disk(t) == pytest.approx(ref, rel=1e-10)

    def test_against_30_digit_eigensum(self):
        # The sum stops only where its tail is within about one rounding.
        from mpmath import besseljzero, exp, mp

        with mp.workdps(30):
            zeros = [besseljzero(0, k) for k in range(1, 101)]
            for t in np.geomspace(1e-3, 3.0, 51):
                ref = sum(4 / z**2 * exp(-(z**2) * t) for z in zeros)
                assert abs(survival_disk(float(t)) - ref) <= 1e-15 * (1 + 6 * t) * ref

    def test_gamma1_weight(self):
        assert 4.0 / j0_zero(1) ** 2 == pytest.approx(0.691660, abs=5e-7)

    def test_decreasing_in_time(self):
        ts = np.linspace(0.01, 1.0, 50)
        vals = [survival_disk(float(t)) for t in ts]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_laplace_consistency(self):
        # Numerically integrating exp(-s^2 t) S(t) recovers tau_disk(s).
        s = 1.0
        val, _ = integrate.quad(
            lambda t: math.exp(-(s**2) * t) * survival_disk(t), 1e-9, 50.0, limit=300
        )
        assert val == pytest.approx(tau_disk(s), rel=1e-6)

    def test_matches_small_time_expansion(self):
        exp = small_time_expansion_disk()
        t = 0.01
        assert survival_disk(t) == pytest.approx(small_time_survival(exp, t), abs=1e-4)

    def test_radius_scaling(self):
        assert survival_disk(0.4, R=2.0) == pytest.approx(survival_disk(0.1, R=1.0), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            survival_disk(-0.1)
        with pytest.raises(ValueError, match="time"):
            survival_disk(math.nan)
        for R in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="radius"):
                survival_disk(0.1, R=R)

    def test_radius_whose_square_underflows(self):
        # R^2 is 0 below R = 2.2e-162, where S is the unit disk's at t / R / R:
        # 0.0 where that overflows (this raised ZeroDivisionError).
        assert survival_disk(1.0, R=1e-300) == 0.0
        assert survival_disk(math.inf, R=1e-300) == 0.0
        t, R = 5e-324, 1.5e-162
        assert R * R == 0.0
        assert survival_disk(t, R) == survival_disk(t / R / R) > 0.0

    def test_overflowing_term_ends_the_sum(self):
        with np.errstate(all="ignore"):
            assert math.isnan(survival_disk(math.inf, R=1e200))

    def test_zeros_are_computed_once(self, monkeypatch):
        calls = []
        f = series._bessel_j01
        monkeypatch.setattr(series, "_bessel_j01", lambda z: calls.append(z) or f(z))
        j0_zero.cache_clear()
        first = survival_disk(1e-3)
        used = j0_zero.cache_info().currsize
        assert used > 40 and calls
        calls.clear()
        for k in range(1, used + 1):
            j0_zero(k)
        assert survival_disk(1e-3) == first
        assert calls == []

    def test_tiny_time_deficit(self):
        # S = 1 - 4 sqrt(t / pi) + t + O(t^(3/2)); the eigenseries cut off
        # at 1e-12 gave a deficit of 6.4e-7 here, against 2.3e-8.
        t = 1e-16
        assert abs(survival_disk(t) - (1.0 - 4.0 * math.sqrt(t / math.pi) + t)) <= 1e-15

    def test_tiny_time_is_fast(self):
        j0_zero.cache_clear()
        start = time.process_time()
        survival_disk(1e-12)
        assert time.process_time() - start < 0.1

    @pytest.mark.parametrize("side", [-1e-12, 1e-12])
    def test_short_time_series_meets_eigenseries(self, side):
        # Both branches meet the eigenseries summed over every mode that
        # counts in double precision: exp(-z^2 t) underflows before the
        # 400th zero.
        t = 1e-3 + side
        z = np.array([j0_zero(k) for k in range(1, 401)])
        ref = float(np.sum(4.0 / z**2 * np.exp(-(z**2) * t)))
        assert survival_disk(t) == pytest.approx(ref, rel=0.0, abs=1e-12)


def small_time_expansion_disk():
    from heatpade.geometry import Disk

    return small_time_expansion(Disk(), 5)
