import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import BESSEL_GRID
from heatpade.errors import DegenerateDenominator
from heatpade.series import (
    asymptotic_ratio_coeffs,
    bessel_ratio,
    j0_zero,
    maclaurin_tau_disk,
    quotient,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=50)


class TestQuotient:
    @given(
        st.lists(fractions, min_size=1, max_size=6),
        st.lists(fractions, min_size=1, max_size=6).filter(lambda q: q[0] != 0),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_divides_a_product_exactly(self, p, q, extra):
        pq = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                pq[i + j] += pi * qj
        assert quotient(pq, q, len(p) + extra) == p + [0] * extra

    @pytest.mark.parametrize("zero", [0.0, Fraction(0)])
    def test_zero_constant_term_is_degenerate(self, zero):
        with pytest.raises(DegenerateDenominator):
            quotient([1.0], [zero, 1.0], 3)


class TestAsymptoticRatioCoeffs:
    def test_known_values(self):
        a = asymptotic_ratio_coeffs(5)
        assert a == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(-1, 8),
            Fraction(-1, 8),
            Fraction(-25, 128),
            Fraction(-13, 32),
        ]

    def test_exact_rationals(self):
        assert all(isinstance(v, Fraction) for v in asymptotic_ratio_coeffs(12))

    def test_recurrence(self):
        a = asymptotic_ratio_coeffs(10)
        for m in range(1, 11):
            rhs = (m - 2) * a[m - 1] - sum(a[i] * a[m - i] for i in range(1, m))
            assert 2 * a[m] == rhs

    def test_series_matches_ratio_numerically(self):
        # The asymptotic series truncated at k=8 should approximate the
        # ratio to ~x^-9 accuracy at large x.
        a = asymptotic_ratio_coeffs(8)
        for x in (20.0, 50.0):
            approx = sum(float(ak) * x**-k for k, ak in enumerate(a))
            # Error is bounded by the first omitted term, |a_9| / x^9 ~ 60 / x^9.
            assert abs(approx - bessel_ratio(x)) < 200.0 / x**9

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_ratio_coeffs(-1)


class TestBesselI:
    @given(st.floats(min_value=1e-3, max_value=60.0))
    @settings(max_examples=50, deadline=None)
    def test_ratio_in_unit_interval(self, x):
        r = bessel_ratio(x)
        assert 0.0 < r < 1.0

    def test_ratio_monotone_to_one(self):
        xs = np.linspace(0.1, 80.0, 200)
        rs = [bessel_ratio(float(x)) for x in xs]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        assert rs[-1] > 0.99

    def test_ratio_small_x_slope(self):
        # I1/I0 ~ x/2 for small x.
        assert bessel_ratio(1e-4) == pytest.approx(5e-5, rel=1e-3)

    def test_ratio_against_30_digit_reference(self):
        from mpmath import besseli, mp

        with mp.workdps(30):
            for x in BESSEL_GRID:
                ref = besseli(1, x) / besseli(0, x)
                assert abs(bessel_ratio(x) - ref) <= 1e-15 * ref, x
                assert bessel_ratio(-x) == -bessel_ratio(x)

    def test_ratio_at_zero_inf_and_nan(self):
        assert bessel_ratio(0.0) == 0.0
        assert bessel_ratio(math.inf) == 1.0
        assert bessel_ratio(-math.inf) == -1.0
        assert math.isnan(bessel_ratio(math.nan))


class TestJ0Zeros:
    def test_against_scipy(self):
        ref = special.jn_zeros(0, 50)
        got = [j0_zero(k) for k in range(1, 51)]
        assert np.allclose(got, ref, rtol=0, atol=1e-11)

    def test_against_mpmath(self):
        from mpmath import besseljzero, mp

        with mp.workdps(30):
            for k in [*range(1, 101), 1000, 20000]:
                ref = float(besseljzero(0, k))
                assert abs(j0_zero(k) - ref) <= math.ulp(ref), k

    def test_first_zero_squared(self):
        z1 = j0_zero(1)
        assert z1**2 == pytest.approx(5.783185962946783, abs=1e-12)

    def test_spacing_approaches_pi(self):
        z = [j0_zero(k) for k in range(1, 201)]
        assert z[-1] - z[-2] == pytest.approx(math.pi, abs=1e-3)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            j0_zero(0)


class TestMaclaurinTauDisk:
    def test_unit_disk_values(self):
        d = maclaurin_tau_disk(1, 3)
        assert d[0] == Fraction(1, 8)
        assert d[1] == Fraction(-1, 48)
        assert d[2] == Fraction(11, 3072)
        assert d[3] == Fraction(-19, 30720)

    def test_printed_digits(self):
        d = [float(v) for v in maclaurin_tau_disk(1, 3)]
        assert d == pytest.approx([0.1250, -0.0208333, 0.00358073, -0.00061849], rel=5e-5)

    def test_radius_scaling(self):
        d1 = maclaurin_tau_disk(1, 4)
        d2 = maclaurin_tau_disk(2, 4)
        for k, (a, b) in enumerate(zip(d1, d2)):
            assert b == a * Fraction(2) ** (2 * k + 2)

    def test_alternating_signs(self):
        d = maclaurin_tau_disk(1, 8)
        for k, v in enumerate(d):
            assert (v > 0) == (k % 2 == 0)

    def test_matches_eigenmode_sums(self):
        # d_{2k} = (-1)^k 4 sum_n z_n^(-2k-4), the moment representation of
        # the Laplace transform.
        z = np.array([j0_zero(k) for k in range(1, 20001)])
        d = [float(v) for v in maclaurin_tau_disk(1, 2)]
        for k in range(3):
            ref = (-1) ** k * 4.0 * np.sum(z ** (-2.0 * k - 4.0))
            assert d[k] == pytest.approx(ref, rel=1e-9)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            maclaurin_tau_disk(0, 2)
