"""Closed-form disk reference solutions used to validate the other modules.

For a disk of radius R the Laplace transform of the survival probability
(Laplace parameter s^2) is available in closed form through modified
Bessel functions, and S(t) itself as an eigenseries over the zeros of J0.
``tau_disk`` needs no cancelling difference below x0 = sR = 30 (the
seam ``series.ASYMPTOTIC_FROM``), and loses little above it: on 400
log-spaced x in [1e-3, 1e4] and at x0 +- 1e-12 its worst relative error
against 30-digit mpmath is 2.3e-16.
"""

from __future__ import annotations

import itertools
import math

from .series import ASYMPTOTIC_FROM, asymptotic_ratio_coeffs, bessel_ratio, gauss_fraction, j0_zero

# Below t / R^2 = 1e-3 the eigenseries needs thousands of modes and piles
# up their rounding; the exact short-time series replaces it there, and at
# t / R^2 = 1e-3 its terms 10 to 14 change S by < 1e-15.
_SHORT_TIME = 1e-3
_SHORT_TIME_TERMS = 12


def tau_disk(s: float, R: float = 1.0) -> float:
    """tau(s) = (1/s^2) [1 - 2 I1(sR) / (sR I0(sR))].

    With x = sR and u = I1(x)/I0(x) = x K / (2 K + x^2), this is
    R^2 / (2 K + x^2) below x = ``ASYMPTOTIC_FROM``, with K from
    ``gauss_fraction``: a sum of positive terms, R^2/8 at x = 0.  From there
    up it is (1 - 2u/x) / s^2, where 2u/x <= 1/15.
    """
    if not s > 0:
        raise ValueError("Laplace variable must be positive")
    if not R > 0:
        raise ValueError("radius must be positive")
    x = s * R
    if x < ASYMPTOTIC_FROM:
        return R * R / (2.0 * gauss_fraction(x) + x * x)
    return (1.0 - 2.0 * bessel_ratio(x) / x) / (s * s)


def survival_disk(t: float, R: float = 1.0) -> float:
    """Eigenseries S(t) = 4 sum_n z_n^-2 exp(-z_n^2 t / R^2) over the zeros z_n of J0.

    The sum stops after the first term that is not above 2^-53 times the
    running sum (or is NaN, from an overflow): the terms fall faster than
    geometrically, so the dropped tail is within about one rounding of the
    sum.  Below
    t / R^2 = ``_SHORT_TIME`` S is the disk's exact short-time series
    1 + sum_j sigma_j t^(j/2), with
    sigma_j = -2 a_(j-1) / (Gamma(j/2 + 1) R^j) from the series of I1/I0.
    S(0) = 1 exactly: every walker starts inside.  Where R^2 underflows to 0,
    S is that of the unit disk at t / R / R (0.0 where that overflows).
    """
    if not t >= 0:
        raise ValueError("time must be non-negative")
    if not R > 0:
        raise ValueError("radius must be positive")
    if t == 0.0:
        return 1.0
    if R * R == 0.0:
        # S depends on t / R^2 alone; t / R / R is +inf unless t is subnormal.
        return survival_disk(t / R / R)
    total = 0.0
    if t < _SHORT_TIME * R * R:
        a = asymptotic_ratio_coeffs(_SHORT_TIME_TERMS - 1)
        x = math.sqrt(t) / R
        for j in range(_SHORT_TIME_TERMS, 0, -1):
            total = (total - 2.0 * float(a[j - 1]) / math.gamma(j / 2 + 1)) * x
        return 1.0 + total
    for n in itertools.count(1):
        z = j0_zero(n)
        term = 4.0 / (z * z) * math.exp(-z * z * t / (R * R))
        total += term
        if not term > 2.0**-53 * total:
            break
    return total
