"""Closed-form disk reference solutions used to validate the other modules.

For a disk of radius R the Laplace transform of the survival probability
(Laplace parameter s^2) is available in closed form through modified
Bessel functions, and S(t) itself as an eigenseries over the zeros of J0.
scipy is imported on first use only, by ``tau_disk_local`` here and by the
``series`` Bessel helpers that ``tau_disk`` and ``survival_disk`` call;
importing this module does not load it.
"""

from __future__ import annotations

import itertools
import math

from .series import bessel_ratio, j0_zero, maclaurin_tau_disk

# tau's Maclaurin terms in x = sR fall like (x / j0_1)^(2k): below x = 1
# the first 20 are within 5.5e-16 of 60-digit mpmath.  The Bessel form is
# within 3.3e-15 at x >= 1, but 2e-14 off on [0.5, 1) and worse towards 0.
_SMALL_X_TERMS = 20


def tau_disk(s: float, R: float = 1.0) -> float:
    """tau(s) = (1/s^2) [1 - 2 I1(sR) / (sR I0(sR))], by its Maclaurin series below sR = 1."""
    if not s > 0:
        raise ValueError("Laplace variable must be positive")
    if not R > 0:
        raise ValueError("radius must be positive")
    x = s * R
    if x < 1.0:
        total = 0.0
        for u in reversed(maclaurin_tau_disk(1, _SMALL_X_TERMS - 1)):
            total = total * (x * x) + float(u)
        return R * R * total
    return (1.0 - 2.0 * bessel_ratio(x) / x) / (s * s)


def tau_disk_local(s: float, r: float, R: float = 1.0) -> float:
    """tau(s, r) = (1/s^2) [1 - I0(sr) / I0(sR)]; vanishes on the boundary r = R."""
    if not s > 0:
        raise ValueError("Laplace variable must be positive")
    if not 0.0 <= r <= R:
        raise ValueError("radial coordinate must lie in [0, R]")
    from scipy import special

    # I0(sr)/I0(sR) from the exponentially scaled I0, which cannot overflow.
    ratio = float(special.i0e(s * r) / special.i0e(s * R)) * math.exp(s * (r - R))
    return (1.0 - ratio) / (s * s)


def survival_disk(t: float, R: float = 1.0) -> float:
    """Eigenseries S(t) = 4 sum_n z_n^-2 exp(-z_n^2 t / R^2) over the zeros z_n of J0.

    The mode count grows until the next term drops below 1e-12 (or is
    NaN, from an overflow); a term is at most 4 z_n^-2, so that happens by
    about n = 640 000.  At t = 0 the terms do not decay, and S(0) = 1
    exactly: every walker starts inside.
    """
    if not t >= 0:
        raise ValueError("time must be non-negative")
    if not R > 0:
        raise ValueError("radius must be positive")
    if t == 0.0:
        return 1.0
    total = 0.0
    for n in itertools.count(1):
        z = j0_zero(n)
        term = 4.0 / (z * z) * math.exp(-z * z * t / (R * R))
        total += term
        if not term >= 1e-12:
            break
    return total
