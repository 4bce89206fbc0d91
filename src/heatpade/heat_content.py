"""Short-time expansion coefficients of the survival probability.

Two coefficient families are provided for a star-shaped domain:

* the local-curvature approximation, available at any order j as a
  boundary integral of k^(j-1) weighted by an exact rational prefactor;
* the exact coefficients up to order ``SAVO_MAX_ORDER`` (6), which at
  orders 5 and 6 also involve arc-length derivatives of the curvature.

``tau_large_s_series`` alone forms coefficients, as the list c_j =
Gamma(j/2 + 1) sigma_j consumed by the rational-interpolation solver,
from one ``geometry.boundary_integrals`` pass; every sigma_j is
c_j / Gamma(j/2 + 1) read off that series.  The pass is wide enough for
both modes and is kept for the last curve object, so a curvature series
and an exact one on the same curve share it; each integral converges on
its own, so the shared pass gives every value bit for bit.  Half-integer
Gamma values are kept as exact (rational, sqrt(pi)-flag) pairs so the
rational parts combine without rounding; each exact prefactor is rounded
to a float once per order and cached on the order alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import geometry
from .errors import QuadratureNotConverged, UnsupportedOrder
from .geometry import BoundaryCurve
from .series import asymptotic_ratio_coeffs

SQRT_PI = math.sqrt(math.pi)
# Highest order of the exact ("savo") coefficients.
SAVO_MAX_ORDER = 6


class ExpansionMode(Enum):
    CURVATURE_APPROX = "curvature"
    SAVO_EXACT = "savo"


def gamma_half(j: int):
    """Gamma(j/2 + 1) as (rational, has_sqrt_pi): value = rational * sqrt(pi)**flag."""
    if j % 2 == 0:
        return Fraction(math.factorial(j // 2)), False
    # Gamma(1/2) = sqrt(pi); climb with Gamma(z + 1) = z Gamma(z).
    rat = Fraction(1)
    z = Fraction(1, 2)
    while z <= Fraction(j, 2):
        rat *= z
        z += 1
    return rat, True


@lru_cache(maxsize=None)
def gamma_half_value(j: int) -> float:
    rat, has_root = gamma_half(j)
    return float(rat) * (SQRT_PI if has_root else 1.0)


@dataclass(frozen=True)
class SmallTimeExpansion:
    """Coefficients sigma_1..sigma_J of S(t) = 1 + sum_j sigma_j t^(j/2)."""

    sigma: tuple


@dataclass(frozen=True)
class LargeSSeries:
    """Coefficients c_j of tau(s) = 1/s^2 + sum_j c_j / s^(j+2)."""

    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))

    def sigma(self, j: int) -> float:
        if j < 1:
            raise ValueError("order must be >= 1")
        if j > len(self.c):
            raise ValueError(f"order {j} is past the series, which has order {len(self.c)}")
        return self.c[j - 1] / gamma_half_value(j)


def sigma_curvature(curve: BoundaryCurve, j: int) -> float:
    """Local-curvature coefficient: -a_(j-1) / Gamma(j/2 + 1) times the integral of k^(j-1) over the area."""
    return tau_large_s_series(curve, j).sigma(j)


def sigma_savo(curve: BoundaryCurve, j: int) -> float:
    """Exact coefficient for 1 <= j <= SAVO_MAX_ORDER; orders 5, 6 add curvature-derivative terms."""
    return tau_large_s_series(curve, j, ExpansionMode.SAVO_EXACT).sigma(j)


# (curve, max_power, derivatives, BoundaryIntegrals) of the last pass.  The
# strong reference keeps the curve's id from being reused, and the key is
# identity: a BoundaryCurve subclass that is not a dataclass itself
# compares equal to every other instance of its class.  It is read and
# replaced whole, so threads that race on it cost a pass, never a value.
_last_pass = (None, -1, False, None)


def _boundary_integrals(curve: BoundaryCurve, J: int, mode: ExpansionMode):
    """The quadrature pass a series of order J needs, shared by later series on the same curve.

    The pass asks for a superset, k^m up to max(J - 1, SAVO_MAX_ORDER - 1)
    and the k-derivative rows, so one pass serves both modes.  Each row
    converges on its own, so the values a series reads equal those of a
    pass of its own bit for bit.  A later request on the same curve object
    that the kept pass covers is served from it.  Should the superset not
    converge, the series' own request runs instead, which converges or
    fails as it would alone; when it is the superset, it has already failed.
    """
    global _last_pass
    if J < 0:
        raise ValueError("order must be non-negative")
    exact = mode is ExpansionMode.SAVO_EXACT
    if exact and J > SAVO_MAX_ORDER:
        raise UnsupportedOrder(f"exact coefficients stop at order {SAVO_MAX_ORDER}")
    max_power, derivatives = J - 1, exact and J >= 5
    held, power, derivs, b = _last_pass
    if held is curve and power >= max_power and (derivs or not derivatives):
        return b
    wide = max(max_power, SAVO_MAX_ORDER - 1)
    try:
        b = geometry.boundary_integrals(curve, wide, derivatives=True)
        _last_pass = (curve, wide, True, b)
    except QuadratureNotConverged:
        if (max_power, derivatives) == (wide, True):
            raise
        b = geometry.boundary_integrals(curve, max_power, derivatives)
        _last_pass = (curve, max_power, derivatives, b)
    return b


def _exact_terms(b: geometry.BoundaryIntegrals, J: int, mode: ExpansionMode):
    """{j: sigma_j} at the orders where exact mode departs from the curvature term (5 and 6)."""
    exact = mode is ExpansionMode.SAVO_EXACT
    terms = {}
    if exact and J >= 5:
        terms[5] = (25.0 * b.powers[4] - 8.0 * b.kp2) / (240.0 * SQRT_PI * b.area)
    if exact and J >= 6:
        terms[6] = (13.0 * b.powers[5] + 80.0 * b.k_kp2 + 47.0 * b.k2_kpp) / (192.0 * b.area)
    return terms


def small_time_expansion(curve: BoundaryCurve, J: int, mode=ExpansionMode.CURVATURE_APPROX):
    """sigma_1..sigma_J for a curve in the requested mode, read off ``tau_large_s_series``."""
    series = tau_large_s_series(curve, J, mode)
    return SmallTimeExpansion(tuple(series.sigma(j) for j in range(1, J + 1)))


def small_time_survival(expansion: SmallTimeExpansion, t: float) -> float:
    """Truncated S(t) = 1 + sum_j sigma_j t^(j/2) over the expansion's terms.

    Asymptotic in t -> 0 only; no validity guard is applied at large t,
    where the truncated series departs from the true survival probability.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    root_t = math.sqrt(t)
    return 1.0 + sum(sigma * root_t**j for j, sigma in enumerate(expansion.sigma, start=1))


@lru_cache(maxsize=None)
def _curvature_prefactors(J: int):
    """-a_(j-1) for j = 1..J, each exact until its one rounding to float."""
    return tuple(float(-a) for a in asymptotic_ratio_coeffs(max(J - 1, 0))[:J])


def tau_large_s_series(curve: BoundaryCurve, J: int, mode=ExpansionMode.CURVATURE_APPROX):
    """Coefficients c_j = Gamma(j/2 + 1) sigma_j for j = 1..J, from one quadrature pass.

    Wherever sigma_j is the curvature term (every j in curvature mode,
    j <= 4 in exact mode) the Gamma factor cancels the one hidden in
    sigma_j, so c_j = -a_(j-1) * (boundary integral of k^(j-1)) / area is
    computed directly, with a_(j-1) exact; both modes then give the same
    c_j bit for bit.  Exact mode's orders 5 and 6 multiply out
    Gamma(j/2 + 1) sigma_j.
    """
    mode = ExpansionMode(mode)
    b = _boundary_integrals(curve, J, mode)
    c = [a * b.powers[j] / b.area for j, a in enumerate(_curvature_prefactors(J))]
    for j, s in _exact_terms(b, J, mode).items():
        c[j - 1] = gamma_half_value(j) * s
    return LargeSSeries(tuple(c))
