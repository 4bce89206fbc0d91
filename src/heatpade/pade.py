"""Two-sided rational interpolation of the Laplace-transformed survival probability.

A monic [n/n+2] rational P(s)/Q(s) is fitted simultaneously to

* the first n+2 coefficients of the 1/s expansion of tau(s) beyond the
  automatic 1/s^2 leading term, and
* the parity of the Maclaurin expansion at s = 0, whose odd coefficients
  d_1, d_3, ..., d_(2n-1) must vanish.

This yields 2n+2 polynomial equations for the n numerator and n+2
denominator coefficients.  The large-s equations fix the denominator as
a linear function q = W p~ of p~ = (p_0, ..., p_(n-1), 1), which leaves
n equations in the n numerator unknowns p.  Cleared of division they are
the odd coefficients of P(s) Q(-s): n quadratic forms F_r = p~ M_r p~ / 2,
with at most 2^n isolated roots.
Every constant comes from one series, of 1/(s^2 tau) in 1/s, built once
per solve and exactly: each c_j is a double, so the series and the
arrays of the highest order, whose leading blocks are every lower
order's, are Python integers over one power of two.  Those arrays are
rounded once to doubles, and ``_homotopy_endpoints`` finds every root of
one order from them, with no randomness and no starting guess: order 1's
by the quadratic formula, and order n's by a total-degree homotopy that
follows one path to each root on the tracker of ``tracking``.
``selected_rows`` solves order 1 that way and climbs to the highest
requested order, each along one path from the row below (``_step``): a
row is the same whatever other orders are requested.  A real endpoint
becomes a solution only when Newton on the exact residuals of the same
integers reaches a step below 1e-20 (relative to 1 + |p|) within 8
steps, and the polished q0 is not 0: the one acceptance rule, so the
roots are the same doubles from any start.  ``build_residuals`` writes
the conditions out a second way, multiplying the polynomials out, as an
independent check.
The denominator root pair closest to the origin estimates the lowest
Dirichlet eigenvalue via lambda_1 = Im[s]^2.

A moment-truncation estimator (Prony-type, by Gauss quadrature) recovering
(lambda_j, gamma_j^2) pairs from the even Maclaurin coefficients is also
provided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IllConditioned, NoSolutionFound, UnsupportedOrder
from .heat_content import LargeSSeries
from .series import quotient
from .tracking import track

# Bound on the scaled ``build_residuals`` norm, ||r|| / (1 + ||x||), of an
# accepted solution: a bound for the reference check, not a rule of the
# solver, which accepts on the polish alone.
RESIDUAL_ACCEPT = 1e-10
# A pole and a numerator zero closer than this, relative to 1 + |pole|,
# form a Froissart doublet: a lower-order interpolant in disguise.
DOUBLET_GAP = 1e-6
# Two homotopy endpoints this close, relative to 1 + |p|, mean a path jumped.
_DEDUP_TOL = 1e-8
# F is quadratic, so Newton from a point whose coefficients ran off
# towards infinity only halves p at each step, and its step never
# becomes small: this cap refuses such a start.  From a double-precision
# endpoint the second step is already below the stop rule.
_POLISH_MAX_ITER = 8
# Largest Re of a pole a physical solution may have.
_RE_SLACK = 1e-3
# Total-degree homotopy (``_homotopy_endpoints``) and one-path step
# (``_step``).  Only finitely many phases of gamma let a path pass
# through a singular point for t < 1; a fixed gamma away from the real
# axis makes the tracking reproducible.
_GAMMA = 0.6 + 0.8j
# Endpoints this close to real, relative to 1 + |p|, are polished.
_REAL_TOL = 1e-6
# Highest order the solver takes.  Total degree tracks 2^n paths at
# order n, so its time and memory about double per order: the disk's
# order alone takes 1.9 CPU s at n = 10, 4.4 s at n = 11 and 14 s at
# n = 12, and the process peaks at 40, 53 and 81 MB (one core of a
# 2-core Xeon, single-threaded BLAS).  Only ``solve_interpolation`` pays
# this: ``selected_rows`` tracks one path per order above 1.  At n = 40
# the start array alone would need 640 TiB.
MAX_ORDER = 12


@dataclass(frozen=True)
class PadeApproximant:
    """Monic rational [n/n+2]: (p0 + ... + p_(n-1) s^(n-1) + s^n) / (q0 + ... + s^(n+2))."""

    n: int
    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if len(self.p) != self.n or len(self.q) != self.n + 2:
            raise ValueError("coefficient counts must be n and n+2 (leading 1s implicit)")

    def numerator(self):
        """Ascending coefficients including the leading 1."""
        return np.append(self.p, 1.0)

    def denominator(self):
        return np.append(self.q, 1.0)


@dataclass(frozen=True)
class PadeSolution:
    approximant: PadeApproximant
    poles: tuple
    small_s_coeffs: tuple  # (d0, d2, d4, d6)

    @property
    def n(self):
        return self.approximant.n

    @property
    def closest_pole(self) -> complex | None:
        """The pole with Im > 0 nearest the origin, or None if every pole is real."""
        return min((z for z in self.poles if z.imag > 0), key=abs, default=None)

    @property
    def lambda1(self) -> float | None:
        """Im[s]^2 of ``closest_pole``: the lowest Dirichlet eigenvalue estimate."""
        closest = self.closest_pole
        return closest.imag**2 if closest is not None else None


def _require_terms(c: LargeSSeries, n: int):
    """Order n reads c_1..c_(n+2); a shorter series is a usage error."""
    if len(c.c) < n + 2:
        raise ValueError(f"need large-s coefficients c_1..c_{n + 2}, got {len(c.c)}")


def build_residuals(c: LargeSSeries, n: int):
    """Residual map (p, q) -> 2n+2 values; zero exactly at an interpolating rational.

    The large-s conditions are the coefficients of
    P(s) s^(n+4) - Q(s) (s^(n+2) + sum_j c_j s^(n+2-j)) at degrees
    n+2 .. 2n+3 (the top degree cancels by monicity).  The small-s
    conditions are the odd Maclaurin coefficients d_1, d_3, ..., d_(2n-1)
    of P/Q, from ``quotient`` (q0 must stay nonzero).  The large-s rows use
    no division, so they check ``_division_free_system`` independently.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    _require_terms(c, n)
    m_desc = np.concatenate([[1.0], np.asarray(c.c[: n + 2])])  # coeff of s^(n+2-i)
    m_asc = m_desc[::-1].copy()

    def residuals(x):
        x = np.asarray(x)
        p_full = np.concatenate([x[:n], [1.0]])
        q_full = np.concatenate([x[n:], [1.0]])
        # Large-s: polynomial coefficient matching after clearing powers of s.
        shifted = np.concatenate([np.zeros(n + 4, dtype=x.dtype), p_full])
        qm = np.convolve(q_full, m_asc)
        F = shifted - qm
        large = F[n + 2 : 2 * n + 4]
        return np.concatenate([large, quotient(p_full.tolist(), q_full.tolist(), 2 * n)[1::2]])

    return residuals


def poles(approx: PadeApproximant):
    """All n+2 roots of the denominator, Newton-refined, with near-real roots made real.

    A root whose Newton step is not finite is left unrefined.  The
    eigenvalues of Q's real companion matrix come in exact conjugate pairs,
    and the Newton step keeps them exact; adding 0.0 turns a -0.0 real
    part into +0.0.
    """
    q_desc = approx.denominator()[::-1]
    roots = np.roots(q_desc)
    # A near-multiple root can have a zero or subnormal Q'(z), whose step
    # is not finite; such a root keeps its companion-matrix value.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = np.polyval(q_desc, roots) / np.polyval(np.polyder(q_desc), roots)
        refined = np.where(np.isfinite(step), roots - step, roots)
    out = [
        complex(z.real, 0.0) if abs(z.imag) <= 1e-8 * (1.0 + abs(z))
        else complex(z.real + 0.0, z.imag)
        for z in refined
    ]
    return tuple(sorted(out, key=lambda w: (abs(w), w.imag)))


def pole_zero_gap(sol: PadeSolution) -> float:
    """Smallest |zero - pole| / (1 + |pole|) over numerator zeros and poles (inf if none)."""
    zeros = np.roots(sol.approximant.numerator()[::-1])
    return min(
        (abs(z - w) / (1.0 + abs(w)) for z in zeros for w in sol.poles), default=math.inf
    )


def _make_solution(n: int, x) -> PadeSolution:
    approx = PadeApproximant(n=n, p=tuple(x[:n]), q=tuple(x[n:]))
    d = quotient(approx.numerator().tolist(), approx.denominator().tolist(), 7)
    return PadeSolution(
        approximant=approx,
        poles=poles(approx),
        small_s_coeffs=(d[0], d[2], d[4], d[6]),
    )


def _inverse_series(c: LargeSSeries, n: int):
    """inv_0..inv_(n+2) of 1/M(u), M(u) = s^2 tau(s) in u = 1/s, exactly: (integers, scale).

    Every c_j is a double and ``quotient`` divides by 1 only, so inv_k is
    integers[k] / scale, ``scale`` a power of two.  inv_k depends on
    c_1..c_k alone; past a c_j that is not finite it is NaN.
    """
    c = c.c[: n + 2]
    k = next((j for j, v in enumerate(c) if not math.isfinite(v)), n + 2)
    inv = quotient([Fraction(1)], [Fraction(1), *map(Fraction, c[:k])], k + 1)
    scale = math.lcm(*(v.denominator for v in inv))
    integers = [v.numerator * (scale // v.denominator) for v in inv]
    return np.array(integers + [math.nan] * (n + 2 - k), dtype=object), scale


def _system_arrays(inv, n: int):
    """The constant arrays of ``_division_free_system`` at order n: (M, W).

    ``inv`` is an array holding at least inv_0..inv_(n+2), in any
    arithmetic.  With p~ = (p_0, ..., p_(n-1), 1) the ascending
    coefficients of P, the denominator is q_0..q_(n+2) = W p~ and
    F_r = p~ M_r p~ / 2 for r = 0..n-1, M_r symmetric.
    """
    zero = 0 * inv[0]
    # inv_k at index k + 2n, with inv_k = 0 for k < 0.
    ext = np.concatenate([np.full(2 * n, zero, dtype=inv.dtype), inv[: n + 3]])
    j, i = np.ogrid[: n + 3, : n + 1]
    W = ext[2 * n + 2 + i - j]
    # Coefficient 2r+1 of P(s) Q(-s) pairs p~_i with (-1)^(i+1) q_(2r+1-i)
    # = sum_m (-1)^(i+1) inv_(1+i+m-2r) p~_m, and with 0 for i > 2r+1.
    r, i, m = np.ogrid[:n, : n + 1, : n + 1]
    v = ext[2 * n + np.where(i <= 2 * r + 1, 1 + i + m - 2 * r, -1)]
    K = np.where(i % 2 == 1, v, -v)
    return K + K.transpose(0, 2, 1), W


def _quadratics(L, p):
    """F and J at each row of p, from one order's L.

    L[b, (r, a)] = M_r[b, a], so that p~ @ L is G = M p~ with p~ = (p, 1);
    then F = G p~ / 2 and J = G[:, :n].
    """
    pt = np.concatenate([p, np.ones((len(p), 1))], axis=1)
    G = (pt @ L).reshape(len(p), -1, pt.shape[1])
    return (G @ pt[:, :, None])[..., 0] / 2, G[..., :-1]


def _division_free_system(M, W, scale: int):
    """The order-n quadratics F(p), their Jacobian in p and the denominator, exactly.

    F is the odd coefficients 1, 3, ..., 2n-1 of P(s) Q(-s), with
    q = W p~ fixed by the large-s conditions: in u = 1/s they say
    u^(n+2) Q(1/u) = u^n P(1/u) / M(u) mod u^(n+3), M(u) = s^2 tau(s), so
    q_j = sum_i p~_i inv_(2+i-j) with p~ = (p, 1) and inv = 1/M, integers
    over ``scale`` from ``_inverse_series`` (inv_k = 0 for k < 0).  Since
    P(s)/Q(s) - P(-s)/Q(-s) = 2 odd(P(s) Q(-s)) / (Q(s) Q(-s)), F vanishes
    exactly where the small-s conditions hold, as long as q0 != 0; unlike
    d_odd it has no division, so it is n quadratics in p.

    The quadratics are the constant arrays (M, W) of ``_system_arrays``,
    integers over ``scale``: the coefficient of s^(2r+1) in P(s) Q(-s) is
    F_r = p~ M_r p~ / 2, so with G = M p~ the Jacobian is J = G[:, :n].
    Returns ``(at, denominator)``.  At p = P / d, integers P over a power
    of two d, ``at(P, d)`` -> (F, J), each rounded once from its exact
    integer quotient, and ``denominator(P, d)`` -> q_0..q_(n+1) = W p~ as
    integers over one integer.
    """
    n = len(M)

    def at(P, d):
        # With P~ = (P, d), G = M P~ / (d scale) and F = M P~ . P~ / (2 d^2 scale).
        Pt = np.append(P, d)
        Gd = M @ Pt
        return (Gd @ Pt / (2 * d * d * scale)).astype(float), (Gd[:, :n] / (d * scale)).astype(float)

    def denominator(P, d):
        return W[:-1] @ np.append(P, d), d * scale

    return at, denominator


def _dyadic(values):
    """Finite doubles as (integers, d): values[i] = integers[i] / d exactly, d a power of two."""
    ratios = [float(v).as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    return np.array([num * (d // den) for num, den in ratios], dtype=object), d


def _polish_extended(system, p0):
    """Newton on exact rational residuals of ``system`` from p0; the (p, q) doubles, or None.

    Each step evaluates F and J at p = P / d, integers over a power of
    two, rounded once from their exact quotients, and adds the
    correction, solved in doubles and split by ``_dyadic``, to P at the
    larger power of two: iterative refinement (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., 2002, ch. 12).  A step
    shrinks the error by cond(J) u on top of Newton's square, so after a
    step of at most 1e-20 (1 + max |p|) the next is about cond(J) 1e-36,
    which cannot move a double at any cond(J) where the refinement
    converges: Newton stops there and rounds p and q once.  A singular J,
    a step that is not finite, an F or J beyond the double range, or no
    such step within ``_POLISH_MAX_ITER`` gives None.
    """
    at, denominator = system
    P, d = _dyadic(p0)
    try:
        for _ in range(_POLISH_MAX_ITER):
            F, J = at(P, d)
            step = np.linalg.solve(J, -F)
            if not np.isfinite(step).all():
                return None
            S, e = _dyadic(step)
            P, d = P * max(1, e // d) + S * max(1, d // e), max(d, e)
            if np.max(np.abs(step)) <= 1e-20 * (1 + max(abs(v / d) for v in P)):
                Q, D = denominator(P, d)
                return np.array([v / d for v in P] + [v / D for v in Q])
    except (np.linalg.LinAlgError, OverflowError):
        pass  # a singular J, or an F or J beyond the double range
    return None


def _homotopy_endpoints(M):
    """Finite roots of one order's quadratics from their doubles M: shape (roots, n).

    Order 1's F = (a p^2 + 2 b p + c) / 2, M_0 = [[a, b], [b, c]], has the
    roots r / a and c / r, with r = -(b +- sqrt(b^2 - a c)) and the sign
    that makes |r| largest, so that no root is lost to cancellation; a
    root that is not finite, as r / a where a = 0, is a root at infinity.
    At order n > 1 the 2^n paths of H = (1 - t) gamma (p_i^2 - 1) + t F(p)
    start at (+-1, ..., +-1) at t = 0.  With the complex gamma of Morgan's
    trick every path is regular for t < 1, so the paths reach every
    isolated root of F at t = 1 (A. Morgan, "Solving Polynomial Systems
    Using Continuation", 1987).  ``NoSolutionFound`` is raised when a path
    stalls (at order 1, when M is not finite), or when two roots coincide
    within ``_DEDUP_TOL``: at order n > 1 a path jumped to another, so the
    root set would be incomplete.
    """
    n = len(M)
    if n == 1:
        [[a, b], [_, c]] = M[0]
        with np.errstate(all="ignore"):
            d = np.sqrt(b * b - a * c)
            r = -(b + d if abs(b + d) >= abs(b - d) else b - d)
            roots = np.array([[r / a], [c / r]])
        ends, stalled = roots[np.isfinite(roots[:, 0])], not np.isfinite(M).all()
    else:
        L = M.transpose(1, 0, 2).reshape(n + 1, -1)

        def homotopy(p, t):
            F, J = _quadratics(L, p)
            G = _GAMMA * (p**2 - 1.0)
            s, r = t[:, None], 1.0 - t[:, None]
            Hp = s[:, :, None] * J
            Hp.reshape(len(p), n * n)[:, :: n + 1] += r * (_GAMMA * 2.0 * p)
            return r * G + s * F, Hp, G - F

        starts = np.array(list(itertools.product((1.0, -1.0), repeat=n)), dtype=complex)
        p, t, stalled = track(homotopy, starts)
        ends, stalled = p[t >= 1.0], stalled.any()
    if stalled:
        raise NoSolutionFound(f"a homotopy path stalled at a finite point at order {n}")
    bound = _DEDUP_TOL * (1.0 + np.linalg.norm(ends, axis=1))
    for i in range(len(ends)):
        if np.any(np.linalg.norm(ends[i + 1 :] - ends[i], axis=1) <= np.maximum(bound[i + 1 :], bound[i])):
            raise NoSolutionFound(f"two homotopy paths ended at the same root at order {n}")
    return ends


def solver_orders(orders):
    """``orders`` as ascending ints, each an integer from 1 to ``MAX_ORDER``.

    A numpy integer becomes the int it holds.  A bool or a float, 2.0
    too, raises ``ValueError`` naming it, as do no order at all and an
    order below 1; an order past ``MAX_ORDER`` raises ``UnsupportedOrder``.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("no order was given")
    for n in orders:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"order must be an integer, got {n!r}")
    orders = sorted(int(n) for n in orders)
    if orders[0] < 1:
        raise ValueError(f"order must be >= 1, got {orders[0]}")
    if orders[-1] > MAX_ORDER:
        raise UnsupportedOrder(f"the solver stops at order {MAX_ORDER}, got {orders[-1]}")
    return orders


def _systems(c: LargeSSeries, n: int):
    """Orders 1..n's (``_division_free_system``, M tracked), off one exact system.

    ``_system_arrays`` is built once, at order n, and its M rounded once
    to complex doubles (+-inf past the double range) for tracking: every
    lower order's arrays are leading blocks of these.
    """
    _require_terms(c, n)
    inv, scale = _inverse_series(c, n)
    M, W = _system_arrays(inv, n)

    def rounded(v):
        try:
            return v / scale
        except OverflowError:
            return math.inf if v > 0 else -math.inf if v < 0 else v  # NaN stays NaN

    tracked = np.vectorize(rounded, otypes=[complex])(M)
    return [(_division_free_system(M[:k, : k + 1, : k + 1], W[: k + 3, : k + 1], scale),
             tracked[:k, : k + 1, : k + 1]) for k in range(1, n + 1)]


def _accepted(n: int, system, ends):
    """The real interpolants of order n among ``ends``, rows of complex p: polished and ordered."""
    real = np.abs(ends.imag).max(axis=1) <= _REAL_TOL * (1.0 + np.linalg.norm(ends, axis=1))
    if not real.any():
        raise NoSolutionFound(f"none of the {len(ends)} finite roots of order {n} is real")
    accepted = []
    for p in ends[real].real:
        x = _polish_extended(system, p)
        if x is None or x[n] == 0.0 or any(np.array_equal(x, y) for y in accepted):
            continue
        accepted.append(x)
    if not accepted:
        raise NoSolutionFound(f"none of the {real.sum()} real roots of order {n} polished")
    solutions = [_make_solution(n, x) for x in accepted]
    return sorted(solutions, key=lambda s: (abs(s.closest_pole.real) if s.closest_pole else math.inf,
                                            s.approximant.p))


def _step(row: PadeSolution, tracked):
    """The end point of one path from ``row``, order n - 1's, to order n: shape (0 or 1, n).

    P_(n-1)(s) (s + 5n) is order n - 1's interpolant with a pole-zero
    doublet at s = -5n; its first n coefficients p0 start the one path of
    the Newton homotopy gamma (1 - t) (F(p) - F(p0)) + t F(p), with F
    order n's quadratics on ``tracked``, its M rounded once: coefficient-
    parameter continuation (A. Morgan and A. Sommese, Appl. Math. Comput.
    29, 1989).  Divided by D = gamma (1 - t) + t, which moves no path, it
    is H = F(p) - mu F(p0) with mu = gamma (1 - t) / D, so H_p = J and
    -H_t = mu'(t) F(p0) = -gamma F(p0) / D^2.  A path that stalls or runs
    to infinity has no end point.  The shift 5n is an observation on the
    disk: smaller shifts often end on a complex root.
    """
    n = len(tracked)
    L = tracked.transpose(1, 0, 2).reshape(n + 1, -1)
    p0 = np.convolve(row.approximant.numerator(), [5.0 * n, 1.0])[None, :n].astype(complex)
    with np.errstate(all="ignore"):
        F0 = _quadratics(L, p0)[0]

    def homotopy(p, t):
        F, J = _quadratics(L, p)
        g = _GAMMA * (1.0 - t[:, None])
        D = g + t[:, None]
        return F - g / D * F0, J, -_GAMMA / D**2 * F0

    ends, t, _ = track(homotopy, p0)
    return ends[t >= 1.0]


def solve_interpolation(
    c: LargeSSeries,
    n: int,
    seed: int = 0,
    n_multistart: int = 200,
):
    """Every real interpolant of order n, from all roots of the reduced system.

    The reduced system is n quadratics in the n numerator unknowns p (the
    large-s conditions fix the denominator), so it has at most 2^n
    isolated roots, and ``_homotopy_endpoints`` finds all of them.  Each
    endpoint with |Im p| below ``_REAL_TOL`` (1 + |p|) is polished by
    Newton on exact rational residuals (``_polish_extended``, in dyadic
    integers), and kept when the polish converges to a point with
    q0 != 0: F vanishes at the parity conditions only where q0 != 0.  That
    is the only acceptance rule.  A polished root is the same doubles from
    any start, so accepted roots that are equal doubles are one root.
    They are ordered by ascending |Re| of the closest complex pole
    (solutions without one come last), and ties by p.
    ``NoSolutionFound`` says whether a path failed, no root was real or no
    real root passed the polish.

    The search has no randomness and no starting guess: ``seed`` and
    ``n_multistart`` are accepted for compatibility and have no effect.
    """
    [n] = solver_orders([n])
    system, tracked = _systems(c, n)[-1]
    return _accepted(n, system, _homotopy_endpoints(tracked))


def selected_rows(c: LargeSSeries, orders):
    """The selected physical solution at each of ``orders``, in ascending order.

    Every order from 1 to the highest of ``orders`` is solved, off one
    exact system, and only the rows of ``orders`` are returned, so a row
    is the same doubles whatever other orders are requested.  Order 1's
    roots come from ``_homotopy_endpoints``, and each order above from
    ``_step``, one path from the row below; ``_accepted`` screens and
    polishes the end points and ``select_solution`` picks the row, as in
    ``solve_interpolation``.  A stepped row is one every checked case
    shows total degree would pick too, but no path proves it.  The first
    failing order raises, requested or not; above order 1 the error names
    the step to it and why it gave no row.
    """
    orders = solver_orders(orders)
    [(system, tracked), *above] = _systems(c, orders[-1])
    rows = [select_solution(_accepted(1, system, _homotopy_endpoints(tracked)))]
    for n, (system, tracked) in enumerate(above, start=2):
        ends = _step(rows[-1], tracked)
        try:
            if not len(ends):
                raise NoSolutionFound("its path stalled or ran to infinity")
            rows.append(select_solution(_accepted(n, system, ends)))
        except NoSolutionFound as exc:
            raise NoSolutionFound(f"the step from order {n - 1} to order {n} failed: {exc}") from exc
    return [rows[n - 1] for n in orders]


def ladder(
    c: LargeSSeries,
    n_max: int,
    seed: int = 0,
    n_multistart: int = 200,
):
    """Selected physical solution at each order n = 1..n_max.

    The rows of ``selected_rows`` at orders 1..n_max; ``seed`` and
    ``n_multistart`` have no effect.
    """
    [n_max] = solver_orders([n_max])
    return selected_rows(c, range(1, n_max + 1))


def select_solution(solutions) -> PadeSolution:
    """Physical-solution filter: positive tau(0), stable poles, a complex pole pair, no doublet.

    A solution is a Froissart doublet, and is rejected, when some
    numerator zero lies within ``DOUBLET_GAP`` of a pole relative to
    1 + |pole| (see ``pole_zero_gap``): the pair nearly cancels, so the
    solution is a lower-order interpolant in disguise.  Among survivors
    the solution whose closest pole sits nearest the imaginary axis is
    returned.
    """
    survivors = []
    for sol in solutions:
        p0 = sol.approximant.p[0] if sol.approximant.p else 1.0
        q0 = sol.approximant.q[0]
        if not (p0 > 0 and q0 > 0):
            continue
        if sol.closest_pole is None:
            continue
        if any(z.real > _RE_SLACK for z in sol.poles):
            continue
        if pole_zero_gap(sol) < DOUBLET_GAP:
            continue
        survivors.append(sol)
    if not survivors:
        raise NoSolutionFound("no accepted solution passes the physical filter")
    return min(survivors, key=lambda s: abs(s.closest_pole.real))


def prony_moments(d, m: int):
    """Recover (lambda_j, gamma_j^2) for j = 1..m from even Maclaurin coefficients.

    ``d`` holds d_0, d_2, ..., d_(4m-2); the moments mu_k = (-1)^k d_(2k)
    satisfy mu_k = sum_j gamma_j^2 / lambda_j^(k+1).  With x_j = 1/lambda_j
    this is the m-point Gauss quadrature of a positive measure with these
    power moments: Chebyshev's algorithm turns the moments into the
    three-term recurrence, and the nodes x_j and weights follow from the
    symmetric tridiagonal Jacobi matrix (Golub-Welsch; Gautschi,
    "Orthogonal Polynomials", 2004, sec. 2.1.7).  This loses little beyond
    the conditioning of the moments themselves, where an unsymmetric
    Hankel pencil loses orders of magnitude more.  ``IllConditioned`` is
    raised when the moment Hankel matrix is numerically singular or the
    moments are not those of a positive measure on x > 0.  Results are
    sorted by ascending lambda.
    """
    d = np.asarray([float(v) for v in d])
    if m < 1:
        raise ValueError(f"need m >= 1 modes, got {m}")
    if len(d) < 2 * m:
        raise ValueError(f"need 2m = {2 * m} coefficients, got {len(d)}")
    mu = np.array([(-1) ** k * d[k] for k in range(2 * m)])
    H0 = np.array([[mu[i + j] for j in range(m)] for i in range(m)])
    if np.linalg.cond(H0) > 1e13:
        raise IllConditioned("moment Hankel matrix is numerically singular")
    # Chebyshev's algorithm: sigma_k,l = integral of pi_k(x) x^l, with the
    # monic orthogonal polynomials pi_(k+1) = (x - alpha_k) pi_k - beta_k pi_(k-1).
    alpha = np.zeros(m)
    beta = np.zeros(m)
    alpha[0] = mu[1] / mu[0]
    beta[0] = mu[0]
    sigma_prev = np.zeros(2 * m)
    sigma = mu.copy()
    for k in range(1, m):
        nxt = np.zeros(2 * m)
        for l in range(k, 2 * m - k):
            nxt[l] = sigma[l + 1] - alpha[k - 1] * sigma[l] - beta[k - 1] * sigma_prev[l]
        alpha[k] = nxt[k + 1] / nxt[k] - sigma[k] / sigma[k - 1]
        beta[k] = nxt[k] / sigma[k - 1]
        sigma_prev, sigma = sigma, nxt
    if not (np.all(np.isfinite(alpha)) and np.all(beta > 0)):
        raise IllConditioned("moments are not those of a positive measure")
    off = np.sqrt(beta[1:])
    x, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    if np.any(x <= 0):
        raise IllConditioned("moment eigenvalues are not positive")
    lam = 1.0 / x
    gamma_sq = beta[0] * vecs[0] ** 2 * lam
    order = np.argsort(lam)
    return [(float(lam[j]), float(gamma_sq[j])) for j in order]
