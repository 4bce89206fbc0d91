import dataclasses
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fourier_curves, random_fourier_curve
from heatpade import pade, tracking
from heatpade.errors import (
    DegenerateDenominator,
    IllConditioned,
    NoSolutionFound,
    UnsupportedOrder,
)
from heatpade.geometry import Disk, Ellipse, FourierCurve
from heatpade.heat_content import SAVO_MAX_ORDER, ExpansionMode, LargeSSeries, tau_large_s_series
from heatpade.pade import (
    DOUBLET_GAP,
    RESIDUAL_ACCEPT,
    PadeApproximant,
    PadeSolution,
    build_residuals,
    _homotopy_endpoints,
    _make_solution,
    _polish_extended,
    _quadratics,
    _system_arrays,
    ladder,
    pole_zero_gap,
    poles,
    prony_moments,
    select_solution,
    selected_rows,
    solve_interpolation,
)
from heatpade.series import maclaurin_tau_disk, quotient


def _systems(c, orders):
    """Each order's (exact, tracked) pair, off one exact system."""
    pairs = pade._systems(c, max(orders))
    return [pairs[n - 1] for n in orders]


def _exact_system(c, n):
    """The exact rational system ``solve_interpolation`` hands to the polish."""
    return _systems(c, [n])[0][0]


def _quadratics_of(M):
    """F and J at rows of p from one order's M, laid out as the homotopy lays it out."""
    return lambda p: _quadratics(M.transpose(1, 0, 2).reshape(len(M) + 1, -1), p)


def _tracked_at(c, n):
    """F and J at rows of complex p on the doubles the homotopy tracks at order n."""
    return _quadratics_of(_systems(c, [n])[0][1])


def _endpoints(c, n):
    """``_homotopy_endpoints`` on order n's tracked doubles."""
    return _homotopy_endpoints(_systems(c, [n])[0][1])


def _digits_system(c, n, num):
    """The order-n system built in ``num`` arithmetic (``mpmath.mpf``): (at, denominator).

    The series of 1/(s^2 tau) comes from ``quotient`` in that arithmetic,
    and F, J and q = W (p, 1) are evaluated on object arrays.
    """
    one = num(1)
    inv = np.array(quotient([one], [one] + [num(v) for v in c.c[: n + 2]], n + 3), dtype=object)
    M, W = _system_arrays(inv, n)
    return _quadratics_of(M), (lambda p: W[:-1] @ np.array([*p, one], dtype=object))


def _polish_50_digits(system, p0):
    """Reference polish: Newton in 50-digit mpmath on ``system`` built from ``mpf``.

    It stops on the same rule as ``_polish_extended``, a step no larger
    than 1e-20 (1 + max |p|) within ``_POLISH_MAX_ITER`` steps, and gives
    None on a singular pivot or when no such step comes.
    """
    from mpmath import mp, mpf

    at, denominator = system
    with mp.workdps(50):
        tol = mpf(10) ** -20
        p = [mpf(v) for v in p0]
        for _ in range(pade._POLISH_MAX_ITER):
            F, J = at(np.array([p], dtype=object))
            try:
                step = mp.lu_solve(mp.matrix(J[0].tolist()), mp.matrix([-v for v in F[0]]))
            except (ZeroDivisionError, TypeError):
                # mpmath signals a singular pivot either way.
                return None
            p = [pi + si for pi, si in zip(p, step)]
            if max(abs(v) for v in step) <= tol * (1 + max(abs(v) for v in p)):
                return np.array([float(v) for v in [*p, *denominator(p)]])
        return None


def _back_substitution_denominator(m_asc, p):
    """Monic denominator q_0..q_(n+1) fixed by the large-s conditions, solved row by row.

    ``m_asc`` holds c_(n+2), ..., c_1, 1.  The condition at degree n+2+j
    of P s^(n+4) - Q M reads p_(j-2) = sum_(i>=j) q_i m_(n+2+j-i), and its
    coefficient of q_j is m_(n+2) = 1, so back-substitution from j = n+1
    down to 0 gives q exactly, in any arithmetic, with no series division.
    """
    n = len(p)
    q = [0] * (n + 2) + [1]
    for j in range(n + 1, -1, -1):
        acc = p[j - 2] if j >= 2 else 0
        for i in range(j + 1, n + 3):
            acc = acc - q[i] * m_asc[n + 2 + j - i]
        q[j] = acc
    return q[:-1]


@pytest.fixture(scope="module")
def disk_series():
    return tau_large_s_series(Disk(), 9)


@pytest.fixture(scope="module")
def disk_ladder(disk_series):
    return ladder(disk_series, 3)


@pytest.fixture(scope="module")
def disk_solution_sets(disk_series):
    """Every solution at n = 1..3."""
    return [solve_interpolation(disk_series, n) for n in range(1, 4)]


class TestBuildResiduals:
    def test_equation_count(self, disk_series):
        res = build_residuals(disk_series, 4)
        x = np.ones(10)
        assert res(x).shape == (10,)

    def test_zero_at_solution(self, disk_series, disk_ladder):
        for sol in disk_ladder:
            res = build_residuals(disk_series, sol.n)
            x = np.concatenate([sol.approximant.p, sol.approximant.q])
            assert np.max(np.abs(res(x))) < 1e-10 * (1.0 + np.max(np.abs(x)))

    def test_degenerate_denominator(self, disk_series):
        res = build_residuals(disk_series, 2)
        x = np.ones(6)
        x[2] = 0.0  # q0
        with pytest.raises(DegenerateDenominator):
            res(x)

    def test_needs_enough_coefficients(self):
        with pytest.raises(ValueError):
            build_residuals(LargeSSeries((1.0, 2.0)), 2)

    def test_order_zero_is_refused(self, disk_series):
        with pytest.raises(ValueError, match="^order must be >= 1$"):
            build_residuals(disk_series, 0)


def _coefficient_lists(approx):
    """Ascending numerator and denominator coefficients, leading 1s included."""
    return approx.numerator().tolist(), approx.denominator().tolist()


class TestRationalSeries:
    @pytest.mark.parametrize(
        "p, q", [((), (1.0, 0.5, 0.25)), ((0.0, 1.0), (1.0, 0.5, 0.25)), ((0.0,), (1.0, 0.5))]
    )
    def test_wrong_coefficient_counts_are_refused(self, p, q):
        with pytest.raises(ValueError, match=r"^coefficient counts must be n and n\+2 "):
            PadeApproximant(n=1, p=p, q=q)

    def test_zero_numerator_constant(self):
        # P(s) = s (p0 = 0) over a denominator with q0 = 1: d0 = 0.
        approx = PadeApproximant(n=1, p=(0.0,), q=(1.0, 0.5, 0.25))
        d = quotient(*_coefficient_lists(approx), 4)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(1.0)  # P/Q = s (1 - q1 s - ...) near 0

    def test_odd_coefficients_vanish_at_solution(self, disk_ladder):
        for sol in disk_ladder:
            d = quotient(*_coefficient_lists(sol.approximant), 2 * sol.n + 1)
            assert np.max(np.abs(d[1 : 2 * sol.n : 2])) < 1e-8

    def test_infinity_matches_input_series(self, disk_series, disk_ladder):
        for sol in disk_ladder:
            # Reversed, P/Q is a series in 1/s that starts at the 1/s^2 term.
            P, Q = _coefficient_lists(sol.approximant)
            e = quotient(P[::-1], Q[::-1], sol.n + 3)
            assert e[0] == pytest.approx(1.0)  # 1/s^2 coefficient, monic
            scale = np.max(np.abs(np.concatenate([sol.approximant.p, sol.approximant.q])))
            for j in range(1, sol.n + 3):
                assert e[j] == pytest.approx(disk_series.c[j - 1], abs=1e-12 * max(scale, 1.0))


class TestPoles:
    def test_pure_quadratic(self):
        lam = 5.783186
        approx = PadeApproximant(n=0, p=(), q=(lam, 0.0))
        got = poles(approx)
        assert got[0] == pytest.approx(complex(0.0, -math.sqrt(lam)))
        assert got[1] == pytest.approx(complex(0.0, math.sqrt(lam)))

    @given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_pairs(self, q):
        approx = PadeApproximant(n=2, p=(1.0, 1.0), q=tuple(q))
        got = poles(approx)
        assert len(got) == 4
        for z in got:
            assert got.count(z) == got.count(z.conjugate())

    def test_newton_refinement_accuracy(self):
        roots = [-1.0, -2.0, complex(-0.5, 2.0), complex(-0.5, -2.0)]
        coeffs = np.real(np.poly(roots))[::-1]  # ascending, monic
        approx = PadeApproximant(n=2, p=(0.0, 0.0), q=tuple(coeffs[:-1]))
        got = poles(approx)
        for z in roots:
            assert min(abs(z - w) for w in got) < 1e-10

    @pytest.mark.parametrize(
        "q, expected",
        [
            # Q = s^2: Q'(0) = 0, so the step is not finite and the roots stay.
            ((0.0, 0.0), [("0x0.0p+0", "0x0.0p+0")] * 2),
            # Q = (s + 1)^2 (s^2 + 4): a double root beside a pair.
            (
                (4.0, 8.0, 5.0, 2.0),
                [
                    ("-0x1.ffffffb6a3a7dp-1", "0x0.0p+0"),
                    ("-0x1.00000024ae2c3p+0", "0x0.0p+0"),
                    ("-0x1.0a3d70a3d709ep-54", "-0x1.0000000000000p+1"),
                    ("-0x1.0a3d70a3d709ep-54", "0x1.0000000000000p+1"),
                ],
            ),
        ],
    )
    def test_pinned_bits(self, q, expected):
        n = len(q) - 2
        got = poles(PadeApproximant(n=n, p=(0.0,) * n, q=q))
        assert [(z.real.hex(), z.imag.hex()) for z in got] == expected


class TestSolveInterpolation:
    def test_disk_n1_table_row(self, disk_ladder):
        sol = disk_ladder[0]
        d = sol.small_s_coeffs
        expected = (0.1743, -0.07472, 0.008383, -0.00004709)
        for got, ref in zip(d, expected):
            assert got == pytest.approx(ref, rel=1e-2)
        assert sol.closest_pole.imag == pytest.approx(1.756, rel=1e-2)

    def test_ordering_and_acceptance(self, disk_series):
        sols = solve_interpolation(disk_series, 2)
        res = [abs(s.closest_pole.real) if s.closest_pole else math.inf for s in sols]
        assert res == sorted(res)
        # The reference check, independent of the solver's acceptance rule.
        residuals = build_residuals(disk_series, 2)
        for s in sols:
            x = np.concatenate([s.approximant.p, s.approximant.q])
            assert np.linalg.norm(residuals(x)) / (1.0 + np.linalg.norm(x)) < RESIDUAL_ACCEPT

    def test_acceptance_needs_no_reference_check(self, disk_series, monkeypatch):
        # The polish alone accepts a root: ``build_residuals`` is not called.
        want = solve_interpolation(disk_series, 4)

        def refuse(c, n):
            raise AssertionError("the solver evaluated the reference residuals")

        monkeypatch.setattr(pade, "build_residuals", refuse)
        got = solve_interpolation(disk_series, 4)
        assert [s.approximant for s in got] == [s.approximant for s in want]

    def test_zero_q0_is_not_accepted(self, disk_series, monkeypatch):
        # F vanishes at the parity conditions only where q0 != 0, so a
        # polished point with q0 = 0 is skipped, not passed to a division.
        n = 2

        def zero_q0(system, p0):
            x = np.concatenate([p0, np.ones(n + 2)])
            x[n] = 0.0
            return x

        monkeypatch.setattr(pade, "_polish_extended", zero_q0)
        with pytest.raises(NoSolutionFound, match=f"real roots of order {n} polished$"):
            solve_interpolation(disk_series, n)

    def test_deterministic(self):
        # The case where the former random multistart gave a different
        # solution set from run to run.
        c = tau_large_s_series(Ellipse(b=1.0, eps=0.4), 6, ExpansionMode.SAVO_EXACT)
        runs = [
            solve_interpolation(c, 4),
            solve_interpolation(c, 4),
            solve_interpolation(c, 4, seed=0, n_multistart=200),
            solve_interpolation(c, 4, seed=42, n_multistart=120),
        ]

        def bits(sols):
            return [[v.hex() for v in s.approximant.p + s.approximant.q] for s in sols]

        assert len(runs[0]) == 4
        for sols in runs[1:]:
            assert bits(sols) == bits(runs[0])

    def test_scale_covariance(self):
        # Poles for R=2 are exactly half the R=1 poles.
        c2 = tau_large_s_series(Disk(R=2.0), 5)
        c1 = tau_large_s_series(Disk(R=1.0), 5)
        s1 = select_solution(solve_interpolation(c1, 2))
        s2 = select_solution(solve_interpolation(c2, 2))
        assert s2.closest_pole == pytest.approx(s1.closest_pole / 2.0, rel=1e-9)
        assert s2.lambda1 == pytest.approx(s1.lambda1 / 4.0, rel=1e-9)

    def test_monotone_im_with_order(self, disk_ladder):
        ims = [sol.closest_pole.imag for sol in disk_ladder]
        assert all(b > a for a, b in zip(ims, ims[1:]))

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_selection_is_seed_independent(self, disk_series, disk_ladder, seed):
        # seed and n_multistart are accepted and have no effect.
        rows = ladder(disk_series, 3, seed=seed, n_multistart=120)
        assert [r.approximant for r in rows] == [r.approximant for r in disk_ladder]

    def test_re_shrinks_with_order(self, disk_ladder):
        res = [abs(sol.closest_pole.real) for sol in disk_ladder]
        assert res[2] < res[1]


class TestSelection:
    def test_physical_filter(self, disk_series):
        sols = solve_interpolation(disk_series, 2)
        chosen = select_solution(sols)
        assert chosen.approximant.p[0] > 0
        assert chosen.approximant.q[0] > 0
        assert chosen.closest_pole.imag > 0
        assert all(z.real <= 1e-3 for z in chosen.poles)

    def test_empty_filter_raises(self):
        approx = PadeApproximant(n=1, p=(-1.0,), q=(1.0, 1.0, 1.0))
        fake = _fake_solution(approx)
        with pytest.raises(NoSolutionFound):
            select_solution([fake])

    def test_lone_doublet_raises(self, disk_ladder):
        doublet = _doublet(disk_ladder[1], 50.0)
        assert pole_zero_gap(doublet) < DOUBLET_GAP
        with pytest.raises(NoSolutionFound):
            select_solution([doublet])

    def test_doublet_loses_to_genuine(self, disk_ladder):
        genuine = disk_ladder[1]
        doublet = _doublet(disk_ladder[2], 50.0)
        # Without the doublet rule the doublet would win on |Re|.
        assert abs(doublet.closest_pole.real) < abs(genuine.closest_pole.real)
        assert select_solution([doublet, genuine]) is genuine

    def test_only_real_poles_are_dropped(self, disk_ladder):
        # p0, q0 > 0 and no unstable pole, but Q = (s + 1)(s + 2)(s + 3)
        # has no complex pole pair to read lambda_1 off.
        real = _make_solution(1, np.array([4.0, 6.0, 11.0, 6.0]))
        assert real.closest_pole is None
        assert select_solution([real, disk_ladder[0]]) is disk_ladder[0]
        with pytest.raises(NoSolutionFound):
            select_solution([real])

    def test_ladder_rows_are_not_doublets(self, disk_ladder):
        assert all(pole_zero_gap(sol) > 1e-2 for sol in disk_ladder)

    def test_lambda1_extraction(self):
        lam = 5.783186
        sol = _make_solution(0, np.array([lam, 0.0]))
        assert sol.lambda1 == pytest.approx(lam, rel=1e-12)
        assert sol.lambda1 == sol.closest_pole.imag**2
        assert abs(sol.closest_pole) ** 2 == pytest.approx(lam, rel=1e-12)

    def test_no_complex_pole(self):
        sol = _make_solution(0, np.array([-1.0, 0.0]))  # roots +-1, real
        assert sol.closest_pole is None
        assert sol.lambda1 is None
        with pytest.raises(NoSolutionFound):
            select_solution([sol])

    def test_pole_follows_replaced_poles(self):
        sol = _make_solution(0, np.array([4.0, 0.0]))  # poles +-2i
        assert sol.lambda1 == 4.0
        moved = dataclasses.replace(sol, poles=(complex(-1.0, -3.0), complex(-1.0, 3.0)))
        assert moved.closest_pole == complex(-1.0, 3.0)
        assert moved.lambda1 == 9.0
        real = dataclasses.replace(sol, poles=(complex(1.0, 0.0), complex(-1.0, 0.0)))
        assert real.closest_pole is None and real.lambda1 is None


class TestExactDerivatives:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_reduced_jacobian_matches_central_differences(self, disk_series, n):
        # The Jacobian of the extended-precision system the polish solves.
        # F is quadratic, so central differences have no truncation error;
        # taken in 40 digits, a step of 1e-15 leaves no rounding error in
        # double precision either.
        from mpmath import mp, mpf

        rng = np.random.default_rng(n)
        with mp.workdps(40):
            at, _ = _digits_system(disk_series, n, mpf)
            h = mpf(10) ** -15
            for _ in range(3):
                p = np.array([[mpf(v) for v in rng.normal(size=n)]], dtype=object)
                J = np.array([[float(v) for v in row] for row in at(p)[1][0]])
                assert J.shape == (n, n)
                for j in range(n):
                    e = np.array([h if i == j else 0 for i in range(n)], dtype=object)
                    up, down = at(p + e)[0][0], at(p - e)[0][0]
                    fd = np.array([float((a - b) / (2 * h)) for a, b in zip(up, down)])
                    assert np.max(np.abs(J[:, j] - fd)) <= 1e-12 * np.max(np.abs(fd))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reduced_system_float_matches_mpf(self, disk_series, n):
        # One formulation serves every arithmetic: the double-precision
        # system the homotopy tracks is the same system in 50 digits, rounded.
        from mpmath import mp, mpf

        at = _tracked_at(disk_series, n)
        rng = np.random.default_rng(100 + n)
        for scale in (1.0, 100.0):
            p = scale * rng.normal(size=(1, n))
            F, J = at(p.astype(complex))
            with mp.workdps(50):
                at_mp, _ = _digits_system(disk_series, n, mpf)
                F_mp, J_mp = at_mp(np.array([[mpf(v) for v in p[0]]], dtype=object))
            for got, ref in ((F, F_mp), (J, J_mp)):
                ref = np.array([float(v) for v in ref.ravel()])
                assert got.size == ref.size
                assert np.max(np.abs(got.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_large_s_denominator_is_exact(self, disk_series, n):
        # The polish takes q from the system's own W (p, 1), read off the
        # series of 1/(s^2 tau); to 50 digits it must meet the large-s rows
        # of build_residuals, which multiply the polynomials out instead.
        from mpmath import mp, mpf

        with mp.workdps(50):
            _, denominator = _digits_system(disk_series, n, mpf)
            residuals = build_residuals(disk_series, n)
            rng = np.random.default_rng(200 + n)
            for _ in range(3):
                p = [mpf(v) for v in rng.normal(scale=10.0, size=n)]
                q = list(denominator(p))
                assert len(q) == n + 2
                x = np.array(p + q, dtype=object)
                large = residuals(x)[: n + 2]
                assert max(abs(v) for v in large) < mpf(10) ** -40 * (1 + max(abs(v) for v in x))

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_system_denominator_is_back_substitution(self, disk_series, n):
        # The exact system's W (p, 1), read off the series of 1/(s^2 tau),
        # must be the denominator that back-substitution through the
        # large-s rows gives, exactly.
        _, denominator = _exact_system(disk_series, n)
        m_asc = [Fraction(v) for v in disk_series.c[: n + 2]][::-1] + [Fraction(1)]
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            P, d = pade._dyadic(rng.normal(scale=10.0, size=n))
            Q, D = denominator(P, d)
            q = [Fraction(v, D) for v in Q]
            assert len(q) == n + 2
            assert q == _back_substitution_denominator(m_asc, [Fraction(v, d) for v in P])

    def test_polish_confirms_every_solution(self, disk_series, disk_solution_sets):
        # The reduced system is n quadratics in n unknowns: at most 2^n
        # isolated roots (Bezout).  Every solution must be one the
        # exact-residual Newton confirms, so polishing it again returns it
        # unchanged.
        for n, sols in enumerate(disk_solution_sets, start=1):
            assert 1 <= len(sols) <= 2**n
            system = _exact_system(disk_series, n)
            for sol in sols:
                x = np.array(sol.approximant.p + sol.approximant.q)
                assert np.array_equal(_polish_extended(system, x[:n]), x)

    def test_polish_rejects_runaway_quickly(self, disk_series):
        # Numerators p where a local least-squares solve of the n = 2 disk
        # system ended after its coefficients ran away.
        at, denominator = _exact_system(disk_series, 2)
        runaways = []
        for p in (
            ("-0x1.8954edd430df8p+49", "-0x1.22b608834c230p+49"),
            ("-0x1.2c68fd45d1f46p+51", "-0x1.bc10c94d187c1p+50"),
            ("-0x1.5947d8f91dfa2p+49", "-0x1.fe64a288d0bf6p+48"),
        ):
            p = [float.fromhex(v) for v in p]
            Q, D = denominator(*pade._dyadic(p))
            q = [v / D for v in Q]
            runaways.append(np.array(p + q))
        # Runaways: coefficients grown without bound while the reference
        # residual, scaled by 1 + ||x||, stays below its bound.
        res = build_residuals(disk_series, 2)
        for x in runaways:
            scaled = np.linalg.norm(res(x)) / (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(x) > 1e12 and scaled < RESIDUAL_ACCEPT

        calls = []

        def counting_at(P, d):
            calls.append(1)
            return at(P, d)

        for x in runaways:
            calls.clear()
            assert _polish_extended((counting_at, denominator), x[:2]) is None
            assert 1 <= len(calls) <= 10

    @pytest.mark.parametrize(
        "p0", [(1e200, -1e200), (1e160, 3e150), (1e308,), (0.0, 0.0, 0.0)]
    )
    def test_polish_failure_is_none(self, disk_series, p0):
        # An F or J beyond the double range, or a singular J, gives no root.
        assert _polish_extended(_exact_system(disk_series, len(p0)), p0) is None

    def test_polish_infinite_step_is_none(self):
        # F = 1e300 over J = 1e-300: the step in doubles overflows to inf.
        def at(P, d):
            return np.array([1e300]), np.array([[1e-300]])

        assert _polish_extended((at, None), [1.0]) is None

    _EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308)

    @given(
        st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_DOUBLES)),
            min_size=1,
            max_size=8,
        )
    )
    @example(list(_EDGE_DOUBLES))
    def test_dyadic_split_is_exact(self, values):
        # The polish holds p, and adds each double step to it, as integers
        # over one power of two.
        P, d = pade._dyadic(np.array(values))
        assert type(d) is int and d > 0 and d & (d - 1) == 0
        assert all(type(v) is int for v in P)
        assert [Fraction(v, d) for v in P] == [Fraction(v) for v in values]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_dyadic_split_refuses_what_fraction_refuses(self, value):
        with pytest.raises((OverflowError, ValueError)) as refused:
            Fraction(value)
        with pytest.raises(refused.type):
            pade._dyadic(np.array([1.0, value]))

    def test_polish_matches_50_digit_newton(self):
        # From every real homotopy endpoint the exact-residual Newton and
        # a 50-digit Newton give the same doubles, or both give None.
        from mpmath import mp, mpf

        disk = tau_large_s_series(Disk(), 11)
        ellipse = tau_large_s_series(Ellipse(b=1.0, eps=0.4), 6, ExpansionMode.SAVO_EXACT)
        count = 0
        for c, orders in ((disk, range(1, 10)), (ellipse, range(1, 5))):
            for n in orders:
                ends = _endpoints(c, n)
                size = 1.0 + np.linalg.norm(ends, axis=1)
                real = ends[np.abs(ends.imag).max(axis=1) <= pade._REAL_TOL * size].real
                exact = _exact_system(c, n)
                with mp.workdps(50):
                    reference = _digits_system(c, n, mpf)
                for p in real:
                    got, want = _polish_extended(exact, p), _polish_50_digits(reference, p)
                    assert (got is None and want is None) or np.array_equal(got, want)
                count += len(real)
        assert count == 56

    def test_polish_returns_the_row(self, disk_series):
        sol = select_solution(solve_interpolation(disk_series, 4))
        assert sol.closest_pole.imag == pytest.approx(2.1775, rel=1e-4)
        x = np.array(sol.approximant.p + sol.approximant.q)
        start = x[:4] * (1.0 + 1e-6 * np.random.default_rng(0).normal(size=4))
        assert np.array_equal(_polish_extended(_exact_system(disk_series, 4), start), x)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_polish_work(self, disk_series, monkeypatch, n):
        # From a homotopy endpoint the second Newton step already meets the
        # stop rule, and each step evaluates F and J once.
        polish = pade._polish_extended
        polishes = []

        def counting_polish(system, p0):
            at, denominator = system
            evals = []

            def counting_at(P, d):
                evals.append(1)
                return at(P, d)

            x = polish((counting_at, denominator), p0)
            polishes.append((x, len(evals)))
            return x

        monkeypatch.setattr(pade, "_polish_extended", counting_polish)
        sols = solve_interpolation(disk_series, n)
        accepted = [evals for x, evals in polishes if x is not None]
        assert len(accepted) >= len(sols)
        assert all(1 <= evals <= 2 for evals in accepted)


class TestQuadraticForms:
    """The solver's arrays against the product P(s) Q(-s), multiplied out in Fractions."""

    @staticmethod
    def _inv(c, n):
        one = Fraction(1)
        return np.array(quotient([one], [one, *c], n + 3), dtype=object)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_forms_are_the_odd_coefficients_of_p_times_q_of_minus_s(self, n):
        rng = np.random.default_rng(300 + n)
        c = [Fraction(int(v), 64) for v in rng.integers(-256, 257, size=n + 2)]
        M, W = _system_arrays(self._inv(c, n), n)
        m_asc = c[::-1] + [Fraction(1)]
        for _ in range(3):
            nums, powers = rng.integers(-999, 1000, size=n), rng.integers(0, 12, size=n)
            p = [Fraction(int(v), 2 ** int(e)) for v, e in zip(nums, powers)]
            pt = np.array([*p, Fraction(1)], dtype=object)
            q = _back_substitution_denominator(m_asc, p) + [Fraction(1)]
            assert list(W @ pt) == q
            product = [Fraction(0)] * (2 * n + 3)
            for i, a in enumerate(pt):
                for j, b in enumerate(q):
                    product[i + j] += a * (-1) ** j * b
            assert [pt @ M[r] @ pt / 2 for r in range(n)] == product[1 : 2 * n : 2]

    def test_each_order_is_a_leading_block_of_the_highest(self):
        rng = np.random.default_rng(400)
        c = [Fraction(int(v), 64) for v in rng.integers(-256, 257, size=14)]
        inv = self._inv(c, 12)
        M, W = _system_arrays(inv, 12)
        for k in range(1, 12):
            Mk, Wk = _system_arrays(inv, k)
            assert Mk.shape == (k, k + 1, k + 1) and Wk.shape == (k + 3, k + 1)
            assert np.array_equal(Mk, M[:k, : k + 1, : k + 1]) and np.array_equal(Wk, W[: k + 3, : k + 1])


class TestHomotopy:
    @pytest.mark.parametrize("n, n_real", [(1, 2), (2, 2), (3, 2), (4, 4), (5, 4), (6, 8)])
    def test_every_path_ends_at_a_distinct_root(self, disk_series, n, n_real):
        ends = _endpoints(disk_series, n)
        assert ends.shape == (2**n, n)
        assert np.isfinite(ends).all()
        size = 1.0 + np.linalg.norm(ends, axis=1)
        gap = np.linalg.norm(ends[:, None] - ends[None], axis=2) / np.maximum.outer(size, size)
        assert np.min(gap + np.identity(len(ends))) > 1e-3
        real = np.abs(ends.imag).max(axis=1) <= 1e-6 * size
        assert real.sum() == n_real

    @pytest.mark.parametrize("n", range(1, 7))
    def test_system_vanishes_at_every_solution(self, disk_series, n):
        at = _tracked_at(disk_series, n)
        for sol in solve_interpolation(disk_series, n):
            p, q = np.array(sol.approximant.p), np.array(sol.approximant.q)
            F, _ = at(p[None].astype(complex))
            assert np.linalg.norm(F) <= 1e-10 * (1.0 + np.linalg.norm(p)) * (1.0 + np.linalg.norm(q))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_jacobian_matches_central_differences(self, disk_series, n):
        at = _tracked_at(disk_series, n)
        rng = np.random.default_rng(n)
        p = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        _, J = at(p)
        h = 1e-6
        for j in range(n):
            e = h * np.identity(n)[j]
            fd = (at(p + e)[0] - at(p - e)[0]) / (2 * h)
            assert np.allclose(J[:, :, j], fd, rtol=1e-7, atol=1e-7 * np.max(np.abs(fd)))

    @staticmethod
    def _tracking_calls(c, n, monkeypatch):
        """Batched F/J evaluations of one ``_homotopy_endpoints`` run, which must keep every root."""
        quadratics = pade._quadratics
        calls = []

        def counting(*args):
            calls.append(1)
            return quadratics(*args)

        monkeypatch.setattr(pade, "_quadratics", counting)
        assert len(_endpoints(c, n)) == 2**n
        return len(calls)

    @pytest.mark.parametrize("n, max_calls", [(4, 332), (7, 966)])
    def test_tracking_work(self, disk_series, monkeypatch, n, max_calls):
        # Each bound is half the F/J evaluations of an Euler predictor
        # with step cap 0.05 (664 at n = 4, 1932 at n = 7).
        assert 0 < self._tracking_calls(disk_series, n, monkeypatch) <= max_calls

    @pytest.mark.parametrize("n, calls", [(1, 0), (2, 49)], ids=["1", "2"])
    def test_no_round_after_the_last_full_step(self, disk_series, monkeypatch, n, calls):
        # A round is 4 predictor stages and 3 corrector steps.  Order 1
        # tracks no path: its roots come from the quadratic formula.  At
        # n = 2 two of the four paths fail their first step of 0.2 and go
        # on from 0.1 in steps of 0.1, 0.15, 0.2, 0.2, 0.2 and a last one
        # of 0.15 to t = 1: seven rounds in all.
        assert self._tracking_calls(disk_series, n, monkeypatch) == calls

    @staticmethod
    def _replace_tracked(monkeypatch, k, replace):
        """Order k's tracked M becomes ``replace(M)``; every other order's stays."""
        systems = pade._systems

        def replaced(c, n):
            return [(exact, replace(M) if order == k else M)
                    for order, (exact, M) in enumerate(systems(c, n), start=1)]

        monkeypatch.setattr(pade, "_systems", replaced)

    @classmethod
    def _stall_order(cls, monkeypatch, k):
        """Make every path of order k stall: its tracked F is not finite anywhere."""

        def broken(M):
            M = M.copy()
            M[:, k, k] = np.nan  # twice F's constant term
            return M

        cls._replace_tracked(monkeypatch, k, broken)

    def test_stall_fails_only_its_own_order(self, disk_series, monkeypatch):
        self._stall_order(monkeypatch, 3)
        with pytest.raises(NoSolutionFound, match="^a homotopy path stalled at a finite point at order 3$"):
            _endpoints(disk_series, 3)
        assert [len(_endpoints(disk_series, n)) for n in (1, 2, 4)] == [2, 4, 16]
        # The climb's one path to order 3 stalls too, and its error says so.
        with pytest.raises(NoSolutionFound, match="^the step from order 2 to order 3 failed: its path "
                                                  "stalled or ran to infinity$"):
            ladder(disk_series, 4)
        assert len(ladder(disk_series, 2)) == 2

    def test_singular_jacobian_fails_only_its_own_order(self, disk_series, monkeypatch):
        # With order 3's tracked M zero, its H_p at t = 1 is singular,
        # which the batched solve refuses: a row's step there is NaN and
        # fails until the path stalls, and only order 3 fails.
        want = {n: _endpoints(disk_series, n) for n in (1, 2, 4)}
        self._replace_tracked(monkeypatch, 3, lambda M: 0 * M)
        with pytest.raises(NoSolutionFound, match="^a homotopy path stalled at a finite point at order 3$"):
            _endpoints(disk_series, 3)
        assert all(np.array_equal(_endpoints(disk_series, n), want[n]) for n in (1, 2, 4))
        assert len(ladder(disk_series, 2)) == 2

    def test_one_stalled_row_fails_its_order(self, disk_series, monkeypatch):
        # The tracker flags rows; one stalled row of order 2's four fails
        # that order, and no other.
        track = pade.track

        def one_stall(homotopy, p):
            ends, t, stalled = track(homotopy, p)
            if len(p) == 4:
                stalled[3] = True
            return ends, t, stalled

        monkeypatch.setattr(pade, "track", one_stall)
        with pytest.raises(NoSolutionFound, match="^a homotopy path stalled at a finite point at order 2$"):
            _endpoints(disk_series, 2)
        assert [len(_endpoints(disk_series, n)) for n in (1, 3)] == [2, 8]

    def test_first_failing_order_raises(self, disk_series, monkeypatch):
        # Selection fails at order 2 and a path of order 4 stalls: as when
        # the orders are solved one by one, order 2's error is raised, and
        # the climb's names the step to order 2.
        self._stall_order(monkeypatch, 4)
        select = pade.select_solution

        def refuse_order_2(solutions):
            if solutions[0].n == 2:
                raise NoSolutionFound("order 2 refused")
            return select(solutions)

        monkeypatch.setattr(pade, "select_solution", refuse_order_2)
        with pytest.raises(NoSolutionFound, match="^the step from order 1 to order 2 failed: order 2 refused$"):
            ladder(disk_series, 4)
        with pytest.raises(NoSolutionFound, match="^order 2 refused$"):
            [refuse_order_2(solve_interpolation(disk_series, n)) for n in range(1, 5)]

    def test_stalled_path_raises(self, disk_series, monkeypatch):
        # No corrector step can pass, so every step size collapses short of t = 1.
        monkeypatch.setattr(tracking, "_CORRECTOR_TOL", -1.0)
        with pytest.raises(NoSolutionFound):
            solve_interpolation(disk_series, 2)

    def test_no_real_root_is_reported(self):
        # Every endpoint at eps = 0.95, n = 5 is far from real: |Im p| / (1 + |p|) >= 0.24.
        c = tau_large_s_series(Ellipse(b=1.0, eps=0.95), 7)
        with pytest.raises(NoSolutionFound, match="none of the 32 finite roots of order 5 is real"):
            solve_interpolation(c, 5)

    def test_failed_polish_is_reported(self, disk_series, monkeypatch):
        monkeypatch.setattr(pade, "_polish_extended", lambda system, p0: None)
        with pytest.raises(NoSolutionFound, match="none of the 2 real roots of order 2 polished"):
            solve_interpolation(disk_series, 2)

    def test_repeated_endpoint_is_one_root(self, disk_series, monkeypatch):
        # An endpoint found twice, the second time 1e-10 off, polishes to the
        # same doubles, so the solution set does not change.
        n = 4
        homotopy = pade._homotopy_endpoints

        def repeated(M):
            ends = homotopy(M)
            size = 1.0 + np.linalg.norm(ends, axis=1)
            real = ends[np.abs(ends.imag).max(axis=1) <= pade._REAL_TOL * size]
            return np.vstack([ends, real[:1] * (1.0 + 1e-10)])

        want = solve_interpolation(disk_series, n)
        monkeypatch.setattr(pade, "_homotopy_endpoints", repeated)
        got = solve_interpolation(disk_series, n)
        assert [s.approximant for s in got] == [s.approximant for s in want]

    def test_path_past_the_bound_goes_to_infinity(self, disk_series, monkeypatch):
        monkeypatch.setattr(tracking, "_AT_INFINITY", 10.0)
        ends = _endpoints(disk_series, 3)
        assert 0 < len(ends) < 8
        assert np.all(np.linalg.norm(ends, axis=1) <= 10.0)


class TestOneExactSystem:
    """A solve builds one exact series; the homotopy tracks its arrays rounded once."""

    def test_one_series_per_ladder(self, disk_series, monkeypatch):
        series = pade._inverse_series
        calls = []

        def counting(c, n):
            calls.append(n)
            return series(c, n)

        monkeypatch.setattr(pade, "_inverse_series", counting)
        assert len(ladder(disk_series, 7)) == 7
        assert calls == [7]

    @pytest.mark.parametrize(
        "shape, mode, n_max",
        [(Disk(), ExpansionMode.CURVATURE_APPROX, 7), (Ellipse(b=1.0, eps=0.5), ExpansionMode.SAVO_EXACT, 4)],
    )
    def test_tracked_constants_are_the_exact_ones_rounded_once(self, monkeypatch, shape, mode, n_max):
        # Every M the ladder solves: order 1's, and each step's.
        c = tau_large_s_series(shape, n_max + 2, mode)
        homotopy, step = pade._homotopy_endpoints, pade._step
        seen = []

        def capture_endpoints(tracked):
            seen.append(tracked)
            return homotopy(tracked)

        def capture_step(row, tracked):
            seen.append(tracked)
            return step(row, tracked)

        monkeypatch.setattr(pade, "_homotopy_endpoints", capture_endpoints)
        monkeypatch.setattr(pade, "_step", capture_step)
        ladder(c, n_max)
        assert sorted({len(got) for got in seen}) == list(range(1, n_max + 1))
        # The arrays in Fractions, apart from the solver's integers over a power of two.
        one = Fraction(1)
        inv = np.array(quotient([one], [one] + [Fraction(v) for v in c.c], n_max + 3), dtype=object)
        for got in seen:
            exact, _ = _system_arrays(inv, len(got))
            want = np.array([float(v) for v in exact.flat]).reshape(exact.shape)
            assert got.dtype == complex and np.array_equal(got, want)

    @pytest.mark.parametrize("value", [1e300, math.inf, math.nan, 1e-300])
    def test_series_past_the_double_range_has_no_solution(self, value):
        # The exact constants of (1e300,) * 6 pass the double range; rounded,
        # they are +-inf, and every path stalls instead of raising OverflowError.
        # Those of (1e-300,) * 6 lose their 1e-600 terms to underflow, so B
        # and H_p at t = 1 are singular: a path stalls instead of raising
        # LinAlgError.
        with pytest.raises(NoSolutionFound):
            solve_interpolation(LargeSSeries((value,) * 6), 3)

    @pytest.mark.parametrize("solve", [solve_interpolation, ladder])
    @pytest.mark.parametrize("terms", [(), (-2.0,), (-2.0, 0.5, 0.1)])
    def test_short_series_is_a_usage_error(self, solve, terms):
        # Order 2 reads c_1..c_4; a missing c_j is not read as 0.
        with pytest.raises(ValueError, match=f"^need large-s coefficients c_1..c_4, got {len(terms)}$"):
            solve(LargeSSeries(terms), 2)

    @pytest.mark.parametrize("solve", [solve_interpolation, ladder])
    def test_order_past_the_ceiling_is_refused(self, solve, monkeypatch):
        def refuse(*args):
            raise AssertionError("an order past the ceiling must be refused before any work")

        monkeypatch.setattr(pade, "_inverse_series", refuse)
        monkeypatch.setattr(pade, "_homotopy_endpoints", refuse)
        with pytest.raises(UnsupportedOrder, match="stops at order 12, got 13$"):
            solve(tau_large_s_series(Disk(), 15), 13)

    @pytest.mark.parametrize(
        "solve", [solve_interpolation, ladder, lambda c, n: selected_rows(c, [1, n])],
        ids=["solve_interpolation", "ladder", "selected_rows"],
    )
    @pytest.mark.parametrize(
        "order, message",
        [pytest.param(v, f"order must be an integer, got {v!r}", id=repr(v))
         for v in (2.5, 2.0, True, np.float64(2.0), "2")]
        + [pytest.param(0, "order must be >= 1, got 0", id="0")],
    )
    def test_order_must_be_a_positive_integer(self, disk_series, solve, order, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve(disk_series, order)

    def test_no_order_is_a_usage_error(self, disk_series):
        with pytest.raises(ValueError, match="^no order was given$"):
            selected_rows(disk_series, [])

    def test_numpy_integer_orders_are_ints(self, disk_series, disk_ladder):
        rows = selected_rows(disk_series, [np.int64(2), np.uint8(1)])
        assert [type(r.n) for r in rows] == [int, int]
        assert [r.approximant for r in rows] == [r.approximant for r in disk_ladder[:2]]
        assert type(solve_interpolation(disk_series, np.int32(1))[0].n) is int
        assert type(ladder(disk_series, np.int64(1))[0].n) is int

    def test_order_at_the_ceiling_is_tracked(self, monkeypatch):
        class Tracked(Exception):
            pass

        def stop(tracked):
            raise Tracked

        monkeypatch.setattr(pade, "_homotopy_endpoints", stop)
        with pytest.raises(Tracked):
            solve_interpolation(tau_large_s_series(Disk(), 14), pade.MAX_ORDER)

    def test_only_the_orders_that_read_an_infinite_coefficient_fail(self, disk_series, disk_ladder):
        # Order n reads c_1..c_(n+2), so an infinite c_5 leaves orders 1 and 2
        # whole; order 3's tracked M is not finite, and its one path stalls.
        c = LargeSSeries(disk_series.c[:4] + (math.inf,) + disk_series.c[5:])
        rows = selected_rows(c, [1, 2])
        assert [r.approximant for r in rows] == [r.approximant for r in disk_ladder[:2]]
        with pytest.raises(NoSolutionFound, match="^the step from order 2 to order 3 failed: its path "
                                                  "stalled or ran to infinity$"):
            ladder(c, 3)


def _corpus():
    with open(Path(__file__).parent / "data" / "solve_corpus.json") as fh:
        return json.load(fh)


def _hex_rows(rows):
    return [([v.hex() for v in r.approximant.p], [v.hex() for v in r.approximant.q]) for r in rows]


def _outcome(solve):
    """``solve()``'s rows as float hex, or the message of the ``NoSolutionFound`` it raises."""
    try:
        return _hex_rows(solve())
    except NoSolutionFound as exc:
        return str(exc)


def _assert_tracked_rows_are_the_complete_ones(c, n_max):
    """``selected_rows`` to n_max against each order's selection among all its roots, order by order.

    Up to the first order whose complete solve fails, the rows are the same
    doubles.  There the climb fails too: at order 1 with the same error,
    which comes from the same roots, and above it with an error that says
    the step to that order failed.
    """
    tracked = _outcome(lambda: selected_rows(c, range(1, n_max + 1)))
    complete = []
    for n in range(1, n_max + 1):
        got = _outcome(lambda: [select_solution(solve_interpolation(c, n))])
        if isinstance(got, str):
            want = re.escape(got) if n == 1 else f"the step from order {n - 1} to order {n} failed: "
            assert isinstance(tracked, str) and re.match(f"^{want}", tracked), (tracked, got)
            return
        complete += got
    assert tracked == complete


def _order_1_by_total_degree(M):
    """Order 1's roots as total degree finds them: two paths of gamma (1 - t) (p^2 - 1) + t F(p) from +-1."""
    at = _quadratics_of(M)

    def homotopy(p, t):
        F, J = at(p)
        G = pade._GAMMA * (p**2 - 1.0)
        s, r = t[:, None], 1.0 - t[:, None]
        return r * G + s * F, s[:, :, None] * J + (r * pade._GAMMA * 2.0 * p)[:, :, None], G - F

    ends, t, stalled = tracking.track(homotopy, np.array([[1.0], [-1.0]], dtype=complex))
    if stalled.any():
        raise NoSolutionFound("a homotopy path stalled at a finite point at order 1")
    ends = ends[t >= 1.0]
    if len(ends) == 2 and abs(ends[0, 0] - ends[1, 0]) <= pade._DEDUP_TOL * (1.0 + np.abs(ends).max()):
        raise NoSolutionFound("two homotopy paths ended at the same root at order 1")
    return ends


class TestOrderOne:
    """Order 1's roots by the quadratic formula, against its two-path total-degree homotopy."""

    @staticmethod
    def _series():
        # The corpus' c_1..c_3, which are all order 1 reads, and 300 of them
        # perturbed, enough to flip signs: about a third have no real root.
        base = [[float.fromhex(v) for v in case["c"][:3]] for case in _corpus()]
        rng = np.random.default_rng(44)
        picks = rng.integers(len(base), size=300)
        return base + [list(np.array(base[i]) * (1.0 + rng.normal(size=3))) for i in picks]

    def test_formula_gives_the_total_degree_rows(self):
        outcomes = set()
        for c in self._series():
            [(system, M)] = _systems(LargeSSeries(c), [1])
            got = _outcome(lambda: pade._accepted(1, system, _homotopy_endpoints(M)))
            assert got == _outcome(lambda: pade._accepted(1, system, _order_1_by_total_degree(M)))
            outcomes.add(len(got) if isinstance(got, list) else got)
        assert outcomes == {2, "none of the 2 finite roots of order 1 is real"}

    def test_roots_are_the_formulas(self):
        M = np.array([[[1.0, -3.0], [-3.0, 2.0]]], dtype=complex)  # p^2 - 6 p + 2
        r = 3.0 + math.sqrt(7.0)
        assert np.array_equal(_homotopy_endpoints(M), [[r], [2.0 / r]])

    # The degenerate systems: M_0 = [[a, b], [b, c]], F = (a p^2 + 2 b p + c) / 2.
    _STALLED = "^a homotopy path stalled at a finite point at order 1$"
    _SAME_ROOT = "^two homotopy paths ended at the same root at order 1$"

    def test_a_zero_leading_coefficient_leaves_one_root(self):
        # F = p - 3/2: the other root is at infinity.  Total degree's two
        # paths both ended at 3/2, which it refused.
        M = np.array([[[0.0, 1.0], [1.0, -3.0]]], dtype=complex)
        assert np.array_equal(_homotopy_endpoints(M), [[1.5]])
        with pytest.raises(NoSolutionFound, match=self._SAME_ROOT):
            _order_1_by_total_degree(M)

    def test_a_constant_has_no_root(self):
        # F = 1/2: both roots are at infinity, where total degree stalled.
        M = np.array([[[0.0, 0.0], [0.0, 1.0]]], dtype=complex)
        ends = _homotopy_endpoints(M)
        assert ends.shape == (0, 1)
        with pytest.raises(NoSolutionFound, match="^none of the 0 finite roots of order 1 is real$"):
            pade._accepted(1, None, ends)
        with pytest.raises(NoSolutionFound, match=self._STALLED):
            _order_1_by_total_degree(M)

    @pytest.mark.parametrize("entry", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1)], ids=["a", "c"])
    def test_a_non_finite_system_stalls(self, entry, where):
        M = np.array([[[1.0, 0.5], [0.5, -1.0]]], dtype=complex)
        M[(0, *where)] = entry
        for solve in (_homotopy_endpoints, _order_1_by_total_degree):
            with pytest.raises(NoSolutionFound, match=self._STALLED):
                solve(M)

    def test_a_double_root_is_two_paths_at_one_root(self):
        # F = (p - 2)^2 / 2: total degree stalled at the singular root.
        M = np.array([[[1.0, -2.0], [-2.0, 4.0]]], dtype=complex)
        with pytest.raises(NoSolutionFound, match=self._SAME_ROOT):
            _homotopy_endpoints(M)
        with pytest.raises(NoSolutionFound, match=self._STALLED):
            _order_1_by_total_degree(M)


# r = 1 + 0.25 cos 3 phi: 0.25 (3^2 - 1) > 1, so the curve is not convex.
_NON_CONVEX = FourierCurve((1.0, 0.0, 0.0, 0.25), (0.0, 0.0, 0.0))


@st.composite
def _solver_cases(draw):
    """A random shape and coefficient mode, with the highest order it takes up to 6."""
    shape = draw(st.one_of(fourier_curves(), st.floats(0.0, 0.95).map(lambda e: Ellipse(b=1.0, eps=e))))
    mode = draw(st.sampled_from(ExpansionMode))
    return shape, mode, SAVO_MAX_ORDER - 2 if mode is ExpansionMode.SAVO_EXACT else 6


class TestTrackedRows:
    """A ladder's orders above 1 are tracked from the row below, one path each; a failed step raises."""

    @pytest.mark.parametrize(
        "shape, mode, n_max",
        [pytest.param(Disk(), ExpansionMode.CURVATURE_APPROX, 9, id="disk")]
        + [pytest.param(Ellipse(b=1.0, eps=e), mode, n_max, id=f"ellipse-{mode.value}-{e}")
           for mode, n_max in [(ExpansionMode.CURVATURE_APPROX, 7), (ExpansionMode.SAVO_EXACT, 4)]
           for e in (0.2, 0.5, 0.8)]
        + [pytest.param(random_fourier_curve(np.random.default_rng(seed)), ExpansionMode.CURVATURE_APPROX, 6,
                        id=f"fourier-{seed}") for seed in (0, 1, 2, 3, 4, 13)]
        + [pytest.param(_NON_CONVEX, ExpansionMode.CURVATURE_APPROX, 6, id="non-convex")]
        + [pytest.param(Ellipse(b=1.0, eps=0.95), ExpansionMode.CURVATURE_APPROX, 7, id="ellipse-curvature-0.95")],
    )
    def test_tracked_rows_are_the_complete_ones(self, shape, mode, n_max):
        # Row for row the same doubles, then a failure at the same order:
        # the step fails at order 5 of eps = 0.95 and order 6 of fourier-13,
        # where the complete solve of that order fails too.
        _assert_tracked_rows_are_the_complete_ones(tau_large_s_series(shape, n_max + 2, mode), n_max)

    @given(_solver_cases())
    @example((Ellipse(b=1.0, eps=0.95), ExpansionMode.CURVATURE_APPROX, 6))
    @example((random_fourier_curve(np.random.default_rng(13)), ExpansionMode.CURVATURE_APPROX, 6))
    @example((_NON_CONVEX, ExpansionMode.CURVATURE_APPROX, 6))
    @settings(max_examples=50, deadline=None)
    def test_tracked_rows_are_the_complete_ones_on_random_shapes(self, case):
        # As above, on shapes Hypothesis draws; the examples are the cases
        # above where a step fails, and the non-convex curve.
        shape, mode, n_max = case
        _assert_tracked_rows_are_the_complete_ones(tau_large_s_series(shape, n_max + 2, mode), n_max)

    @staticmethod
    def _paths(monkeypatch, fail_steps=False):
        """The rows of each ``track`` call; with ``fail_steps`` every one-path step stalls at t = 0."""
        track = pade.track
        paths = []

        def counting(homotopy, p):
            paths.append(len(p))
            if fail_steps and len(p) == 1:
                return p.copy(), np.zeros(1), np.ones(1, dtype=bool)
            return track(homotopy, p)

        monkeypatch.setattr(pade, "track", counting)
        return paths

    def test_ladder_tracks_one_path_per_order_above_1(self, disk_series, monkeypatch):
        # Order 1 tracks no path, and orders 2, 3 and 4 a path each: 3
        # paths, where total degree at every order takes 2 + 4 + 8 + 16 = 30.
        paths = self._paths(monkeypatch)
        assert len(ladder(disk_series, 4)) == 4
        assert paths == [1, 1, 1]

    def test_ladder_work(self, disk_series, monkeypatch):
        # Batched F/J evaluations: 3 paths of 5 rounds, each round 4
        # predictor stages and 3 corrector steps, and F(p0) for each of the
        # 3 steps.  A batch of orders 1 and 2 at a step cap of 0.1 took 212,
        # and order 1 by total degree another 35.
        quadratics = pade._quadratics
        calls = []
        monkeypatch.setattr(pade, "_quadratics", lambda *args: calls.append(1) or quadratics(*args))
        assert len(ladder(disk_series, 4)) == 4
        assert len(calls) <= 3 * 5 * 7 + 3

    def test_a_lone_order_2_is_stepped_from_order_1(self, disk_series, monkeypatch):
        want = ladder(disk_series, 2)[1]
        paths = self._paths(monkeypatch)
        [row] = selected_rows(disk_series, [2])
        assert paths == [1]
        assert _hex_rows([row]) == _hex_rows([want])

    def test_order_2_is_tracked_from_order_1(self, disk_series, monkeypatch):
        want = select_solution(solve_interpolation(disk_series, 2))
        paths = self._paths(monkeypatch)
        rows = selected_rows(disk_series, [1, 2])
        assert paths == [1]
        assert _hex_rows(rows[1:]) == _hex_rows([want])

    def test_a_failed_step_raises_at_once(self, disk_series, monkeypatch):
        # The step to order 2 stalls: its order is named, and no batch of
        # total-degree paths is tracked for it.
        paths = self._paths(monkeypatch, fail_steps=True)
        with pytest.raises(NoSolutionFound, match="^the step from order 1 to order 2 failed: its path "
                                                  "stalled or ran to infinity$"):
            ladder(disk_series, 6)
        assert paths == [1]

    def test_a_failing_order_costs_one_path(self, monkeypatch):
        # The step to order 9 of eps = 0.82 ends on a complex root.  Every
        # order tracks one path, and total degree runs at order 1 alone.
        c = tau_large_s_series(Ellipse(b=1.0, eps=0.82), 11)
        paths = self._paths(monkeypatch)
        homotopy = pade._homotopy_endpoints
        solved = []
        monkeypatch.setattr(pade, "_homotopy_endpoints", lambda M: solved.append(len(M)) or homotopy(M))
        with pytest.raises(NoSolutionFound, match="^the step from order 8 to order 9 failed: none of the 1 finite "
                                                  "roots of order 9 is real$"):
            selected_rows(c, range(1, 10))
        assert paths == [1] * 8 and solved == [1]

    def test_a_filtered_step_names_its_order(self):
        # The step to order 8 of eps = 0.84 ends on a real root that
        # polishes, and the physical filter refuses it.
        c = tau_large_s_series(Ellipse(b=1.0, eps=0.84), 10)
        with pytest.raises(NoSolutionFound, match="^the step from order 7 to order 8 failed: no accepted solution "
                                                  "passes the physical filter$"):
            selected_rows(c, [8])

    def test_an_order_without_its_predecessor_is_stepped(self, disk_series, monkeypatch):
        # Order 2 is not requested, yet it is solved, and order 3 is
        # stepped from its row: the rows are the ladder's.
        want = ladder(disk_series, 4)
        paths = self._paths(monkeypatch)
        rows = selected_rows(disk_series, [1, 3, 4])
        assert paths == [1, 1, 1]
        assert _hex_rows(rows) == _hex_rows([want[0], want[2], want[3]])

    def test_a_failing_order_below_the_requested_one_raises(self):
        # The step to order 5 of eps = 0.95 ends on a complex root, so
        # order 6 has no row to climb from.
        c = tau_large_s_series(Ellipse(b=1.0, eps=0.95), 8)
        with pytest.raises(NoSolutionFound, match="^the step from order 4 to order 5 failed: none of the 1 finite "
                                                  "roots of order 5 is real$"):
            selected_rows(c, [6])

    def test_disk_to_order_10_is_fast_and_unchanged(self):
        # Total degree took about 6 CPU s for these orders; rows 1..9 are the
        # solve corpus' disk ladder, and row 10 the total-degree selection.
        c = tau_large_s_series(Disk(), 12)
        start = time.process_time()
        rows = selected_rows(c, range(1, 11))
        assert time.process_time() - start < 0.5
        [case] = [case for case in _corpus() if case["shape"] == {"kind": "disk", "R": 1.0}]
        assert [v.hex() for v in c.c[: case["J"]]] == case["c"]
        assert _hex_rows(rows[:9]) == [(row["p"], row["q"]) for row in case["ladder"]]
        assert _hex_rows(rows[9:]) == [(
            ["0x1.dc94c4abb610cp+24", "0x1.9f6ce8608d7ccp+24", "0x1.a3b94d9d37617p+23",
             "0x1.2d3286671da3ep+22", "0x1.485c8e8393c91p+20", "0x1.16a4ae61ba62cp+18",
             "0x1.707dffcef4318p+15", "0x1.745c4875697d6p+12", "0x1.121e9bb8972c7p+9",
             "0x1.09219d212f6b7p+5"],
            ["0x1.d6fcaa6705fa6p+27", "0x1.9a8c93312a4b6p+27", "0x1.1fb8c5609d120p+27",
             "0x1.20dcea85788a1p+26", "0x1.b936dda316d46p+24", "0x1.08ec6c647bc4dp+23",
             "0x1.fc33bf9e5d958p+20", "0x1.865a140f5c600p+18", "0x1.db6e90bc44c36p+15",
             "0x1.bf56b9125664fp+12", "0x1.34c2cf5cbd19ep+9", "0x1.19219d212f6b7p+5"],
        )]

    def test_disk_rows_past_order_10(self):
        # Total degree loses order 11's physical root: 2 of its 2048 paths
        # pass the tracker's infinity bound.  The climb reaches it.
        rows = ladder(tau_large_s_series(Disk(), 14), 12)
        assert [f"{r.closest_pole.imag:.6f}" for r in rows[10:]] == ["2.374574", "2.379658"]


def _doublet(sol, a):
    """``sol`` with P times (s + a) and Q times (s + a(1 + 1e-10)): a nearly cancelling pair."""
    P = np.convolve(sol.approximant.numerator(), [a, 1.0])
    Q = np.convolve(sol.approximant.denominator(), [a * (1.0 + 1e-10), 1.0])
    return _fake_solution(PadeApproximant(n=sol.n + 1, p=tuple(P[:-1]), q=tuple(Q[:-1])))


def _fake_solution(approx):
    return PadeSolution(approx, poles(approx), (1.0, -1.0, 1.0, -1.0))


def _prony_50_digits(d, m):
    """Reference for ``prony_moments``: Prony's method in 50-digit mpmath on the doubles ``d``.

    The Hankel system of the moments mu_k gives the monic polynomial whose
    roots are x_j = 1/lambda_j, and a Vandermonde solve their weights.
    Returns lambda_1, gamma_1^2, lambda_2, ... by ascending lambda, and each
    one's condition number, the sum over k of |d value / d mu_k| |mu_k| / |value|
    (by a forward difference of 1e-25 relative): u times it bounds, to
    first order, what rounding each d_k once can move that value.
    """
    from mpmath import mp, mpf

    def solve(mu):
        a = mp.lu_solve(mp.matrix([[mu[k + i] for i in range(m)] for k in range(m)]),
                        mp.matrix([-mu[k + m] for k in range(m)]))
        x = sorted((r.real for r in mp.polyroots([1, *(a[i] for i in reversed(range(m)))], maxsteps=200,
                                                 extraprec=100)), reverse=True)
        w = mp.lu_solve(mp.matrix([[xj**k for xj in x] for k in range(m)]), mp.matrix(mu[:m]))
        return [v for j, xj in enumerate(x) for v in (1 / xj, w[j] / xj)]

    with mp.workdps(50):
        mu = [(-1) ** k * mpf(v) for k, v in enumerate(d[: 2 * m])]
        exact = solve(mu)
        cond = [mpf(0)] * len(exact)
        for k in range(2 * m):
            e = mu[k] * mpf(10) ** -25
            moved = solve([*mu[:k], mu[k] + e, *mu[k + 1 :]])
            cond = [c + abs((v - v0) / v0) * mpf(10) ** 25 for c, v, v0 in zip(cond, moved, exact)]
        return [float(v) for v in exact], [float(c) for c in cond]


class TestPronyMoments:
    def test_single_mode_roundtrip(self):
        lam, g2 = 5.8, 0.7
        d = [g2 / lam, -g2 / lam**2]
        got = prony_moments(d, 1)
        assert got[0][0] == pytest.approx(lam, rel=1e-12)
        assert got[0][1] == pytest.approx(g2, rel=1e-12)

    @given(
        st.lists(st.floats(1.0, 50.0), min_size=2, max_size=3, unique=True),
        st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3),
    )
    # Draws that failed while d_k was summed in doubles: gamma^2 off by
    # 1.05e-6, and lambda off by 1.2e-7.
    @example([1.125, 36.5, 45.0], [2.0, 0.25, 0.40625])
    @example([1.0, 36.25, 44.0], [1.0, 1.0, 0.25])
    # Draws that fixed bounds of 1e-7 on lambda against the true values
    # fail.  In the first, rounding the exact d_k once moves lambda_3 by
    # 1.23e-7, and the estimator adds 1.5e-9.  In the second the exact
    # solve is within 5.8e-8 of lambda_2, and the estimator adds 8.3e-8,
    # a quarter of u cond.
    @example([1.0, 33.0, 43.0], [1.0, 1.0, 0.125])
    @example([1.0, 36.283203125, 44.3515625], [1.453125, 0.109375, 1.0])
    @settings(max_examples=30, deadline=None)
    def test_synthetic_roundtrip(self, lams, weights):
        lams = sorted(lams)
        if any(b / a < 1.2 for a, b in zip(lams, lams[1:])):
            return  # nearly degenerate rates are legitimately ill-conditioned
        m = len(lams)
        pairs = list(zip(lams, weights[:m]))
        # Each d_k is summed exactly and rounded once, so the bounds below
        # measure the estimator, not the rounding of the test's own sum.
        d = [
            float((-1) ** k * sum(Fraction(g) / Fraction(lam) ** (k + 1) for lam, g in pairs))
            for k in range(2 * m)
        ]
        got = [v for pair in prony_moments(d, m) for v in pair]
        exact, cond = _prony_50_digits(d, m)
        u = 2.0**-53
        for value, want, true, c in zip(got, exact, [v for pair in pairs for v in pair], cond):
            # Rounding each d_k once moves the exact solve by at most u cond
            # to first order, and the estimator loses little beyond that.
            assert want == pytest.approx(true, rel=2 * u * (1.0 + c))
            assert value == pytest.approx(want, rel=8 * u * (1.0 + c))

    def test_disk_two_equation_solve(self):
        # With only d0, d2 the single-rate fit gives -d0/d2 = 6 exactly.
        d = maclaurin_tau_disk(1, 1)
        got = prony_moments(d, 1)
        assert got[0][0] == pytest.approx(6.0, rel=1e-12)

    def test_disk_three_mode_estimate(self):
        d = maclaurin_tau_disk(1, 5)
        got = prony_moments(d, 3)
        assert got[0][0] == pytest.approx(5.783187, rel=1e-5)
        assert got[0][1] == pytest.approx(0.691660, rel=1e-3)

    @pytest.mark.parametrize(
        "m, expected",
        [
            (1, [("0x1.8000000000000p+2", "0x1.8000000000000p-1")]),
            (
                2,
                [
                    ("0x1.722f28620f650p+2", "0x1.626366c6535efp-1"),
                    ("0x1.270f704913665p+5", "0x1.92e42c0324491p-3"),
                ],
            ),
            (
                3,
                [
                    ("0x1.721fbc0c373d7p+2", "0x1.6221653daabbcp-1"),
                    ("0x1.eb64b7bf6706ap+4", "0x1.17000ef462adep-3"),
                    ("0x1.c604d64f73fe3p+6", "0x1.c0f4b829ecdcfp-4"),
                ],
            ),
            (
                4,
                [
                    ("0x1.721fb804bed62p+2", "0x1.62214bb6c6030p-1"),
                    ("0x1.e7985c91eb889p+4", "0x1.0d108b8339e3ep-3"),
                    ("0x1.38ecc478c82efp+6", "0x1.06e04d6e1ff66p-4"),
                    ("0x1.0d82c9c4870e5p+8", "0x1.2a1d336a4e16ap-4"),
                ],
            ),
        ],
    )
    def test_disk_pins(self, m, expected):
        # The values scipy.linalg.eigh_tridiagonal gave on the same Jacobi
        # matrix, to the last bit.
        got = prony_moments(maclaurin_tau_disk(1, 2 * m - 1), m)
        assert [(lam.hex(), g2.hex()) for lam, g2 in got] == expected

    def test_moment_ratio_estimate(self):
        d = [float(v) for v in maclaurin_tau_disk(1, 4)]
        assert -d[3] / d[4] == pytest.approx(5.783186, rel=2e-3)

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            prony_moments([0.125, -0.02], 2)

    @pytest.mark.parametrize("m", [0, -1])
    def test_requires_a_mode(self, m):
        with pytest.raises(ValueError, match="m >= 1"):
            prony_moments(maclaurin_tau_disk(1, 3), m)

    @pytest.mark.parametrize(
        "d, message",
        [
            ((1.0, -1.0, 0.5, -0.3), "moments are not those of a positive measure"),
            ((2.0, 0.0, 2.0, 0.0), "moment eigenvalues are not positive"),
        ],
    )
    def test_moments_of_no_positive_measure_raise(self, d, message):
        with pytest.raises(IllConditioned, match=f"^{message}$"):
            prony_moments(d, 2)

    def test_ill_conditioned_raises(self):
        d = [float(v) for v in maclaurin_tau_disk(1, 9)]
        with pytest.raises(IllConditioned):
            prony_moments(d, 5)
