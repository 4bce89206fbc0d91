import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fourier_curves
from heatpade import geometry
from heatpade.errors import QuadratureNotConverged, UnsupportedOrder
from heatpade.geometry import BoundaryCurve, Disk, Ellipse, FourierCurve, arc_measures
from heatpade.heat_content import (
    ExpansionMode,
    LargeSSeries,
    gamma_half,
    gamma_half_value,
    sigma_curvature,
    sigma_savo,
    small_time_expansion,
    small_time_survival,
    tau_large_s_series,
)

SQRT_PI = math.sqrt(math.pi)


class TestGammaHalf:
    @pytest.mark.parametrize("j", range(1, 12))
    def test_matches_gamma(self, j):
        assert gamma_half_value(j) == pytest.approx(math.gamma(j / 2 + 1), rel=1e-14)

    def test_exact_split(self):
        rat, has_root = gamma_half(1)
        assert (rat, has_root) == (Fraction(1, 2), True)
        rat, has_root = gamma_half(4)
        assert (rat, has_root) == (Fraction(2), False)


class TestDiskCoefficients:
    def test_curvature_values(self):
        expected = [
            -4.0 / SQRT_PI,
            1.0,
            1.0 / (3.0 * SQRT_PI),
            1.0 / 8.0,
            5.0 / (24.0 * SQRT_PI),
        ]
        got = [sigma_curvature(Disk(), j) for j in range(1, 6)]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_savo_equals_curvature_on_disk(self):
        for j in range(1, 7):
            assert sigma_savo(Disk(), j) == pytest.approx(
                sigma_curvature(Disk(), j), abs=1e-12
            )

    def test_radius_scaling(self):
        # sigma_j scales as R^-j for a disk.
        for j in range(1, 6):
            s1 = sigma_curvature(Disk(1.0), j)
            s2 = sigma_curvature(Disk(2.0), j)
            assert s2 == pytest.approx(s1 / 2.0**j, rel=1e-12)

    def test_large_s_series_disk(self):
        # c_j = -2 a_(j-1) for the unit disk.
        c = tau_large_s_series(Disk(), 6)
        assert c.c == pytest.approx(
            (-2.0, 1.0, 0.25, 0.25, 25.0 / 64.0, 13.0 / 16.0), abs=1e-12
        )


class TestUniversalSecondOrder:
    @given(fourier_curves())
    @settings(max_examples=20, deadline=None)
    def test_sigma2_is_pi_over_area(self, curve):
        area = arc_measures(curve).area
        assert sigma_curvature(curve, 2) == pytest.approx(math.pi / area, abs=1e-9)

    def test_ellipse(self):
        e = Ellipse(b=1.0, eps=0.8)
        assert sigma_curvature(e, 2) == pytest.approx(
            math.pi / arc_measures(e).area, abs=1e-12
        )

    def test_mirror_symmetry(self):
        from heatpade.geometry import FourierCurve

        c = FourierCurve((1.0, 0.12, 0.05), (0.08, -0.04))
        m = c.mirrored()
        for j in range(1, 6):
            assert sigma_curvature(m, j) == pytest.approx(sigma_curvature(c, j), abs=1e-10)

    def test_first_order_is_perimeter_over_area(self):
        e = Ellipse(b=1.0, eps=0.5)
        meas = arc_measures(e)
        assert sigma_curvature(e, 1) == pytest.approx(
            -2.0 / SQRT_PI * meas.perimeter / meas.area, rel=1e-12
        )


class TestSavoVersusCurvature:
    def test_agree_through_order_four(self):
        e = Ellipse(b=1.0, eps=0.5)
        for j in range(1, 5):
            assert sigma_savo(e, j) == sigma_curvature(e, j)

    def test_differ_at_five_and_six(self):
        e = Ellipse(b=1.0, eps=0.5)
        s5, s5_tilde = sigma_savo(e, 5), sigma_curvature(e, 5)
        s6, s6_tilde = sigma_savo(e, 6), sigma_curvature(e, 6)
        assert s5 != s5_tilde and s6 != s6_tilde
        # The curvature-derivative term enters with a negative sign.
        assert s5 < s5_tilde

    def test_order_bounds(self):
        with pytest.raises(UnsupportedOrder):
            sigma_savo(Disk(), 7)
        for sigma in (sigma_curvature, sigma_savo):
            with pytest.raises(ValueError):
                sigma(Disk(), 0)


class TestExpansionContainers:
    def test_mode_accepts_strings(self):
        e = Ellipse(b=1.0, eps=0.5)
        assert tau_large_s_series(e, 6, "savo") == tau_large_s_series(e, 6, ExpansionMode.SAVO_EXACT)
        assert tau_large_s_series(e, 6, "savo") != tau_large_s_series(e, 6)

    def test_savo_order_cap(self):
        with pytest.raises(UnsupportedOrder):
            small_time_expansion(Disk(), 7, ExpansionMode.SAVO_EXACT)

    @pytest.mark.parametrize("mode", list(ExpansionMode))
    @given(curve=fourier_curves())
    @settings(max_examples=20, deadline=None)
    def test_sigma_is_read_off_the_series(self, mode, curve):
        for shape in (curve, Ellipse(b=1.0, eps=0.7)):
            sigma = small_time_expansion(shape, 6, mode).sigma
            series = tau_large_s_series(shape, 6, mode)
            assert sigma == tuple(series.sigma(j) for j in range(1, 7))

    def test_survival_truncation(self):
        exp = small_time_expansion(Disk(), 5)
        t = 0.01
        full = small_time_survival(exp, t)
        partial = small_time_survival(small_time_expansion(Disk(), 2), t)
        assert full == pytest.approx(
            partial + sum(exp.sigma[j - 1] * t ** (j / 2) for j in (3, 4, 5))
        )
        with pytest.raises(ValueError):
            small_time_survival(exp, -1.0)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                small_time_survival(exp, t)

    def test_survival_at_zero_is_one(self):
        exp = small_time_expansion(Ellipse(b=1.0, eps=0.4), 4)
        assert small_time_survival(exp, 0.0) == 1.0


class TestLargeSSeriesModes:
    def test_curvature_mode_consistent_with_sigma(self):
        e = Ellipse(b=1.0, eps=0.6)
        c = tau_large_s_series(e, 6)
        for j in range(1, 7):
            assert c.c[j - 1] == pytest.approx(
                gamma_half_value(j) * sigma_curvature(e, j), rel=1e-11
            )

    def test_savo_mode_multiplies_out_orders_five_and_six(self):
        e = Ellipse(b=1.0, eps=0.6)
        c = tau_large_s_series(e, 6, "savo").c
        assert c[4:] == tuple(gamma_half_value(j) * sigma_savo(e, j) for j in (5, 6))

    def test_savo_mode_cap(self):
        with pytest.raises(UnsupportedOrder):
            tau_large_s_series(Disk(), 7, ExpansionMode.SAVO_EXACT)

    def test_sigma_order_bounds(self):
        series = tau_large_s_series(Disk(), 3)
        assert series.sigma(3) == sigma_curvature(Disk(), 3)
        with pytest.raises(ValueError, match=">= 1"):
            series.sigma(0)
        for j in (4, 5):
            with pytest.raises(ValueError, match=f"^order {j} is past the series, which has order 3$"):
                series.sigma(j)
        with pytest.raises(ValueError, match="which has order 0$"):
            LargeSSeries(()).sigma(1)

    @pytest.mark.parametrize("mode", list(ExpansionMode))
    def test_order_zero_is_empty_and_negative_raises(self, mode):
        e = Ellipse(b=1.0, eps=0.5)
        assert tau_large_s_series(e, 0, mode).c == ()
        assert small_time_expansion(e, 0, mode).sigma == ()
        with pytest.raises(ValueError):
            tau_large_s_series(e, -1, mode)
        with pytest.raises(ValueError):
            small_time_expansion(e, -1, mode)


class TestOnePass:
    @pytest.mark.parametrize(
        "series",
        [
            lambda curve: tau_large_s_series(curve, 9),
            lambda curve: tau_large_s_series(curve, 6, "savo"),
            lambda curve: small_time_expansion(curve, 6, "savo"),
        ],
    )
    def test_one_quadrature_per_series(self, series, monkeypatch):
        calls = []
        original = geometry.periodic_quadrature

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(geometry, "periodic_quadrature", counted)
        series(Ellipse(b=1.0, eps=0.5))
        assert len(calls) == 1

    @given(fourier_curves())
    @settings(max_examples=20, deadline=None)
    def test_modes_share_orders_up_to_four(self, curve):
        # Criterion 8 compares these with ==.  Both modes form c_j for j <= 4
        # from the exact a_(j-1), so those agree with == as well.
        approx = small_time_expansion(curve, 6).sigma
        exact = small_time_expansion(curve, 6, "savo").sigma
        assert approx[:4] == exact[:4]
        for j in range(1, 5):
            assert sigma_savo(curve, j) == sigma_curvature(curve, j) == approx[j - 1]
        assert tau_large_s_series(curve, 6).c[:4] == tau_large_s_series(curve, 6, "savo").c[:4]


def _hex(series):
    return [v.hex() for v in series.c]


def _fresh(curve):
    """An equal curve that is another object, so no kept pass serves it."""
    return dataclasses.replace(curve)


def _own_pass(curve, J, mode):
    """The series from a pass of exactly its own size: the superset pass is refused."""
    original = geometry.boundary_integrals
    own = (J - 1, mode == "savo" and J >= 5)

    def refuse_wider(c, max_power, derivatives=False):
        if (max_power, derivatives) != own:
            raise QuadratureNotConverged("superset refused")
        return original(c, max_power, derivatives)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "boundary_integrals", refuse_wider)
        return tau_large_s_series(_fresh(curve), J, mode)


class TestRowsPastTheDoubleRange:
    """A quadrature row that is not finite fails its pass on the first grid that shows it."""

    @staticmethod
    def _integrand_calls(monkeypatch):
        calls = []
        original = geometry.periodic_quadrature

        def counted(integrand, *args, **kwargs):
            def counting(phi):
                calls.append(len(phi))
                return integrand(phi)

            return original(counting, *args, **kwargs)

        monkeypatch.setattr(geometry, "periodic_quadrature", counted)
        return calls

    def test_overflowing_superset_falls_back_at_once(self, monkeypatch):
        # kappa^5 = 1e350 overflows in the shared superset pass; the series'
        # own pass reads kappa^2 at most.  It took 13 calls and 0.5 s.
        calls = self._integrand_calls(monkeypatch)
        with np.errstate(all="ignore"):
            got = tau_large_s_series(Disk(1e-70), 3)
        assert len(calls) == 2
        monkeypatch.undo()
        assert _hex(got) == _hex(_own_pass(Disk(1e-70), 3, "curvature"))

    def test_overflowing_superset_warns_nothing(self):
        # The superset's kappa^5 overflow reached the caller as numpy's RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tau_large_s_series(Disk(1e-70), 3)
        assert _hex(got) == ["-0x1.72ebad6ddc73ep+233", "0x1.0cb70d24b7378p+465", "0x1.8557f31326bbdp+695"]

    @pytest.mark.parametrize(
        "curve, J, mode, n_calls",
        [(Disk(1e-100), 9, "curvature", 2), (Ellipse(b=1e-300, eps=0.5), 6, "savo", 1)],
    )
    def test_overflowing_own_pass_raises_at_once(self, monkeypatch, curve, J, mode, n_calls):
        # These took 24 and 12 calls, 2 s and 0.8 s, to reach the panel cap.
        calls = self._integrand_calls(monkeypatch)
        with np.errstate(all="ignore"):
            with pytest.raises(QuadratureNotConverged, match="not finite before they converged$"):
                tau_large_s_series(curve, J, mode)
        assert len(calls) == n_calls


class _Lens(BoundaryCurve):
    """Not a dataclass itself, so any two instances compare equal."""

    def __init__(self, bulge):
        object.__setattr__(self, "bulge", bulge)

    def radius(self, phi):
        phi = np.asarray(phi, dtype=float)
        r = 1.0 + self.bulge * np.cos(2.0 * phi)
        return r, -2.0 * self.bulge * np.sin(2.0 * phi), -4.0 * self.bulge * np.cos(2.0 * phi)


class TestSharedPass:
    """Both series on one curve object share one quadrature pass, bit for bit."""

    def _check(self, curve):
        calls = []
        original = geometry.periodic_quadrature

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "periodic_quadrature", counted)
            shared = [tau_large_s_series(curve, 9), tau_large_s_series(curve, 6, "savo")]
        assert len(calls) == 1
        fresh = [tau_large_s_series(_fresh(curve), 9), tau_large_s_series(_fresh(curve), 6, "savo")]
        own = [_own_pass(curve, 9, "curvature"), _own_pass(curve, 6, "savo")]
        assert [_hex(s) for s in shared] == [_hex(s) for s in fresh] == [_hex(s) for s in own]
        # Savo first keeps a pass too narrow for curvature J = 9, which then runs its own.
        reverse = _fresh(curve)
        savo_first = [tau_large_s_series(reverse, 6, "savo"), tau_large_s_series(reverse, 9)]
        assert [_hex(s) for s in savo_first] == [_hex(s) for s in own[::-1]]

    @given(fourier_curves())
    @settings(max_examples=20, deadline=None)
    def test_fourier_curves(self, curve):
        self._check(curve)

    @given(st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_ellipses(self, eps):
        self._check(Ellipse(b=1.0, eps=eps))

    def test_disk(self):
        self._check(Disk(R=1.3))

    @pytest.mark.parametrize("J, mode", [(3, "curvature"), (9, "curvature"), (4, "savo"), (5, "savo")])
    def test_unconverged_superset_runs_the_own_request(self, J, mode, monkeypatch):
        curve = Ellipse(b=1.0, eps=0.5)
        want, want_savo = _own_pass(curve, J, mode), _own_pass(curve, 6, "savo")
        requests = []
        original = geometry.boundary_integrals

        def wide_fails(c, max_power, derivatives=False):
            requests.append((max_power, derivatives))
            if len(requests) == 1:
                raise QuadratureNotConverged("superset did not converge")
            return original(c, max_power, derivatives)

        monkeypatch.setattr(geometry, "boundary_integrals", wide_fails)
        assert _hex(tau_large_s_series(curve, J, mode)) == _hex(want)
        assert requests == [(max(J - 1, 5), True), (J - 1, mode == "savo" and J >= 5)]
        # The kept own request serves what it covers and nothing more: J = 9
        # has every power savo J = 6 reads, but not the derivative rows.
        assert _hex(tau_large_s_series(curve, 6, "savo")) == _hex(want_savo)

    def test_unconverged_superset_is_not_retried(self, monkeypatch):
        # Savo J = 6 asks for the superset itself, (k^5, derivative rows), so
        # its own request is the one that just failed, and it raises.
        requests = []

        def wide_fails(c, max_power, derivatives=False):
            requests.append((max_power, derivatives))
            raise QuadratureNotConverged("superset did not converge")

        monkeypatch.setattr(geometry, "boundary_integrals", wide_fails)
        with pytest.raises(QuadratureNotConverged, match="^superset did not converge$"):
            tau_large_s_series(Ellipse(b=1.0, eps=0.5), 6, "savo")
        assert requests == [(5, True)]

    def test_unconverged_superset_on_a_real_curve(self, monkeypatch):
        # A 60-fold ripple of amplitude 0.8: the k^m rows converge, but the
        # curvature-derivative rows do not within the panel cap, so the
        # shared pass fails with no monkeypatched failure.  The grids at the
        # panel cap take about 0.5 GB at their peak.
        curve = FourierCurve((1.0,) + (0.0,) * 59 + (0.8,))
        requests = []
        original = geometry.boundary_integrals

        def recorded(c, max_power, derivatives=False):
            requests.append((max_power, derivatives))
            return original(c, max_power, derivatives)

        monkeypatch.setattr(geometry, "boundary_integrals", recorded)
        got = tau_large_s_series(curve, 9)
        assert requests == [(8, True), (8, False)]
        with pytest.raises(QuadratureNotConverged):
            tau_large_s_series(curve, 6, "savo")
        # Savo J = 6 asks for the superset itself, (k^5, derivative rows):
        # it fails once and is not retried.
        assert requests == [(8, True), (8, False), (5, True)]
        monkeypatch.undo()
        assert _hex(got) == _hex(_own_pass(curve, 9, "curvature"))

    def test_unconverged_own_request_raises(self, monkeypatch):
        def never(c, max_power, derivatives=False):
            raise QuadratureNotConverged(f"max_power {max_power}")

        monkeypatch.setattr(geometry, "boundary_integrals", never)
        with pytest.raises(QuadratureNotConverged, match="max_power 2"):
            tau_large_s_series(Ellipse(b=1.0, eps=0.5), 3)

    def test_kept_pass_is_keyed_on_identity(self):
        # Equal but distinct curves each get their own pass.
        flat, round_ = _Lens(0.2), _Lens(0.0)
        assert flat == round_
        tau_large_s_series(flat, 9)
        assert _hex(tau_large_s_series(round_, 6, "savo")) == _hex(tau_large_s_series(Disk(), 6, "savo"))
