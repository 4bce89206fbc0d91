import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import fourier_curves
from heatpade import geometry
from heatpade.errors import QuadratureNotConverged
from heatpade.geometry import (
    BoundaryCurve,
    Disk,
    Ellipse,
    FourierCurve,
    arc_measures,
    boundary_integrals,
    curvature,
    curvature_power_integral,
    curve_from_json,
    curve_to_json,
    periodic_quadrature,
)
from heatpade.heat_content import tau_large_s_series


class TestShapes:
    def test_disk_validation(self):
        with pytest.raises(ValueError):
            Disk(R=0.0)

    def test_ellipse_validation(self):
        with pytest.raises(ValueError):
            Ellipse(b=1.0, eps=1.0)
        with pytest.raises(ValueError):
            Ellipse(b=-1.0, eps=0.5)

    def test_fourier_needs_a_constant_term(self):
        with pytest.raises(ValueError, match="^cos_coeffs must contain at least the constant term$"):
            FourierCurve(())

    def test_ellipse_axes(self):
        e = Ellipse(b=2.0, eps=0.6)
        assert e.a == pytest.approx(2.0 / math.sqrt(1 - 0.36))
        r_major, _, _ = e.radius(0.0)
        r_minor, _, _ = e.radius(math.pi / 2)
        assert float(r_major) == pytest.approx(e.a)
        assert float(r_minor) == pytest.approx(2.0)

    def test_fourier_positivity_rejected(self):
        with pytest.raises(ValueError):
            FourierCurve((1.0, -1.5))

    @pytest.mark.parametrize(
        "cls, args",
        [
            pytest.param(Disk, (math.inf,), id="disk-inf"),
            pytest.param(Disk, (math.nan,), id="disk-nan"),
            pytest.param(Ellipse, (math.inf, 0.5), id="ellipse-inf"),
            pytest.param(Ellipse, (math.nan, 0.5), id="ellipse-nan"),
            pytest.param(FourierCurve, ((1.0, math.nan),), id="fourier-cos-nan"),
            pytest.param(FourierCurve, ((math.inf,),), id="fourier-cos-inf"),
            pytest.param(FourierCurve, ((1.0,), (math.inf,)), id="fourier-sin-inf"),
        ],
    )
    def test_non_finite_parameters_rejected(self, cls, args):
        with pytest.raises(ValueError, match="finite"):
            cls(*args)

    def test_fourier_mirrored(self):
        c = FourierCurve((1.0, 0.1), (0.05,))
        m = c.mirrored()
        r1, _, _ = c.radius(0.3)
        r2, _, _ = m.radius(-0.3)
        assert float(r1) == pytest.approx(float(r2))

    def test_contains(self):
        d = Disk(R=2.0)
        assert d.contains(1.9, 0.0)
        assert not d.contains(1.5, 1.5)
        e = Ellipse(b=1.0, eps=0.8)
        assert e.contains(e.a - 1e-6, 0.0)
        assert not e.contains(0.0, 1.0 + 1e-6)

    def test_max_radius(self):
        e = Ellipse(b=1.0, eps=0.5)
        assert e.max_radius() == pytest.approx(e.a, rel=1e-6)

    def test_max_radius_sees_high_modes(self):
        # An upper bound on every computed r, with no samples: mode 2048 is
        # constant on a 4096-point grid, and shifted by pi/8 its peak falls
        # between the points of an 8 M grid.
        shift = math.pi / 8
        in_phase = FourierCurve((1.0,), (0.0,) * 2047 + (0.5,))
        shifted = FourierCurve(
            (1.0,) + (0.0,) * 2047 + (0.5 * math.cos(shift),),
            (0.0,) * 2047 + (0.5 * math.sin(shift),),
        )
        phi = np.linspace(0.0, 2.0 * np.pi, 2**20, endpoint=False)
        for c in (in_phase, shifted):
            r, _, _ = c.radius(phi)
            assert r.max() == pytest.approx(1.5, rel=1e-12)
            assert c.max_radius() >= r.max()
        assert in_phase.max_radius() == pytest.approx(1.5, rel=1e-11)

    def test_max_radius_is_tight_for_one_mode(self):
        # 0.15 cos phi + 0.1 sin phi peaks at hypot(0.15, 0.1), not 0.25.
        c = FourierCurve((1.0, 0.15), (0.1,))
        assert c.max_radius() == pytest.approx(1.0 + math.hypot(0.15, 0.1), rel=1e-14)

    @given(fourier_curves(max_modes=6))
    @settings(max_examples=20, deadline=None)
    def test_max_radius_bounds_every_computed_radius(self, curve):
        r, _, _ = curve.radius(np.linspace(0.0, 2.0 * np.pi, 2**20, endpoint=False))
        assert curve.max_radius() >= r.max()

    def test_ellipse_radius_derivatives(self):
        # Finite-difference check of r' and r''.
        e = Ellipse(b=1.3, eps=0.7)
        h = 1e-6
        for phi in (0.3, 1.1, 2.9):
            r0, rp, rpp = (float(v) for v in e.radius(phi))
            rm, _, _ = e.radius(phi - h)
            rp_, _, _ = e.radius(phi + h)
            assert rp == pytest.approx((float(rp_) - float(rm)) / (2 * h), abs=1e-6)
            assert rpp == pytest.approx((float(rp_) - 2 * r0 + float(rm)) / h**2, abs=1e-3)


def _radius_per_term(curve, phi):
    """FourierCurve.radius term by term: cos and sin evaluated afresh for every coefficient."""
    phi = np.asarray(phi, dtype=float)
    r = np.full_like(phi, curve.cos_coeffs[0])
    rp = np.zeros_like(phi)
    rpp = np.zeros_like(phi)
    for m, c in enumerate(curve.cos_coeffs):
        if m and c != 0.0:
            r += c * np.cos(m * phi)
            rp += -c * m * np.sin(m * phi)
            rpp += -c * m * m * np.cos(m * phi)
    for m, s in enumerate(curve.sin_coeffs, start=1):
        if s != 0.0:
            r += s * np.sin(m * phi)
            rp += s * m * np.cos(m * phi)
            rpp += -s * m * m * np.sin(m * phi)
    return r, rp, rpp


# Large-s coefficients c_j of two fixed curves, recorded as float hex with
# each mode's cos(m phi) and sin(m phi) evaluated once per coefficient.
_PINNED_SERIES = [
    (
        FourierCurve((1.0, 0.1, -0.05, 0.03), (0.04, 0.0, -0.02)),
        [
            "-0x1.003bdf71a6f33p+1", "0x1.fc16751d3d8e2p-1", "0x1.0b932df7afeb1p-2",
            "0x1.25f575114ddf4p-2", "0x1.0477359471325p-1", "0x1.3b1a7c1a49a3dp+0",
            "0x1.e28fb15197353p+1", "0x1.bf93a06d1ec2cp+3", "0x1.e83a3a6f03c76p+5",
        ],
        [
            "-0x1.003bdf71a6f33p+1", "0x1.fc16751d3d8e2p-1", "0x1.0b932df7afeb1p-2",
            "0x1.25f575114ddf4p-2", "0x1.bef65ec32b048p-2", "0x1.9a50458a4d94cp-1",
        ],
    ),
    (
        FourierCurve((1.0, 0.0, 0.12), (0.0, 0.0, 0.0, 0.05)),
        [
            "-0x1.03ed2157386fep+1", "0x1.fbb5b8d82ecfbp-1", "0x1.4e680cc2eab58p-2",
            "0x1.ce1a16991f22bp-2", "0x1.084a2012b4771p+0", "0x1.9f26124098534p+1",
            "0x1.9de92be29f90cp+3", "0x1.f3de574a63e24p+5", "0x1.62ba80d700001p+8",
        ],
        [
            "-0x1.03ed2157386fep+1", "0x1.fbb5b8d82ecfbp-1", "0x1.4e680cc2eab58p-2",
            "0x1.ce1a16991f22bp-2", "0x1.7b753692ec5dap-2", "0x1.26eefae944db5p-2",
        ],
    ),
]


class TestFourierRadius:
    @pytest.mark.parametrize(
        "curve",
        [
            FourierCurve((1.0, 0.1, -0.05, 0.03), (0.04, -0.02, 0.01)),
            FourierCurve((1.0, 0.1, 0.0, 0.03), (0.04, 0.0, 0.01)),
            FourierCurve((1.0,), (0.05, 0.0, -0.03)),
        ],
        ids=["cos-and-sin-per-mode", "zero-between-nonzero", "sin-only"],
    )
    def test_matches_per_term_reference_bit_for_bit(self, curve):
        phi = np.linspace(-7.0, 7.0, 1001)
        for got, want in zip(curve.radius(phi), _radius_per_term(curve, phi)):
            assert np.array_equal(got, want)
        for got, want in zip(curve.radius(0.7), _radius_per_term(curve, 0.7)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("curve, curvature_hex, savo_hex", _PINNED_SERIES)
    def test_large_s_series_pinned(self, curve, curvature_hex, savo_hex):
        assert [v.hex() for v in tau_large_s_series(curve, 9, "curvature").c] == curvature_hex
        assert [v.hex() for v in tau_large_s_series(curve, 6, "savo").c] == savo_hex


def _sampled_rule(c0, cos, sin):
    """The 4096-sample positivity check, on a batch of curves with equal mode counts.

    ``c0`` has one entry per curve; ``cos`` and ``sin`` have one row per
    curve and one column per mode m >= 1.  r is summed in
    ``FourierCurve.radius``'s order, so each row is that method's r bit for
    bit where no coefficient is 0.0, which it skips; a skipped term would
    add a signed zero, which leaves the sign of every sample as it is.
    """
    phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    r = np.repeat(c0[:, None], phi.size, axis=1)
    for m in range(1, cos.shape[1] + 1):
        r += cos[:, m - 1 : m] * np.cos(m * phi)
    for m in range(1, sin.shape[1] + 1):
        r += sin[:, m - 1 : m] * np.sin(m * phi)
    return r.min(axis=1) > 0.0


def _count_radius(monkeypatch):
    """Record the sample count of every ``FourierCurve.radius`` call from now on."""
    calls = []
    radius = FourierCurve.radius

    def counted(self, phi):
        calls.append(np.size(phi))
        return radius(self, phi)

    monkeypatch.setattr(FourierCurve, "radius", counted)
    return calls


def _accepted(cos, sin):
    try:
        FourierCurve(cos, sin)
    except ValueError:
        return False
    return True


class TestFourierPositivity:
    def test_bound_decides_as_the_sampled_rule(self, monkeypatch):
        # c_0 = S (1 + delta) with |delta| log-uniform in [1e-17, 1e-1], so
        # the sets straddle c_0 = S and the bound's rounding margin.
        sampled = _count_radius(monkeypatch)
        rng = np.random.default_rng(2026)
        for modes in range(1, 5):
            batch = 2500
            cos = rng.uniform(-1.0, 1.0, size=(batch, modes)) * rng.uniform(0.01, 10.0, (batch, 1))
            sin = rng.uniform(-1.0, 1.0, size=(batch, modes)) * rng.uniform(0.5, 2.0, (batch, 1))
            # A quarter of the sets reach r = c_0 - S at phi = 0, a sample.
            aligned = np.arange(batch) % 4 == 0
            cos[aligned] = -np.abs(cos[aligned])
            sin[aligned] = 0.0
            total = np.abs(cos).sum(axis=1) + np.abs(sin).sum(axis=1)
            delta = rng.choice([-1.0, 1.0], batch) * 10.0 ** rng.uniform(-17.0, -1.0, batch)
            c0 = total * (1.0 + delta)
            expected = _sampled_rule(c0, cos, sin)
            for i in range(batch):
                got = _accepted((c0[i], *cos[i]), tuple(sin[i]))
                assert got == expected[i], (c0[i], cos[i], sin[i])
        # Both paths decide a good share of the sets.
        assert 5000 < len(sampled) < 7500

    def test_radius_evaluated_only_when_the_bound_fails(self, monkeypatch):
        calls = _count_radius(monkeypatch)
        FourierCurve((1.0, 0.1), (0.05,))
        FourierCurve((1.0, 0.1), (0.05,)).mirrored()
        assert calls == []
        # S = 1.2 > c_0, but min r = 0.325: the sampled check accepts it.
        FourierCurve((1.0, 0.6, 0.6))
        assert calls == [4096]
        with pytest.raises(ValueError, match="positive"):
            FourierCurve((1.0, -1.5))
        assert calls == [4096, 4096]

    @pytest.mark.parametrize(
        "cos, sin, samples",
        [
            # cos(4096 phi) and sin(2048 phi) are constant on 4096 samples.
            pytest.param((1.0,) + (0.0,) * 4095 + (1.5,), (), 32768, id="cos-4096"),
            pytest.param((1.0,), (0.0,) * 2047 + (1.5,), 16384, id="sin-2048"),
            pytest.param((1.0,), (0.0,) * 511 + (1.5,), 4096, id="sin-512"),
            pytest.param((1.0,), (0.0,) * 512 + (1.5,), 4104, id="sin-513"),
        ],
    )
    def test_high_mode_does_not_alias(self, cos, sin, samples, monkeypatch):
        calls = _count_radius(monkeypatch)
        with pytest.raises(ValueError, match="positive"):
            FourierCurve(cos, sin)
        assert calls == [samples]


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "curve",
        [
            Disk(R=1.5),
            Ellipse(b=1.0, eps=0.5),
            FourierCurve((1.0, 0.1, 0.05), (0.02,)),
        ],
    )
    def test_roundtrip(self, curve):
        assert curve_from_json(curve_to_json(curve)) == curve

    def test_unknown_curve_class_is_refused(self):
        class Square(BoundaryCurve):
            pass

        with pytest.raises(TypeError, match="^cannot serialize Square$"):
            curve_to_json(Square())

    def test_from_string_and_file(self, tmp_path):
        spec = {"kind": "ellipse", "b": 1.0, "eps": 0.25}
        assert curve_from_json(json.dumps(spec)) == Ellipse(b=1.0, eps=0.25)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(spec))
        assert curve_from_json(str(path)) == Ellipse(b=1.0, eps=0.25)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            curve_from_json({"kind": "square", "side": 1.0})

    @pytest.mark.parametrize("spec", ["[]", "null", '"disk"', "[1.0]"])
    def test_spec_must_be_an_object(self, spec):
        with pytest.raises(ValueError, match="JSON object"):
            curve_from_json(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"fourier","cos":"3"}',
            '{"kind":"fourier","cos":{"1":0}}',
            '{"kind":"fourier","sin":"0"}',
            '{"kind":"fourier","cos":[2.0,true]}',
            '{"kind":"fourier","cos":[1.0,"0.1"]}',
            '{"kind":"disk","R":true}',
            '{"kind":"disk","R":"2"}',
            pytest.param('{"kind":"disk","R":1' + "0" * 400 + "}", id="R-past-double-range"),
            '{"kind":"ellipse","b":"1","eps":0.5}',
            '{"kind":"ellipse","b":1.0,"eps":false}',
        ],
    )
    def test_values_must_be_numbers(self, spec):
        with pytest.raises(ValueError, match="number|double range"):
            curve_from_json(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"fourier","cos":[1.0],"sn":[0.2]}',
            '{"kind":"disk","R":1.0,"eps":0.5}',
            '{"kind":"ellipse","b":1.0,"eps":0.5,"R":2.0}',
        ],
    )
    def test_unknown_field_rejected(self, spec):
        with pytest.raises(ValueError, match="has no field"):
            curve_from_json(spec)

    @pytest.mark.parametrize(
        "spec, curve",
        [
            ('{"kind":"disk","R":2}', Disk(R=2.0)),
            ('{"kind":"ellipse","b":1,"eps":0}', Ellipse(b=1.0, eps=0.0)),
            ('{"kind":"fourier","cos":[1,0]}', FourierCurve((1.0, 0.0))),
            ('{"kind":"fourier"}', FourierCurve((1.0,), ())),
        ],
    )
    def test_integers_and_defaults_accepted(self, spec, curve):
        assert curve_from_json(spec) == curve


class TestMeasures:
    def test_disk(self):
        m = arc_measures(Disk(R=2.0))
        assert m.perimeter == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert m.area == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_ellipse_area(self):
        e = Ellipse(b=1.0, eps=0.6)
        m = arc_measures(e)
        assert m.area == pytest.approx(math.pi * e.a * e.b, rel=1e-12)

    def test_ellipse_perimeter(self):
        e = Ellipse(b=1.0, eps=0.6)
        m = arc_measures(e)
        # Complete elliptic integral of the second kind with m = eps^2,
        # perimeter = 4 a E(eps^2).
        ref = 4.0 * e.a * special.ellipe(e.eps**2)
        assert m.perimeter == pytest.approx(ref, rel=1e-12)

    def test_negative_curvature_power_is_refused(self):
        with pytest.raises(ValueError, match="^power must be non-negative$"):
            curvature_power_integral(Disk(), -1)


class TestCurvature:
    def test_disk(self):
        phi = np.linspace(0, 2 * np.pi, 17)
        k = curvature(Disk(R=2.0), phi)
        assert np.allclose(k, 0.5, rtol=1e-14)

    def test_ellipse_extremes(self):
        e = Ellipse(b=1.0, eps=0.6)
        a, b = e.a, e.b
        k_major = float(curvature(e, 0.0))
        k_minor = float(curvature(e, math.pi / 2))
        assert k_major == pytest.approx(a / b**2, rel=1e-12)
        assert k_minor == pytest.approx(b / a**2, rel=1e-12)

    def test_concave_section_goes_negative(self):
        c = FourierCurve((1.0, 0.0, 0.0, 0.28))
        phi = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        k = curvature(c, phi)
        assert np.min(k) < 0.0 < np.max(k)

    @given(fourier_curves())
    @settings(max_examples=25, deadline=None)
    def test_turning_number(self, curve):
        # For any simple closed star-shaped boundary the signed curvature
        # integrates to 2 pi with respect to arc length.
        total = curvature_power_integral(curve, 1)
        assert total == pytest.approx(2.0 * math.pi, abs=1e-9)


class TestQuadrature:
    def test_spectral_accuracy(self):
        val = periodic_quadrature(lambda phi: np.exp(np.sin(phi)))
        assert val == pytest.approx(2.0 * math.pi * special.iv(0, 1.0), rel=1e-13)

    def test_rows_integrated_independently(self):
        vals = periodic_quadrature(lambda phi: np.stack([np.cos(phi) ** 2, np.sin(phi) ** 4]))
        assert vals[0] == pytest.approx(math.pi, rel=1e-12)
        assert vals[1] == pytest.approx(3.0 * math.pi / 4.0, rel=1e-12)

    def test_nonconvergent_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureNotConverged):
            periodic_quadrature(lambda phi: rng.normal(size=phi.shape), n_cap=2048)

    def test_stacked_rows_match_single_rows(self):
        # exp(2 cos) settles at 32 panels, 1/(1.05 - cos) at 256; the first
        # row's value at 256 panels differs from its value at 32 in the last bit.
        # The grids nest: the integrand sees the 8-point grid (levels 4 and 8),
        # then only the new odd points of each later level.
        rows = (lambda phi: np.exp(2.0 * np.cos(phi)), lambda phi: 1.0 / (1.05 - np.cos(phi)))
        levels = []

        def single(f):
            def counted(phi):
                levels.append(len(phi))
                return f(phi)

            return periodic_quadrature(counted, n_start=4)

        singles = [single(f) for f in rows]
        assert levels == [8, 8, 16] + [8, 8, 16, 32, 64, 128]
        stacked = periodic_quadrature(lambda phi: np.stack([f(phi) for f in rows]), n_start=4)
        assert stacked.tolist() == singles

    @pytest.mark.parametrize(
        "curve",
        [Disk(R=1.3), Ellipse(b=1.0, eps=0.9), FourierCurve((1.0, 0.0, 0.0, 0.28))],
    )
    def test_boundary_stack_rows_match_single_rows(self, curve, monkeypatch):
        calls = []

        def capture(integrand, rtol, level=None):
            calls.append((integrand, rtol, level))
            return periodic_quadrature(integrand, rtol, level=level)

        monkeypatch.setattr(geometry, "periodic_quadrature", capture)
        b = boundary_integrals(curve, 8, derivatives=True)
        ((integrand, rtol, level),) = calls
        rows = level or (lambda samples: samples)
        singles = [
            periodic_quadrature(integrand, tol, level=lambda s, i=i: rows(s)[i : i + 1])
            for i, tol in enumerate(rtol)
        ]
        stacked = [b.perimeter, b.area, *b.powers]
        if not isinstance(curve, Disk):
            stacked += [b.kp2, b.k_kp2, b.k2_kpp]
        assert stacked == singles

    def test_noise_row_beside_smooth_row_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureNotConverged):
            periodic_quadrature(
                lambda phi: np.stack([np.cos(phi) ** 2, rng.normal(size=phi.shape)]), n_cap=2048
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_row_that_is_not_finite_raises_at_once(self, bad):
        # Such a row never converges; the grid used to double to 2^20 panels.
        calls = []

        def integrand(phi):
            calls.append(len(phi))
            return np.stack([np.cos(phi) ** 2, np.full(phi.shape, bad)])

        message = r"^rows \[1\] are not finite before they converged$"
        with pytest.raises(QuadratureNotConverged, match=message):
            periodic_quadrature(integrand)
        assert len(calls) == 1

    def test_converged_row_that_turns_infinite_keeps_its_value(self):
        # exp(2 cos) converges on the third call (n_start = 4, as in
        # test_stacked_rows_match_single_rows) and is inf from the fourth on;
        # only the rows that have not converged must be finite.
        calls = []

        def integrand(phi):
            calls.append(len(phi))
            first = np.exp(2.0 * np.cos(phi)) if len(calls) <= 3 else np.full(phi.shape, math.inf)
            return np.stack([first, 1.0 / (1.05 - np.cos(phi))])

        with np.errstate(invalid="ignore"):  # inf - inf in the converged row
            got = periodic_quadrature(integrand, n_start=4)
        want = periodic_quadrature(
            lambda phi: np.stack([np.exp(2.0 * np.cos(phi)), 1.0 / (1.05 - np.cos(phi))]), n_start=4
        )
        assert got.tolist() == want.tolist()
        assert calls == [8, 8, 16, 32, 64, 128]

    def test_per_row_rtol(self):
        f = lambda phi: 1.0 / (1.05 - np.cos(phi))  # noqa: E731
        loose, tight = periodic_quadrature(
            lambda phi: np.stack([f(phi), f(phi)]), rtol=np.array([1e-3, 1e-12]), n_start=4
        )
        assert loose == periodic_quadrature(f, rtol=1e-3, n_start=4)
        assert tight == periodic_quadrature(f, rtol=1e-12, n_start=4)
        exact = 2.0 * math.pi / math.sqrt(1.05**2 - 1.0)
        assert abs(tight - exact) < 1e-13 * exact < abs(loose - exact)

    def test_power_integral_m0_is_perimeter(self):
        e = Ellipse(b=1.0, eps=0.5)
        assert curvature_power_integral(e, 0) == pytest.approx(
            arc_measures(e).perimeter, rel=1e-12
        )


def _full_grid_quadrature(integrand, rtol, levels, n=256, n_cap=2**20):
    """``periodic_quadrature`` before the grids nested: each level evaluated in full."""
    prev, out = None, np.nan
    while n <= n_cap:
        levels.append(n)
        phi = np.arange(n) * (2.0 * np.pi / n)
        samples = np.atleast_2d(np.asarray(integrand(phi), dtype=float))
        vals = samples.mean(axis=1) * (2.0 * np.pi)
        if prev is not None:
            tol = rtol * np.maximum(np.abs(vals), 1e-3) + 1e-15
            out = np.where(np.isnan(out) & (np.abs(vals - prev) <= tol), vals, out)
            if not np.isnan(out).any():
                return [float(v) for v in out]
        prev = vals
        n *= 2
    raise QuadratureNotConverged("reference did not converge")


def _full_grid_integrals(curve, max_power, derivatives, levels):
    """Every row of ``boundary_integrals``, with all rows formed on each full grid."""

    def integrand(phi):
        r, rp, rpp = curve.radius(phi)
        g = np.sqrt(r * r + rp * rp)
        k = geometry._curvature(r, rp, rpp)
        powers = [np.ones_like(k)]
        for _ in range(max_power):
            powers.append(powers[-1] * k)
        rows = [g, 0.5 * r * r] + [km * g for km in powers[: max_power + 1]]
        if derivatives:
            kp = geometry._spectral_derivative(k) / g
            kpp = geometry._spectral_derivative(kp) / g
            rows += [kp * kp * g, k * kp * kp * g, k * k * kpp * g]
        return np.stack(rows)

    rtol = np.array([1e-12] * (max_power + 3) + [1e-11] * 3 * derivatives)
    return _full_grid_quadrature(integrand, rtol, levels)


def _rows(b, derivatives):
    return [b.perimeter, b.area, *b.powers] + [b.kp2, b.k_kp2, b.k2_kpp] * derivatives


def _count_points(monkeypatch):
    """Grid points handed to the integrands of ``periodic_quadrature``, one entry per call."""
    points = []
    original = geometry.periodic_quadrature

    def counted(integrand, *args, **kwargs):
        def counting(phi):
            points.append(len(phi))
            return integrand(phi)

        return original(counting, *args, **kwargs)

    monkeypatch.setattr(geometry, "periodic_quadrature", counted)
    return points


def _assert_matches_full_grid_reference(curve):
    for derivatives in (False, True):
        b = boundary_integrals(curve, 8, derivatives=derivatives)
        assert _rows(b, derivatives) == _full_grid_integrals(curve, 8, derivatives, [])


class TestNestedGrids:
    @given(fourier_curves())
    @settings(max_examples=20, deadline=None)
    def test_fourier_matches_full_grid_reference(self, curve):
        _assert_matches_full_grid_reference(curve)

    @given(st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_ellipse_matches_full_grid_reference(self, eps):
        _assert_matches_full_grid_reference(Ellipse(b=1.0, eps=eps))

    @pytest.mark.parametrize("mode, J", [("curvature", 9), ("savo", 6)])
    def test_each_point_evaluated_once(self, mode, J, monkeypatch):
        # (eps, final level, points the full-grid reference evaluates): each
        # nested call hands the integrand only the final level's points.
        points = _count_points(monkeypatch)
        for eps, final, full in [(0.5, 512, 768), (0.9, 512, 768), (0.97, 2048, 3840)]:
            curve = Ellipse(b=1.0, eps=eps)
            levels = []
            _full_grid_integrals(curve, J - 1, mode == "savo", levels)
            points.clear()
            tau_large_s_series(curve, J, mode)
            assert (sum(points), levels[-1], sum(levels)) == (final, final, full)


class TestCurvatureDerivatives:
    def test_disk_short_circuit(self):
        b = boundary_integrals(Disk(R=3.0), -1, derivatives=True)
        assert (b.kp2, b.k_kp2, b.k2_kpp) == (0.0, 0.0, 0.0)

    def test_near_circle_small(self):
        b = boundary_integrals(FourierCurve((1.0, 1e-6)), -1, derivatives=True)
        assert abs(b.kp2) < 1e-9
        assert abs(b.k2_kpp) < 1e-9

    def test_integration_by_parts(self):
        # Integral of k^2 k'' = -2 integral of k [k']^2 over a closed curve.
        e = Ellipse(b=1.0, eps=0.7)
        b = boundary_integrals(e, -1, derivatives=True)
        assert b.k2_kpp == pytest.approx(-2.0 * b.k_kp2, rel=1e-8)

    def test_kp2_positive_for_noncircular(self):
        b = boundary_integrals(Ellipse(b=1.0, eps=0.5), -1, derivatives=True)
        assert b.kp2 > 0.0
