"""Star-shaped plane boundaries in polar form and their curvature integrals.

A boundary is a smooth, strictly positive, 2*pi-periodic radius function
r(phi).  Three parametrizations are supported: a circle, an ellipse
r(phi) = b / sqrt(1 - eps^2 cos^2 phi) with minor semiaxis b, and a general
trigonometric polynomial.  All boundary integrals use the trapezoidal rule
on the uniform periodic grid, which is spectrally accurate for smooth
integrands.  ``boundary_integrals`` computes every integral a coefficient
series needs in one quadrature pass: the grids nest, so each grid point
evaluates r, the arc element and the curvature once, and each integral is
a row that converges on its own as the panel count doubles.  The
integrands take no np.power, np.exp or np.log, whose kernels numpy picks
per CPU at run time, so that every numpy build gives the same bits.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import QuadratureNotConverged

_VALIDATION_SAMPLES = 4096
# Boundary samples of a FourierCurve's clearance bound, and the points it
# takes at once, which caps its temporaries at 512 KB each.
_CLEARANCE_SAMPLES = 512
_CLEARANCE_CHUNK = 128
_QUAD_START = 256
_QUAD_CAP = 2**20
_QUAD_RTOL = 1e-12


@dataclass(frozen=True)
class BoundaryCurve:
    """Base class; subclasses provide r(phi) and its first two derivatives."""

    def radius(self, phi):
        """Return (r, r', r'') at the angles ``phi`` (scalar or array)."""
        raise NotImplementedError

    def contains(self, x, y):
        """Vectorized point-in-domain test."""
        return self._inside(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def _inside(self, x, y):
        """``contains`` on float arrays; the polar test x^2 + y^2 <= r(phi)^2."""
        rb, _, _ = self.radius(np.arctan2(y, x))
        return x * x + y * y <= rb * rb

    def _clearance(self, x, y):
        """A lower bound on the distance from interior points to the boundary.

        The base class knows none, so it returns 0; a subclass gives a
        bound a walker can jump by (``mc_oracle``).
        """
        return np.zeros(np.shape(x))

    def max_radius(self):
        r, _, _ = self.radius(np.linspace(0.0, 2.0 * np.pi, _VALIDATION_SAMPLES, endpoint=False))
        return float(np.max(r))


@dataclass(frozen=True)
class Disk(BoundaryCurve):
    R: float = 1.0

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ValueError(f"disk radius must be finite and positive, got {self.R}")

    def radius(self, phi):
        phi = np.asarray(phi, dtype=float)
        r = np.full_like(phi, self.R)
        z = np.zeros_like(phi)
        return r, z, z

    def _inside(self, x, y):
        return x * x + y * y <= self.R * self.R

    def _clearance(self, x, y):
        return self.R - np.sqrt(x * x + y * y)


@dataclass(frozen=True)
class Ellipse(BoundaryCurve):
    """r(phi) = b / sqrt(1 - eps^2 cos^2 phi); b is the minor semiaxis."""

    b: float = 1.0
    eps: float = 0.0

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise ValueError(f"minor semiaxis must be finite and positive, got {self.b}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {self.eps}")

    @property
    def a(self):
        """Major semiaxis."""
        return self.b / math.sqrt(1.0 - self.eps**2)

    def _inside(self, x, y):
        # The implicit form (1 - eps^2) x^2 + y^2 <= b^2: no angle, no r' or r''.
        return (1.0 - self.eps**2) * (x * x) + y * y <= self.b * self.b

    def _clearance(self, x, y):
        # A point on the scaled boundary rho E has the disk of radius
        # (1 - rho) b around it inside E, since rho E + (1 - rho) B(0, b) is
        # in the convex E, and rho = sqrt((1 - eps^2) x^2 + y^2) / b.
        return self.b - np.sqrt((1.0 - self.eps**2) * (x * x) + y * y)

    def radius(self, phi):
        phi = np.asarray(phi, dtype=float)
        e2 = self.eps**2
        cos = np.cos(phi)
        u = 1.0 - e2 * (cos * cos)
        up = e2 * np.sin(2.0 * phi)
        upp = 2.0 * e2 * np.cos(2.0 * phi)
        # u^-1/2, u^-3/2 and u^-5/2 by sqrt and division, which every numpy
        # build rounds alike; np.power's kernels differ in the last bits.
        h1 = 1.0 / np.sqrt(u)
        h3 = h1 / u
        h5 = h3 / u
        r = self.b * h1
        rp = -0.5 * self.b * h3 * up
        rpp = 0.75 * self.b * h5 * up * up - 0.5 * self.b * h3 * upp
        return r, rp, rpp


@dataclass(frozen=True)
class FourierCurve(BoundaryCurve):
    """r(phi) = cos_coeffs[0] + sum_m cos_coeffs[m] cos(m phi) + sin_coeffs[m] sin(m phi).

    The radius must stay positive.  Since r(phi) >= c_0 - S with S the sum
    of |c_m| and |s_m| over m >= 1, a curve with c_0 - S above a rounding
    margin of K 2^-50 (|c_0| + S), K the number of coefficients, is
    accepted without evaluating r.  Otherwise min r is sampled on
    max(4096, 8 M) uniform points, M the highest mode, so that no mode
    aliases to a constant on the grid.  ``max_radius`` is the exact bound
    c_0 + sum_m sqrt(c_m^2 + s_m^2), padded by the same margin, so no
    computed r exceeds it.
    """

    cos_coeffs: tuple = (1.0,)
    sin_coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        if not self.cos_coeffs:
            raise ValueError("cos_coeffs must contain at least the constant term")
        if not all(math.isfinite(c) for c in self.cos_coeffs + self.sin_coeffs):
            raise ValueError("Fourier coefficients must be finite")
        # r >= c0 - S everywhere.  The margin exceeds the rounding of any
        # sampled sum of r, so each curve accepted here passes the sampled
        # check too, and the two rules make the same decisions.
        c0, amplitude, margin = self._amplitude()
        if c0 - amplitude > margin:
            return
        modes = max(len(self.cos_coeffs) - 1, len(self.sin_coeffs))
        n = max(_VALIDATION_SAMPLES, 8 * modes)
        r, _, _ = self.radius(np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
        if np.min(r) <= 0.0:
            raise ValueError("boundary radius must stay positive (star-shaped about origin)")

    def _amplitude(self):
        """(c0, S, margin): r lies in [c0 - S, c0 + S], and margin exceeds the rounding of r."""
        c0, rest = self.cos_coeffs[0], self.cos_coeffs[1:] + self.sin_coeffs
        amplitude = sum(abs(c) for c in rest)
        return c0, amplitude, (1 + len(rest)) * 2.0**-50 * (abs(c0) + amplitude)

    def _clearance(self, x, y):
        # Every boundary point lies within L pi / N of one of N samples
        # gamma(phi_i), L >= max |gamma'|, so the distance to the nearest
        # sample, less L pi / N, bounds the distance to the boundary.
        bx, by, slack = self._boundary_samples
        x, y = np.broadcast_arrays(x, y)
        xs, ys = np.ravel(x), np.ravel(y)
        d2 = np.empty(xs.size)
        for i in range(0, xs.size, _CLEARANCE_CHUNK):
            dx = xs[i : i + _CLEARANCE_CHUNK, None] - bx
            dy = ys[i : i + _CLEARANCE_CHUNK, None] - by
            dx *= dx
            dy *= dy
            dx += dy
            d2[i : i + _CLEARANCE_CHUNK] = dx.min(axis=1)
        return np.sqrt(d2).reshape(x.shape) - slack

    @cached_property
    def _boundary_samples(self):
        """(x_i, y_i, slack) of the _CLEARANCE_SAMPLES points of ``_clearance``."""
        n = _CLEARANCE_SAMPLES
        phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        r, _, _ = self.radius(phi)
        # |gamma'| = sqrt(r^2 + r'^2) <= max r + sum_m m |(c_m, s_m)|.
        modes = itertools.zip_longest(self.cos_coeffs[1:], self.sin_coeffs, fillvalue=0.0)
        speed = self.max_radius() + sum(m * math.hypot(c, s) for m, (c, s) in enumerate(modes, 1))
        return r * np.cos(phi), r * np.sin(phi), speed * math.pi / n

    def max_radius(self):
        c0, _, margin = self._amplitude()
        modes = itertools.zip_longest(self.cos_coeffs[1:], self.sin_coeffs, fillvalue=0.0)
        return c0 + sum(math.hypot(c, s) for c, s in modes) + margin

    def radius(self, phi):
        phi = np.asarray(phi, dtype=float)
        r = np.full_like(phi, self.cos_coeffs[0])
        rp = np.zeros_like(phi)
        rpp = np.zeros_like(phi)
        # cos(m phi) and sin(m phi) once per mode, shared by the two loops;
        # the loops keep their order, so the sums are the same bit for bit.
        trig = {}
        for m, c in enumerate(self.cos_coeffs):
            if m == 0 or c == 0.0:
                continue
            cm, sm = trig[m] = np.cos(m * phi), np.sin(m * phi)
            r += c * cm
            rp += -c * m * sm
            rpp += -c * m * m * cm
        for i, s in enumerate(self.sin_coeffs):
            m = i + 1
            if s == 0.0:
                continue
            cm, sm = trig.pop(m) if m in trig else (np.cos(m * phi), np.sin(m * phi))
            r += s * sm
            rp += s * m * cm
            rpp += -s * m * m * sm
        return r, rp, rpp

    def mirrored(self):
        """Reflection across the x-axis (sin coefficients negated)."""
        return FourierCurve(self.cos_coeffs, tuple(-s for s in self.sin_coeffs))


# Each shape kind's fields besides "kind"; a shape may hold no others.
_SHAPE_FIELDS = {"disk": {"R"}, "ellipse": {"b", "eps"}, "fourier": {"cos", "sin"}}


def _number(value, name):
    """A JSON number as a float: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is outside the double range") from exc


def _numbers(value, name):
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array of numbers, got {value!r}")
    return tuple(_number(v, name) for v in value)


def curve_from_json(spec) -> BoundaryCurve:
    """Build a curve from a shape dict or a JSON file path / string.

    ``R``, ``b`` and ``eps`` must be numbers and ``cos`` and ``sin``
    arrays of numbers; a key that the kind does not read is an error.
    """
    if isinstance(spec, str):
        try:
            with open(spec) as fh:
                spec = json.load(fh)
        except OSError:
            spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"a shape must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in _SHAPE_FIELDS:
        raise ValueError(f"unknown shape kind {kind!r}")
    unknown = sorted(set(spec) - _SHAPE_FIELDS[kind] - {"kind"})
    if unknown:
        raise ValueError(f"a {kind} shape has no field {', '.join(map(repr, unknown))}")
    if kind == "disk":
        return Disk(R=_number(spec["R"], "R"))
    if kind == "ellipse":
        return Ellipse(b=_number(spec["b"], "b"), eps=_number(spec["eps"], "eps"))
    cos = _numbers(spec.get("cos", [1.0]), "cos")
    return FourierCurve(cos, _numbers(spec.get("sin", []), "sin"))


def curve_to_json(curve: BoundaryCurve) -> dict:
    if isinstance(curve, Disk):
        return {"kind": "disk", "R": curve.R}
    if isinstance(curve, Ellipse):
        return {"kind": "ellipse", "b": curve.b, "eps": curve.eps}
    if isinstance(curve, FourierCurve):
        return {"kind": "fourier", "cos": list(curve.cos_coeffs), "sin": list(curve.sin_coeffs)}
    raise TypeError(f"cannot serialize {type(curve).__name__}")


def _curvature(r, rp, rpp):
    d = r * r + rp * rp
    return (r * r + 2.0 * rp * rp - r * rpp) / (d * np.sqrt(d))


def curvature(curve: BoundaryCurve, phi):
    """Signed curvature k = (r^2 + 2 r'^2 - r r'') / (r^2 + r'^2)^(3/2).

    Positive on convex arcs, negative on concave arcs; concave sections of
    the boundary therefore flip the sign of the odd-order expansion terms
    without any special casing downstream.
    """
    return _curvature(*curve.radius(phi))


def _grid(n, first=0, step=1):
    """Every ``step``-th angle of the uniform n-point grid, from index ``first``."""
    return np.arange(first, n, step) * (2.0 * np.pi / n)


def _nested_levels(pointwise, n, n_cap):
    """Sample stacks on the grids n, 2n, 4n, ... <= n_cap, each point evaluated once.

    The 2n grid is evaluated first and the n level is its even-indexed
    samples; every later level keeps the previous one at its even indices
    and evaluates only the odd ones.  A single level cannot converge, so
    nothing is evaluated when 2n exceeds ``n_cap``.
    """
    if 2 * n > n_cap:
        return
    samples = pointwise(_grid(2 * n))
    # Contiguous, as a full evaluation of the n grid would be.
    yield np.ascontiguousarray(samples[:, ::2])
    yield samples
    n *= 4
    while n <= n_cap:
        nested = np.empty((samples.shape[0], n))
        nested[:, ::2] = samples
        nested[:, 1::2] = pointwise(_grid(n, 1, 2))
        samples = nested
        yield samples
        n *= 2


def periodic_quadrature(
    integrand, rtol=_QUAD_RTOL, n_start=_QUAD_START, n_cap=_QUAD_CAP, level=None
):
    """Integrate smooth 2*pi-periodic integrands over one period.

    ``integrand(phi)`` returns either a 1-D sample array or a stack of
    sample rows (one integral per row).  It must be pointwise: each sample
    depends on its own angle only, since the grids nest and each angle is
    handed to it once, in any grouping.  ``level(samples)``, if given,
    maps each level's full stack of pointwise samples to the rows that are
    integrated; it carries whatever needs the whole grid at once, such as
    a spectral derivative.  The grid is doubled while any row is
    unconverged; each row keeps the first value that changed by less than
    ``rtol`` (a scalar or one entry per row) relative to its magnitude, so
    it equals a single-row call on the same samples bit for bit.  A row
    that is not finite before it converges never will, and raises at once.
    """

    def pointwise(phi):
        return np.atleast_2d(np.asarray(integrand(phi), dtype=float))

    prev, out = None, np.nan
    for samples in _nested_levels(pointwise, n_start, n_cap):
        rows = samples if level is None else level(samples)
        vals = rows.mean(axis=1) * (2.0 * np.pi)
        # A sample past the double range stays in every finer grid.
        pending = np.isnan(out) & ~np.isfinite(vals)
        if pending.any():
            bad = np.flatnonzero(pending).tolist()
            raise QuadratureNotConverged(f"rows {bad} are not finite before they converged")
        if prev is not None:
            tol = rtol * np.maximum(np.abs(vals), 1e-3) + 1e-15
            out = np.where(np.isnan(out) & (np.abs(vals - prev) <= tol), vals, out)
            if not np.isnan(out).any():
                return out if out.size > 1 else float(out[0])
        prev = vals
    raise QuadratureNotConverged(f"no convergence below rtol={rtol} within {n_cap} panels")


@dataclass(frozen=True)
class BoundaryIntegrals:
    """Arc-length boundary integrals from one quadrature pass.

    ``powers[m]`` integrates k^m for m = 0..max_power; ``kp2``, ``k_kp2``
    and ``k2_kpp`` integrate [k']^2, k [k']^2 and k^2 k'' (0.0 when not
    requested, and always on the disk).
    """

    perimeter: float
    area: float
    powers: tuple
    kp2: float = 0.0
    k_kp2: float = 0.0
    k2_kpp: float = 0.0


@lru_cache(maxsize=None)
def _derivative_factors(n):
    """i m for the modes m of an n-point rfft, read-only; n is one of the few grid levels."""
    freqs = np.arange(n // 2 + 1)
    if n % 2 == 0:
        # Nyquist mode differentiates to zero for a real signal.
        freqs[-1] = 0
    factors = 1j * freqs
    factors.flags.writeable = False
    return factors


def _spectral_derivative(values):
    """Derivative of a periodic sample set via its trigonometric interpolant."""
    n = values.shape[-1]
    return np.fft.irfft(_derivative_factors(n) * np.fft.rfft(values), n=n)


def boundary_integrals(curve: BoundaryCurve, max_power: int, derivatives=False):
    """Perimeter, area, the k^m integrals and optionally the k-derivative ones, in one pass.

    Each grid point evaluates r(phi), the arc element g = sqrt(r^2 + r'^2)
    and k once; every integral is a row of the same ``periodic_quadrature``
    call and converges on its own.  Primes on k denote arc-length
    derivatives, d/d(arc) = (d/d phi) / g, with the angular derivative
    taken spectrally from each level's full k and g; those rows get rtol
    1e-11.
    """
    derivatives = derivatives and not isinstance(curve, Disk)
    n_rows = max_power + 3

    def integrand(phi):
        r, rp, rpp = curve.radius(phi)
        g = np.sqrt(r * r + rp * rp)
        k = _curvature(r, rp, rpp)
        # k^m as a running product, for the reason in Ellipse.radius.
        powers = [np.ones_like(k)]
        for _ in range(max_power):
            powers.append(powers[-1] * k)
        rows = [g, 0.5 * r * r] + [km * g for km in powers[: max_power + 1]]
        # k rides last for the derivative rows, which need each level's full grid.
        return np.stack(rows + [k] if derivatives else rows)

    def derivative_rows(samples):
        g, k = samples[0], samples[-1]
        kp = _spectral_derivative(k) / g
        kpp = _spectral_derivative(kp) / g
        return np.vstack([samples[:-1], kp * kp * g, k * kp * kp * g, k * k * kpp * g])

    rtol = np.array([_QUAD_RTOL] * n_rows + [1e-11] * 3 * derivatives)
    level = derivative_rows if derivatives else None
    # A row past the double range or not a number (0/0 where r^2 underflows)
    # fails the pass, so its overflow or invalid value is no news.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = [float(v) for v in periodic_quadrature(integrand, rtol, level=level)]
    return BoundaryIntegrals(vals[0], vals[1], tuple(vals[2:n_rows]), *vals[n_rows:])


def arc_measures(curve: BoundaryCurve) -> BoundaryIntegrals:
    """Perimeter and enclosed area of the boundary (``.perimeter``, ``.area``)."""
    return boundary_integrals(curve, -1)


def curvature_power_integral(curve: BoundaryCurve, m: int) -> float:
    """Boundary integral of k^m with respect to arc length; m = 0 gives the perimeter."""
    if m < 0:
        raise ValueError("power must be non-negative")
    return boundary_integrals(curve, m).powers[m]

