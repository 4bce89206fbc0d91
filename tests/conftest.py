import numpy as np
from hypothesis import strategies as st

from heatpade.geometry import FourierCurve
from heatpade.series import ASYMPTOTIC_FROM

# Where I1/I0 and the disk's tau are checked against 30-digit mpmath: 400
# log-spaced x in [1e-3, 1e4], and the seam of their two branches.
BESSEL_GRID = (
    *map(float, np.geomspace(1e-3, 1e4, 400)),
    ASYMPTOTIC_FROM - 1e-12,
    ASYMPTOTIC_FROM,
    ASYMPTOTIC_FROM + 1e-12,
)


@st.composite
def fourier_curves(shapes, max_modes=4):
    """Random star-shaped trigonometric boundaries, kept safely positive.

    The perturbation amplitudes are budgeted so the radius stays above 0.4,
    which also keeps the curvature integrals well conditioned.
    """
    n = shapes(st.integers(min_value=0, max_value=max_modes))
    budget = 0.6 / max(n, 1)
    amp = st.floats(min_value=-budget / 2, max_value=budget / 2, allow_nan=False)
    cos = [1.0] + [shapes(amp) for _ in range(n)]
    sin = [shapes(amp) for _ in range(n)]
    return FourierCurve(tuple(cos), tuple(sin))


def random_fourier_curve(rng: np.random.Generator, max_modes=4) -> FourierCurve:
    """Plain-RNG counterpart of the hypothesis strategy."""
    n = int(rng.integers(1, max_modes + 1))
    budget = 0.6 / n
    cos = [1.0] + list(rng.uniform(-budget / 2, budget / 2, size=n))
    sin = list(rng.uniform(-budget / 2, budget / 2, size=n))
    return FourierCurve(tuple(cos), tuple(sin))
