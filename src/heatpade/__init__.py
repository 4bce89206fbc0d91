"""Survival-probability expansions and Dirichlet-eigenvalue estimation for star-shaped plane domains."""

from .errors import (
    DegenerateDenominator,
    HeatPadeError,
    IllConditioned,
    NoSolutionFound,
    QuadratureNotConverged,
    UnsupportedOrder,
)
from .geometry import (
    BoundaryCurve,
    Disk,
    Ellipse,
    FourierCurve,
    arc_measures,
    curvature,
    curve_from_json,
    curve_to_json,
)
from .heat_content import (
    ExpansionMode,
    LargeSSeries,
    SmallTimeExpansion,
    sigma_curvature,
    sigma_savo,
    small_time_expansion,
    small_time_survival,
    tau_large_s_series,
)
from .disk_exact import survival_disk, tau_disk
from .mc_oracle import McConfig, simulate_survival
from .pade import (
    PadeApproximant,
    PadeSolution,
    build_residuals,
    ladder,
    poles,
    prony_moments,
    select_solution,
    solve_interpolation,
)
from .series import asymptotic_ratio_coeffs, bessel_ratio, maclaurin_tau_disk

__version__ = "0.1.0"
