"""Exception types shared across the package."""


class HeatPadeError(Exception):
    """Base class for all numeric failures raised by this package."""


class QuadratureNotConverged(HeatPadeError):
    """Periodic quadrature did not reach the requested tolerance within the panel cap."""


class UnsupportedOrder(HeatPadeError):
    """Requested expansion order is outside the range the formulas cover."""


class DegenerateDenominator(HeatPadeError):
    """Power-series division requires a nonzero constant denominator term."""


class NoSolutionFound(HeatPadeError):
    """No root was real, no real root polished to a root, or none passed the physical filter."""


class IllConditioned(HeatPadeError):
    """A linear-algebra subproblem is numerically singular."""
