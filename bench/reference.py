"""Reference data and allowances the benchmark checks program outputs against.

Every number here is fixed before any run; none is fitted to a seed.
"""

import math

# Disk R = 1, curvature mode: (d0, d2, d4, d6, Im s) for n = 1..4.  These are
# the rows of acceptance criterion 6 (Table 1 of the source paper).
DISK_ROWS = {
    1: (0.1743, -0.07472, 0.008383, -0.00004709, 1.756),
    2: (0.1475, -0.03538, 0.011763, -0.00246499, 1.940),
    3: (0.1378, -0.02803, 0.006355, -0.00162755, 2.074),
    4: (0.1331, -0.02516, 0.005090, -0.00106198, 2.178),
}
DISK_ROW_RTOL = 0.01

# j_{0,1}^2: the disk's lowest Dirichlet eigenvalue.  Padé estimates
# approach it from below as the order grows.
Z01_SQ = 5.783186

# Criterion-3 identities sigma_2 = pi / area and the turning number
# (boundary integral of the curvature = 2 pi), and the agreement of the
# two coefficient modes for j <= 4, where both use the same formula.
IDENTITY_TOL = 1e-9
MODE_AGREEMENT_RTOL = 1e-12
MODE_AGREEMENT_ORDERS = 4

# Monte-Carlo allowance.  The estimate is binomial, so it may sit
# MC_STDERR_K standard errors either side of the reference.  Absorption is
# tested only at step ends, which misses sub-step boundary excursions and
# acts like moving the boundary outward by beta * sqrt(2 dt), with
# beta = -zeta(1/2) / sqrt(2 pi) (the discrete-monitoring shift of Broadie,
# Glasserman & Kou, 1997; each coordinate step has variance 2 dt).  A
# boundary shifted by delta raises S(t) by at most about (L / A) delta, so
# the estimate may also sit up to MC_BIAS_FACTOR times that above the
# reference; the factor covers curvature and start-layer corrections to
# the flat-boundary result.
MC_STDERR_K = 5.0
MC_BETA = 0.5825971579390106
MC_BIAS_FACTOR = 2.0


def mc_bias_allowance(perimeter: float, area: float, dt: float) -> float:
    """One-sided O(sqrt(dt)) allowance for end-of-step absorption."""
    return MC_BIAS_FACTOR * (perimeter / area) * MC_BETA * math.sqrt(2.0 * dt)
