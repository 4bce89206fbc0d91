#!/usr/bin/env python3
"""Reproduce the disk benchmark: small-s coefficients and pole trajectory by order.

Climbs the interpolation ladder on the unit disk, prints one row per
order with (d0, d2, d4, d6, Im[s]), the exact reference row, and a 1/n^2
Richardson extrapolation of the pole's imaginary part to estimate the
lowest Dirichlet eigenvalue.
"""

import argparse

from heatpade.geometry import Disk
from heatpade.heat_content import tau_large_s_series
from heatpade.pade import ladder
from heatpade.series import j0_zeros, maclaurin_tau_disk


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=7)
    args = ap.parse_args()

    c = tau_large_s_series(Disk(), args.n_max + 2)
    sols = ladder(c, args.n_max)

    print(f"{'order':>8} {'d0':>10} {'d2':>10} {'d4':>10} {'d6':>12} {'Im[s]':>8} {'Re[s]':>10}")
    for sol in sols:
        d = sol.small_s_coeffs
        z = sol.closest_pole
        print(
            f"[{sol.n}/{sol.n + 2}]".rjust(8)
            + f" {d[0]:10.4f} {d[1]:10.5f} {d[2]:10.6f} {d[3]:12.8f}"
            + f" {z.imag:8.3f} {z.real:10.6f}"
        )
    d_exact = [float(v) for v in maclaurin_tau_disk(1, 3)]
    z1 = j0_zeros(1)[0]
    print(
        "exact".rjust(8)
        + f" {d_exact[0]:10.4f} {d_exact[1]:10.5f} {d_exact[2]:10.6f} {d_exact[3]:12.8f}"
        + f" {z1:8.3f} {0.0:10.6f}"
    )

    if args.n_max >= 2:
        im_a = sols[-2].closest_pole.imag
        im_b = sols[-1].closest_pole.imag
        na, nb = args.n_max - 1, args.n_max
        limit = (nb**2 * im_b - na**2 * im_a) / (nb**2 - na**2)
        lam = limit**2
        print(
            f"\n1/n^2 extrapolation of Im[s]: {limit:.4f} -> lambda_1 = {lam:.4f}"
            f"  (exact {z1**2:.6f}, rel err {abs(lam - z1**2) / z1**2:.2%})"
        )


if __name__ == "__main__":
    main()
