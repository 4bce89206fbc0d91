#!/usr/bin/env python3
"""Lowest-eigenvalue estimates across ellipse eccentricities in both coefficient modes.

Emits CSV rows (eps, n, lambda1_curvature, lambda1_exact, rel_gap) for the
requested orders; the exact-coefficient mode is limited to
n <= SAVO_MAX_ORDER - 2 because the closed-form boundary coefficients stop
at order SAVO_MAX_ORDER.
"""

import argparse
import sys

from heatpade.geometry import Ellipse
from heatpade.heat_content import SAVO_MAX_ORDER, ExpansionMode, tau_large_s_series
from heatpade.pade import ladder


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    ap.add_argument("--n", default="3,4")
    ap.add_argument("--b", type=float, default=1.0)
    args = ap.parse_args()

    eps_list = [float(v) for v in args.eps.split(",")]
    n_list = sorted(int(v) for v in args.n.split(","))
    if max(n_list) > SAVO_MAX_ORDER - 2:
        sys.exit(f"exact-coefficient mode requires n <= {SAVO_MAX_ORDER - 2}")

    print("eps,n,lambda1_curvature,lambda1_exact,rel_gap")
    for eps in eps_list:
        curve = Ellipse(b=args.b, eps=eps)
        lam = {}
        for mode in ExpansionMode:
            c = tau_large_s_series(curve, max(n_list) + 2, mode)
            sols = ladder(c, max(n_list))
            lam[mode] = {s.n: s.lambda1 for s in sols}
        for n in n_list:
            a = lam[ExpansionMode.CURVATURE_APPROX][n]
            b = lam[ExpansionMode.SAVO_EXACT][n]
            print(f"{eps},{n},{a!r},{b!r},{abs(a - b) / b!r}")


if __name__ == "__main__":
    main()
