"""Command-line front end for reproducible experiments and plot-data emission.

Each subcommand is a function of the parsed arguments that returns its
header and rows (``pade``: a JSON payload); ``main`` alone writes them,
with a run manifest (subcommand, options, seed, artifact version): as
``#`` comment lines preceding the header row in CSV output, or under a
``manifest`` key in JSON output.  The options are the parsed arguments,
with the shape as its normalized JSON and ``--method auto`` resolved to
the method that ran.  Given the manifest, every subcommand is
deterministic.

Exit codes: 0 on success, 2 on usage errors, 1 on numeric failures and
overflows, with a machine-readable JSON error record on stderr.  ``--out``
is opened before the work, as a shell redirection is: a path that cannot
be written is a usage error at once, and a failed run leaves the file empty.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
from importlib import metadata

import numpy as np

from . import __version__
from .disk_exact import survival_disk, tau_disk
from .errors import HeatPadeError
from .geometry import Disk, Ellipse, curve_from_json, curve_to_json
from .heat_content import (
    SAVO_MAX_ORDER,
    small_time_expansion,
    small_time_survival,
    tau_large_s_series,
)
from .mc_oracle import McConfig, simulate_survival
from .pade import selected_rows, solver_orders
from .series import j0_zero, maclaurin_tau_disk


class UsageError(Exception):
    pass


def _floats(text: str, flag: str):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated number list, got {text!r}") from exc
    if not vals:
        raise UsageError(f"{flag} must list at least one value")
    return vals


def _ints(text: str, flag: str):
    vals = _floats(text, flag)
    # isfinite first: int() raises on nan and on infinities.
    if not all(math.isfinite(v) and v == int(v) for v in vals):
        raise UsageError(f"expected integers, got {text!r}")
    return [int(v) for v in vals]


def _j_max(args):
    if args.j_max < 0:
        raise UsageError(f"--j-max must be non-negative, got {args.j_max}")
    return args.j_max


def _orders(orders, flag):
    """``solver_orders(orders)`` before any series is built; an order below 1 is a usage error."""
    if min(orders) < 1:
        raise UsageError(f"{flag} must be >= 1, got {min(orders)}")
    return solver_orders(orders)


def _rows(curve, orders, mode):
    """``selected_rows`` at ``orders``, ascending, off the series the highest one needs."""
    return selected_rows(tau_large_s_series(curve, orders[-1] + 2, mode), orders)


def _environment():
    """Python and numpy versions and the platform."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def _manifest(args):
    skip = {"func", "out", "subcommand"}
    return {
        "subcommand": args.subcommand,
        "version": __version__,
        "out": args.out,
        "options": {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None},
        "environment": _environment(),
    }


def _open_out(path):
    try:
        return open(path, "w", newline="") if path else sys.stdout
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from exc


def _write_csv(fh, manifest, header, rows):
    for key, value in sorted(manifest["options"].items()):
        fh.write(f"# {key}={value}\n")
    fh.write(f"# subcommand={manifest['subcommand']} version={manifest['version']}\n")
    fh.write("# " + " ".join(f"{k}={v}" for k, v in manifest["environment"].items()) + "\n")
    writer = csv.writer(fh)
    writer.writerow(header)

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, (str, int)):
            return v
        return repr(float(v))

    for row in rows:
        writer.writerow([cell(v) for v in row])


def _write_json(fh, manifest, payload):
    json.dump({"manifest": manifest, **payload}, fh, indent=2)
    fh.write("\n")


def _load_curve(args):
    """The ``--shape`` curve; ``args.shape`` becomes its normalized JSON for the manifest."""
    try:
        curve = curve_from_json(args.shape)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad shape specification: {exc}") from exc
    args.shape = json.dumps(curve_to_json(curve))
    return curve


def _solution_record(sol):
    d = sol.small_s_coeffs
    return {
        "n": sol.n,
        "p": list(sol.approximant.p),
        "q": list(sol.approximant.q),
        "poles": [[z.real, z.imag] for z in sol.poles],
        "closest_pole": [sol.closest_pole.real, sol.closest_pole.imag],
        "lambda1": sol.lambda1,
        "d": {"d0": d[0], "d2": d[1], "d4": d[2], "d6": d[3]},
    }


def cmd_coeffs(args):
    curve = _load_curve(args)
    j_max = _j_max(args)
    approx = small_time_expansion(curve, j_max).sigma
    exact = small_time_expansion(curve, min(j_max, SAVO_MAX_ORDER), "savo").sigma
    rows = [(j, s, exact[j - 1] if j <= len(exact) else None) for j, s in enumerate(approx, 1)]
    return ["j", "sigma_curvature", "sigma_exact"], rows


def _resolve_method(args, curve, what):
    """``args.method`` with "auto" resolved: exact for a disk, the expansion otherwise."""
    if args.method == "auto":
        args.method = "exact" if isinstance(curve, Disk) else "expansion"
    elif args.method == "exact" and not isinstance(curve, Disk):
        raise UsageError(f"exact {what} are available for disks only")
    return args.method


def cmd_survival(args):
    curve = _load_curve(args)
    times = _floats(args.times, "--times")
    if any(not 0 <= t < math.inf for t in times):
        raise UsageError("times must be non-negative and finite")
    j_max = _j_max(args)
    method = _resolve_method(args, curve, "survival curves")
    if method == "exact":
        rows = [(t, survival_disk(t, curve.R)) for t in times]
    else:
        exp = small_time_expansion(curve, j_max, args.mode)
        rows = [(t, small_time_survival(exp, t)) for t in times]
        for t, S in rows:
            if not 0.0 <= S <= 1.0:
                raise HeatPadeError(
                    f"the truncated expansion gives S({t!r}) = {S!r}, outside [0, 1]"
                )
    return ["t", "S"], rows


def cmd_tau(args):
    curve = _load_curve(args)
    s_values = _floats(args.s, "--s")
    if any(not 0 < s < math.inf for s in s_values):
        raise UsageError("Laplace variable values must be finite and positive")
    j_max = _j_max(args)
    method = _resolve_method(args, curve, "Laplace transforms")
    if method == "exact":
        rows = [(s, tau_disk(s, curve.R)) for s in s_values]
    else:
        c = tau_large_s_series(curve, j_max, args.mode)
        # A power of s past the double range gives a term of +-0, one below it +-inf.
        with np.errstate(all="ignore"):
            xs = np.array(s_values)
            lead = [1.0 / x**2 for x in xs]
            rows = [(s, bound + sum(cj / x ** (j + 2) for j, cj in enumerate(c.c, start=1)))
                    for s, x, bound in zip(s_values, xs, lead)]
    # By either method, a tau past the double range is an overflow.
    bad = [s for s, tau in rows if not math.isfinite(tau)]
    if bad:
        raise OverflowError(f"tau({bad[0]!r}) leaves the double range")
    if method == "expansion":
        # 0 <= S(t) <= 1 bounds tau(s) by 1/s^2, the leading term: computed on doubles
        # under the errstate above, it underflows to 0 where s^2 would overflow.
        for (s, tau), bound in zip(rows, lead):
            if not 0.0 <= tau <= bound:
                raise HeatPadeError(
                    f"the truncated expansion gives tau({s!r}) = {float(tau)!r},"
                    f" outside [0, 1/s^2] = [0, {float(bound)!r}]"
                )
    return ["s", "tau"], rows


def cmd_pade(args):
    curve = _load_curve(args)
    [sol] = _rows(curve, _orders([args.n], "--n"), args.mode)
    return {"solution": _solution_record(sol)}


def cmd_lambda1(args):
    curve = _load_curve(args)
    [n_max] = _orders([args.n_max], "--n-max")
    sols = _rows(curve, range(1, n_max + 1), args.mode)
    rows = [
        (sol.n, sol.closest_pole.imag, sol.closest_pole.real, sol.lambda1) for sol in sols
    ]
    return ["n", "im_s", "re_s", "lambda1"], rows


def cmd_sweep(args):
    eps_list = sorted(set(_floats(args.eps, "--eps")))
    n_list = _orders(set(_ints(args.n, "--n")), "--n")
    try:
        curves = [Disk(R=args.b) if e == 0.0 else Ellipse(b=args.b, eps=e) for e in eps_list]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # An order beyond the mode's reach fails here, before any cell is solved.
    series = [tau_large_s_series(curve, max(n_list) + 2, args.mode) for curve in curves]
    # The cells are in ascending eps, and each one's rows in ascending n.
    rows = [
        (e, sol.n, sol.lambda1, sol.closest_pole.imag, sol.closest_pole.real)
        for e, c in zip(eps_list, series)
        for sol in selected_rows(c, n_list)
    ]
    return ["eps", "n", "lambda1", "im_s", "re_s"], rows


def cmd_table1(args):
    [n_max] = _orders([args.n_max], "--n-max")
    sols = _rows(Disk(), range(1, n_max + 1), "curvature")
    rows = [(f"[{sol.n}/{sol.n + 2}]", *sol.small_s_coeffs, sol.closest_pole.imag) for sol in sols]
    if n_max >= 2:
        # Richardson step on the last two rows, assuming Im s_n = L - A / n^2.
        na, nb = n_max - 1, n_max
        im_a, im_b = sols[-2].closest_pole.imag, sols[-1].closest_pole.imag
        limit = (nb**2 * im_b - na**2 * im_a) / (nb**2 - na**2)
        rows.append(("n^-2", None, None, None, None, limit))
    d_exact = [float(v) for v in maclaurin_tau_disk(1, 3)]
    rows.append(("exact", *d_exact, j0_zero(1)))
    return ["pade", "d0", "d2", "d4", "d6", "im_s"], rows


def cmd_mc(args):
    curve = _load_curve(args)
    times = tuple(_floats(args.times, "--times"))
    try:
        cfg = McConfig(walkers=args.walkers, dt=args.dt, t_grid=times, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return ["t", "S_hat", "stderr"], simulate_survival(curve, cfg)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heatpade",
        description="Survival-probability expansions and lowest-eigenvalue estimates "
        "for star-shaped plane domains.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output file (default: stdout)")
        return p

    add("coeffs", cmd_coeffs, "small-time expansion coefficients for a shape")

    for name, func in (("survival", cmd_survival), ("tau", cmd_tau)):
        p = add(name, func, f"sampled {name} curve (disk exact or truncated expansion)")
        p.add_argument("--times" if name == "survival" else "--s", required=True)
        p.add_argument("--method", choices=("auto", "exact", "expansion"), default="auto")

    p = add("pade", cmd_pade, "one rational-interpolation fit at a given order")
    p.add_argument("--n", type=int, required=True)

    p = add("lambda1", cmd_lambda1, "pole trajectory and lambda_1 estimates for n = 1..N")
    p.add_argument("--n-max", type=int, default=4)

    p = add("sweep", cmd_sweep, "lambda_1 over an ellipse eccentricity grid")
    p.add_argument("--eps", required=True, help="comma-separated eccentricities")
    p.add_argument("--n", required=True, help="comma-separated orders")
    p.add_argument("--b", type=float, default=1.0, help="minor semiaxis")

    p = add("table1", cmd_table1, "disk small-s coefficients and pole imaginary parts by order")
    p.add_argument("--n-max", type=int, default=4)

    p = add("mc", cmd_mc, "Monte-Carlo survival curve")
    p.add_argument("--walkers", type=int, default=10000)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--times", required=True)
    p.add_argument("--seed", type=int, default=1)

    # Options that several subcommands share, each declared once.
    for name in ("coeffs", "survival", "tau", "pade", "lambda1", "mc"):
        sub.choices[name].add_argument("--shape", required=True, help="shape JSON (path or inline)")
    for name in ("survival", "tau", "pade", "lambda1", "sweep"):
        sub.choices[name].add_argument("--mode", choices=("curvature", "savo"), default="curvature")
    for name, default in (("coeffs", 6), ("survival", 5), ("tau", 5)):
        sub.choices[name].add_argument("--j-max", type=int, default=default)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = _open_out(args.out)
        try:
            # The subcommand has normalized args.shape and resolved args.method.
            result = args.func(args)
            if isinstance(result, dict):
                _write_json(out, _manifest(args), result)
            else:
                _write_csv(out, _manifest(args), *result)
            return 0
        finally:
            if out is not sys.stdout:
                out.close()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HeatPadeError, OverflowError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "subcommand": args.subcommand}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
