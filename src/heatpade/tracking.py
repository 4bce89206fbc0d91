"""Predictor-corrector tracking of homotopy paths H(p(t), t) = 0 from t = 0 to t = 1.

``track(homotopy, p)`` follows each row of p, a root of H(., 0), and
knows nothing of where the homotopy comes from: ``homotopy`` is the map
(p, t) -> (H, H_p, -H_t) at rows of p, each row at its own t.  Each
round is the classical four-stage Runge-Kutta predictor (RK4) on
dp/dt = -H_p^-1 H_t, then ``_CORRECTOR_STEPS`` Newton steps, each stage
one batched solve (``_solve_rows``: a singular H_p gives its row a NaN
step, which fails).
RK4 lands closer to the path than an Euler step, so fewer steps fail and
the step cap can be larger (Bates, Hauenstein, Sommese & Wampler,
"Numerically Solving Polynomial Systems with Bertini", 2013).  A step
succeeds when the last Newton correction is within ``_CORRECTOR_TOL`` of
1 + |p|; the row's step then grows by 1.5 up to ``_MAX_STEP``, and
halves on failure.  A row ends in one of three ways: at t = 1, at a root
of H(., 1); at t < 1 once |p| passes ``_AT_INFINITY``, a path to infinity
and no stall; or stalled, when its step falls below ``_MIN_STEP`` short
of both.

A known limit: a path that runs to infinity like 1/(1 - t) but stays
below ``_AT_INFINITY`` within ``_END_SLACK`` of t = 1 is reported as a
stall, since every step there is stretched to t = 1, where H_p is
singular (H = (1 - t) p - 1 from p = 1 stalls at t = 1 - 1.01e-12 with
|p| = 9.92e11).  An endgame (ROADMAP item 20(c)) is the fix.
"""

import numpy as np

_MAX_STEP = 0.2
_MIN_STEP = 1e-14
# A step that would leave less than this short of t = 1 ends at t = 1: steps
# summed in doubles can fall short of 1 by a rounding (ten of 0.1 sum to
# 1 - 2^-53, where five of 0.2 sum to 1.0), which would cost a last full round.
_END_SLACK = 1e-12
_CORRECTOR_STEPS = 3
_CORRECTOR_TOL = 1e-8
_AT_INFINITY = 1e12


def _solve_rows(A, b):
    """A^-1 b for each row of a batch, and NaN for a row whose A is singular.

    The rows are solved one by one only when the batched solve refuses one.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.full(b.shape, np.nan, dtype=complex)
        return np.concatenate([_solve_rows(A[i : i + 1], b[i : i + 1]) for i in range(len(b))])


def track(homotopy, p):
    """Follow each row of p from t = 0: (ends, t at the ends, each row's stall flag)."""
    p_end, t_end, stalled = np.empty_like(p), np.empty(len(p)), np.zeros(len(p), dtype=bool)
    p, t, h = p.copy(), np.zeros(len(p)), np.full(len(p), _MAX_STEP)
    rows = np.arange(len(p))
    with np.errstate(all="ignore"):
        while len(rows):
            dt = np.where(1.0 - t <= h + _END_SLACK, 1.0 - t, h)
            step = dt[:, None]
            # RK4 predictor; each stage solves H_p v = -H_t.
            v1 = _solve_rows(*homotopy(p, t)[1:])
            v2 = _solve_rows(*homotopy(p + step / 2 * v1, t + dt / 2)[1:])
            v3 = _solve_rows(*homotopy(p + step / 2 * v2, t + dt / 2)[1:])
            v4 = _solve_rows(*homotopy(p + step * v3, t + dt)[1:])
            x = p + step / 6 * (v1 + 2 * v2 + 2 * v3 + v4)
            for _ in range(_CORRECTOR_STEPS):
                H, Hp, _ = homotopy(x, t + dt)
                dx = _solve_rows(Hp, H)
                x = x - dx
            size = np.linalg.norm(x, axis=1)
            ok = np.isfinite(size) & (np.linalg.norm(dx, axis=1) <= _CORRECTOR_TOL * (1.0 + size))
            p[ok], t[ok] = x[ok], t[ok] + dt[ok]
            h = np.where(ok, np.minimum(1.5 * h, _MAX_STEP), 0.5 * h)
            infinite = np.linalg.norm(p, axis=1) > _AT_INFINITY
            stall = (h < _MIN_STEP) & ~infinite
            done = infinite | (t >= 1.0) | stall
            if done.any():
                p_end[rows[done]], t_end[rows[done]], stalled[rows[done]] = p[done], t[done], stall[done]
                rows, p, t, h = rows[~done], p[~done], t[~done], h[~done]
    return p_end, t_end, stalled
