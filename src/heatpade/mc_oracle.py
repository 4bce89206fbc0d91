"""Monte-Carlo diffusion oracle for the survival probability.

Absorbed Brownian motion with unit diffusion constant: walkers start
uniformly in the domain and are killed the first time a step of dt ends
outside the boundary.  The surviving fraction estimates S(t)
independently of the analytic modules, at first-passage bias O(sqrt(dt))
toward survival.

Each walker draws from its own SFC64 stream (Doty-Humphrey's Small Fast
Chaotic generator), seeded through a SeedSequence of (seed, walker index),
and every operation acts on each walker on its own, so results are
bit-identical for a fixed seed no matter how the walkers are batched or
parallelized.

The steps that cannot absorb are not generated (walk on spheres; Muller,
Ann. Math. Stat. 27, 1956).  A walker whose clearance d, its curve's
lower bound on the distance to the boundary (``_clearance``), is at
least 4 sigma, sigma = sqrt(2 dt), jumps to the exit point of the disk
B(p, d), and its clock, kept in steps and off the grid after a jump,
gains that disk's exit time.  Every step that ends while the walker is
in the disk ends inside the domain, and by the strong Markov property
the exit point is uniform on the circle and independent of the exit
time.  So the estimator keeps the law of the Euler walk, its bias
included.  Only walkers near the boundary take grid steps, in blocks
tested with ``contains``.  The walk takes no transcendental function:
the exit time comes from a table through ``np.interp`` and the jump from
a square root and a division, so no bit depends on the SIMD kernels
numpy picks at run time.

Cost model (disk, dt = 1e-5 up to t = 0.1, 4000 walkers, seed 0; 2-core
x86-64 VM, numpy 2.4, fastest of repeated runs): a walker makes 4.7
rounds, about 3.8 jumps and 0.9 blocks, and is tested at 31 points, 17
of them to draw its start, where the Euler walker took 5813 steps.  So
its cost is now mostly fixed: about 14 us to seed its stream, 8 us to
draw its start and 28 us in its batch's rounds, each of which pays some
70 numpy calls for the batch and one draw call per walker.  Larger
batches spread those calls wider but hold more memory.  A curve without
a clearance bound (the base class) steps every walker, 16 steps per
round at about 0.16 us a step in a full batch, several times the Euler
walker's cost per step in chunks of 2048; the three shapes of the CLI
have bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import BoundaryCurve
from .series import _bessel_j01, j0_zero

# Most steps per walker; every use here needs at most 10^4, and a tiny dt
# would otherwise never end.  A unit-disk walker at dt = 1e-9 up to t = 1
# (10^9 steps) costs about 0.5 ms, since it jumps across the interior; on
# a curve without a clearance bound it would take every step, about
# 3 minutes at the docstring's cost per step.
_MAX_STEPS = 10**9


@dataclass(frozen=True)
class McConfig:
    walkers: int
    dt: float
    t_grid: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        for name in ("walkers", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.walkers < 1:
            raise ValueError("need at least one walker")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"time step must be finite and positive, got {self.dt}")
        if any(not 0 <= t < math.inf for t in self.t_grid):
            raise ValueError("observation times must be finite and non-negative")
        if any(b < a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ValueError("observation times must be ascending")
        if max(self.t_grid, default=0.0) / self.dt > _MAX_STEPS:
            raise ValueError(f"the last observation time needs more than {_MAX_STEPS:,} steps of dt")


def _walker_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, index])))


def _uniform_start(curve: BoundaryCurve, rmax: float, rng: np.random.Generator):
    """Rejection-sample one uniform point inside the domain from its bounding box."""
    while True:
        pts = rng.uniform(-rmax, rmax, size=(16, 2))
        keep = np.flatnonzero(curve.contains(pts[:, 0], pts[:, 1]))
        if keep.size:
            return pts[keep[0]]


# Walkers stepped together; each acts on its own stream and state, so the
# batch sets the cost and never a result.
_BATCH = 64
# Grid steps a walker near the boundary takes per round.
_BLOCK = 16
# A walker jumps when its clearance is at least this many step deviations.
_JUMP_CLEARANCE = 4.0


@lru_cache(maxsize=None)
def _exit_time_table():
    """Knots (R2, U) of the unit disk's exit time tau_1 from its centre.

    P(tau_1 > u) = sum_k 2 / (z_k J1(z_k)) exp(-z_k^2 u) over the J0 zeros
    z_k, and a normal pair's |g|^2 has P(|g|^2 > r) = exp(-r / 2), so
    ``np.interp(|g|^2, R2, U)`` draws tau_1 with R2_i = -2 ln P(tau_1 > U_i).
    The U_i are geometric on [0.01, 4], where the interpolated law's first
    two moments are 1/4 and 3/32 to 5e-7; P(tau_1 < 0.01) is about 3e-11.
    Past u = 4 the higher modes are below e^-98 of the first, so R2 is
    linear in u and one far knot carries the tail.
    """
    zeros = [j0_zero(k) for k in range(1, 25)]
    weights = [2.0 / (z * _bessel_j01(z)[1]) for z in zeros]
    lam = zeros[0] ** 2
    us = [0.01 * 400.0 ** (i / 511) for i in range(512)] + [1000.0]
    r2 = []
    for u in us:
        # -2 ln P(tau_1 > u) = 2 lam u - 2 ln sum_k w_k e^(-(z_k^2 - lam) u)
        terms = [w * math.exp(-(z * z - lam) * u) for w, z in zip(weights, zeros)]
        r2.append(2.0 * lam * u - 2.0 * math.log(math.fsum(terms)))
    return np.array([0.0] + r2), np.array([0.0] + us)


def _walk(curve: BoundaryCurve, rngs, starts, dt: float, n_steps: int):
    """Exit step of each walker from its start, or n_steps + 1 if it survives.

    The walker is the Euler walk, absorbed at the first step that ends
    outside the domain, with each walker's clock s kept in steps.  A
    walker whose clearance d is at least _JUMP_CLEARANCE step deviations
    jumps to the exit point of the disk B(p, d), uniform on its circle,
    and s gains that disk's exit time d^2 tau_1 / dt: every step that
    ends inside the disk ends inside the domain, and by the strong Markov
    property the walk goes on from the exit point as from a start.  The
    jump's normal pair gives both the direction g / |g| and, through
    |g|^2, tau_1.  Any other walker takes _BLOCK grid steps, the first
    of them from s to the next grid time, and is tested at each; a clock
    that passes n_steps means the walker survived.
    """
    sigma = math.sqrt(2.0 * dt)
    knots_r2, knots_u = _exit_time_table()
    pos = np.array(starts, dtype=float)
    clock = np.zeros(len(rngs))
    exit_step = np.full(len(rngs), n_steps + 1, dtype=np.int64)
    draws = np.empty((len(rngs), _BLOCK, 2))
    live = np.flatnonzero(clock < n_steps)
    while live.size:
        p, s = pos[live], clock[live]
        d = curve._clearance(p[:, 0], p[:, 1])
        far = d >= _JUMP_CLEARANCE * sigma
        drawn = draws[: live.size]
        for j, (w, jump) in enumerate(zip(live.tolist(), far.tolist())):
            rngs[w].standard_normal(out=drawn[j, 0] if jump else drawn[j])

        if far.any():
            g = drawn[far, 0]
            r2 = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
            df = d[far]
            pos[live[far]] = p[far] + (df / np.sqrt(r2))[:, None] * g
            clock[live[far]] = s[far] + df * df * np.interp(r2, knots_r2, knots_u) / dt

        near = ~far
        if near.any():
            walkers, k0 = live[near], np.floor(s[near]) + 1.0
            path = drawn[near] * sigma
            path[:, 0] *= np.sqrt(k0 - s[near])[:, None]
            np.cumsum(path, axis=1, out=path)
            path += p[near][:, None, :]
            inside = curve.contains(path[..., 0], path[..., 1])
            last = np.minimum(_BLOCK - 1, n_steps - k0).astype(np.int64)
            inside[np.arange(_BLOCK) > last[:, None]] = True  # steps past n_steps
            hit = np.argmin(inside, axis=1)
            rows = np.arange(walkers.size)
            absorbed = ~inside[rows, hit]
            exit_step[walkers[absorbed]] = k0[absorbed].astype(np.int64) + hit[absorbed]
            pos[walkers] = path[rows, last]
            clock[walkers] = k0 + last

        live = np.flatnonzero((clock < n_steps) & (exit_step > n_steps))
    return exit_step


def _exit_steps(curve: BoundaryCurve, cfg: McConfig, n_steps: int):
    """Exit step of every walker of cfg, in walker order (n_steps + 1: survived)."""
    rmax = curve.max_radius()
    out = np.empty(cfg.walkers, dtype=np.int64)
    for lo in range(0, cfg.walkers, _BATCH):
        rngs = [_walker_stream(cfg.seed, i) for i in range(lo, min(lo + _BATCH, cfg.walkers))]
        starts = [_uniform_start(curve, rmax, rng) for rng in rngs]
        out[lo : lo + len(rngs)] = _walk(curve, rngs, starts, cfg.dt, n_steps)
    return out


def simulate_survival(curve: BoundaryCurve, cfg: McConfig):
    """Estimate S(t) on cfg.t_grid; returns a list of (t, estimate, stderr).

    Absorption is checked at step ends only; the estimate carries the usual
    O(sqrt(dt)) first-passage bias toward survival.  stderr is the binomial
    value sqrt(S(1-S)/walkers).
    """
    steps_at = np.array([int(round(t / cfg.dt)) for t in cfg.t_grid])
    n_steps = int(steps_at.max(initial=0))
    exit_steps = _exit_steps(curve, cfg, n_steps)
    # exit_step >= 1, so S(0) = 1
    alive_at = np.array([np.count_nonzero(exit_steps > k) for k in steps_at], dtype=np.int64)

    out = []
    for t, n_alive in zip(cfg.t_grid, alive_at):
        s_hat = n_alive / cfg.walkers
        stderr = math.sqrt(s_hat * (1.0 - s_hat) / cfg.walkers)
        out.append((t, s_hat, stderr))
    return out
