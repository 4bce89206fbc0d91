"""Monte-Carlo diffusion oracle for the survival probability.

Absorbed Brownian motion with unit diffusion constant: walkers start
uniformly in the domain and are killed the first time a step ends outside
the boundary.  The surviving fraction estimates S(t) independently of the
analytic modules, at first-passage bias O(sqrt(dt)).

Each walker draws from its own SFC64 stream (Doty-Humphrey's Small Fast
Chaotic generator), seeded through a SeedSequence of (seed, walker index),
so results are bit-identical for a fixed seed no matter how the walkers
are batched or parallelized.  SFC64 fills a (2048, 2) buffer of normals
in about two thirds of Philox's time, and the draws are most of a
walker's cost.

A walker's path is built and tested in chunks of ``_PATH_CHUNK`` steps.
One chunk costs about 10 us fixed plus 0.029 us per step (disk and
ellipse alike, 10th percentile of 400 interleaved timings per chunk size
on a 2-core x86-64 VM, numpy 2.4), and drawing the normals is most of
the per-step part.  On the disk with dt = 1e-5 up to t = 0.1 (10 000
steps), a walker needs 5813 steps on average (4000 walkers, seed 0) but
a fixed 2048 generates 6553 in 3.3 chunks.  Fixed 1024 (6166 in 6.1
chunks), fixed 512 (5984 in 11.9) and schedules growing from 64 or 256
to 2048 (6209 in 6.7, 6248 in 5.4) save steps but pay more in fixed
costs, so the chunk stays fixed.  The chunking also sets the rounding of
the positions, since the running sum restarts at every chunk and the
chunk's start position is added afterwards: any change to it changes the
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryCurve

# Most steps per walker: about 35 s on the docstring's cost model,
# while every use here needs at most 10^4; a tiny dt would otherwise never end.
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


# Steps generated per chunk; absorbed walkers stop early.  2048 beats smaller
# or growing chunks on the cost model in the module docstring, and changing
# it changes the rounding of every position.
_PATH_CHUNK = 2048


def _first_exit_step(curve: BoundaryCurve, start, sigma: float, n_steps: int, rng):
    """Index of the first step ending outside the domain, or n_steps + 1 if none.

    The path is generated and tested in vectorized chunks, each written
    into one (span, 2) slice of a buffer per walker: the draws times
    sigma, then, on its complex view x + iy, a running sum and the chunk's
    start position.  The chunk size sets how much wasted tail an absorbed
    walker generates, and the observation times never influence walker
    state.
    """
    pos = complex(start[0], start[1])
    buf = np.empty((_PATH_CHUNK, 2))
    done = 0
    while done < n_steps:
        span = min(_PATH_CHUNK, n_steps - done)
        draws = buf[:span]
        rng.standard_normal(out=draws)
        draws *= sigma
        path = draws.view(np.complex128)[:, 0]
        np.cumsum(path, out=path)
        path += pos
        inside = curve.contains(path.real, path.imag)
        hit = int(np.argmin(inside))
        if not inside[hit]:
            return done + hit + 1  # absorbed at the end of this step
        pos = path[-1]
        done += span
    return n_steps + 1  # survived every step


def simulate_survival(curve: BoundaryCurve, cfg: McConfig):
    """Estimate S(t) on cfg.t_grid; returns a list of (t, estimate, stderr).

    Absorption is checked at step ends only; the estimate carries the usual
    O(sqrt(dt)) first-passage bias toward survival.  stderr is the binomial
    value sqrt(S(1-S)/walkers).
    """
    steps_at = np.array([int(round(t / cfg.dt)) for t in cfg.t_grid])
    n_steps = int(steps_at.max(initial=0))
    rmax = curve.max_radius()
    alive_at = np.zeros(len(cfg.t_grid), dtype=np.int64)

    for i in range(cfg.walkers):
        rng = _walker_stream(cfg.seed, i)
        start = _uniform_start(curve, rmax, rng)
        exit_step = _first_exit_step(curve, start, math.sqrt(2.0 * cfg.dt), n_steps, rng)
        alive_at += steps_at < exit_step  # exit_step >= 1, so S(0) = 1

    out = []
    for t, n_alive in zip(cfg.t_grid, alive_at):
        s_hat = n_alive / cfg.walkers
        stderr = math.sqrt(s_hat * (1.0 - s_hat) / cfg.walkers)
        out.append((t, s_hat, stderr))
    return out
