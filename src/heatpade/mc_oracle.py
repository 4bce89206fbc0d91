"""Monte-Carlo diffusion oracle for the survival probability.

Absorbed Brownian motion with unit diffusion constant: walkers start
uniformly in the domain and are killed the first time a step of dt ends
outside the boundary.  The surviving fraction estimates S(t)
independently of the analytic modules, at first-passage bias O(sqrt(dt))
toward survival.

The draws come from one counter-based generator (Salmon, Moraes, Dror &
Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11): draw c of
walker w is splitmix64's output function of k_w + c * 0x9E3779B97F4A7C15
mod 2^64, and the key k_w is draw w of the key that one SeedSequence of
the seed gives.  A whole batch is drawn at once in numpy uint64
arithmetic, with no generator object or call per walker.  Each round,
and each attempt at its start, a walker reads its own next block of 32
counters, and every operation acts on each walker on its own, so results
are bit-identical for a fixed seed no matter how the walkers are batched
or parallelized.

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
tested with ``contains``.  The walk takes no vectorised transcendental
function: the exit time comes from a uniform through a table and
``np.interp``, the jump's direction from rejection in the square, a
square root and a division, and the steps' normals from a ziggurat
whose rare slow path is scalar ``math``; so no bit depends on the SIMD
kernels numpy picks at run time.

Cost model (disk, dt = 1e-5 up to t = 0.1, 4000 walkers, seed 0; 2-core
x86-64 VM, numpy 2.4, fastest of repeated runs): a walker makes 4.8
rounds, about 3.8 jumps and 1.0 blocks, and is tested at 31 points, 16
of them to draw its start, where the Euler walker took 5813 steps.  It
costs about 11 us, 1.2 us of it for its key and start.  Up to _BATCH
walkers share each round's numpy calls, and a walker that finishes makes
room for the next, so the batch stays full until the last walkers.  A
jump draws 3 numbers, and 28 more when its first candidate misses the
disk (1 time in 5); a block draws 32 normals, 1.5% of which take the
scalar slow path at a few us each.  A curve without a clearance bound
(the base class) steps every walker, 16 steps per round at about
0.18 us a step, several times the Euler walker's cost per step in
chunks of 2048; the three shapes of the CLI have bounds.
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
# (10^9 steps) costs about 1 ms, since it jumps across the interior; on
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


# Draws a walker reads per round, and per attempt at its start: one block.
_SLOTS = 32
# Walkers stepped together; each acts on its own key and state, so the
# batch sets the cost and never a result.
_BATCH = 1024
# Walkers admitted per round at most, which bounds the start's arrays.
_ADMIT = 256
# Grid steps a walker near the boundary takes per round.
_BLOCK = 16
# A walker jumps when its clearance is at least this many step deviations.
_JUMP_CLEARANCE = 4.0
# Candidate directions a jump tries, in slots 0-29; slot 31 draws tau_1.
_CANDIDATES = 15

# splitmix64's increment and output multipliers (Steele, Lea & Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_MASK = 2**64 - 1
# The ziggurat's slow path reads the further draws of counter c at
# _EXTRA + (c << 24) + i, apart from every block's counters, which stay
# far below 2^39 (a walker makes fewer than 2^32 rounds in _MAX_STEPS).
_EXTRA = 1 << 63
# Right edge of the ziggurat's base strip, for 256 layers (Doornik, ZIGNOR).
_ZIGGURAT_R = 3.6541528853610088


def _draws(keys, counters):
    """Draws ``counters`` of the keys ``keys``: uint64 arrays, keys broadcast to counters' shape."""
    z = counters * _GOLDEN
    z += keys
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX_A
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX_B
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _draw(key: int, counter: int) -> int:
    """One draw of ``_draws`` in Python integers."""
    z = (key + counter * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _unit(x):
    """Uniforms on [0, 1), multiples of 2^-53, from the top 53 bits of draws."""
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _centred(x):
    """Uniforms on (-1, 1), odd multiples of 2^-53 (so never 0), from the top 53 bits."""
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-52 - (1.0 - 2.0**-53)


def _starts(curve: BoundaryCurve, rmax: float, keys):
    """Uniform starts in the domain, and the block each walker reads next.

    Each attempt reads one block: 16 candidate points in the bounding box,
    of which the first inside the domain is the start.
    """
    starts = np.empty((keys.size, 2))
    blocks = np.zeros(keys.size, dtype=np.uint64)
    slots = np.arange(_SLOTS, dtype=np.uint64)
    pending = np.arange(keys.size)
    while pending.size:
        x = _draws(keys[pending, None], blocks[pending, None] * np.uint64(_SLOTS) + slots)
        pts = (rmax * _centred(x)).reshape(pending.size, _SLOTS // 2, 2)
        inside = curve.contains(pts[..., 0], pts[..., 1])
        first = np.argmax(inside, axis=1)
        rows = np.arange(pending.size)
        found = inside[rows, first]
        starts[pending[found]] = pts[rows, first][found]
        blocks[pending] += np.uint64(1)
        pending = pending[~found]
    return starts, blocks


def _jump_draws(keys, first):
    """Direction candidate and tau_1 uniform of jumps whose blocks start at ``first``.

    Candidate j is the point (slot 2j, slot 2j + 1) of [-1, 1]^2, and a
    jump takes the first of its _CANDIDATES that lies in the unit disk;
    slot 31 is tau_1's uniform.  Returns (g, |g|^2, uniform), with
    |g|^2 > 1 where no candidate lies in the disk.  Every jump draws its
    first candidate; only those it misses draw the others.
    """
    x = _draws(keys, first + np.array([0, 1, _SLOTS - 1], dtype=np.uint64))
    g = _centred(x[:, :2])
    r2 = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
    miss = np.flatnonzero(r2 > 1.0)
    if miss.size:
        more = _draws(keys[miss], first[miss] + np.arange(2, 2 * _CANDIDATES, dtype=np.uint64))
        more = _centred(more).reshape(miss.size, _CANDIDATES - 1, 2)
        more_r2 = more[..., 0] * more[..., 0] + more[..., 1] * more[..., 1]
        pick = np.argmax(more_r2 <= 1.0, axis=1)
        rows = np.arange(miss.size)
        g[miss], r2[miss] = more[rows, pick], more_r2[rows, pick]
    return g, r2, _unit(x[:, 2])


@lru_cache(maxsize=None)
def _ziggurat():
    """Edges X_0..X_256 and ratios X_(i+1) / X_i of the 256-layer normal ziggurat.

    Marsaglia & Tsang's layers ("The ziggurat method for generating random
    variables", J. Stat. Softw. 5, 2000) of equal area V under
    f(x) = exp(-x^2 / 2), in Doornik's symmetric form (ZIGNOR, 2005):
    layer 0 is the rectangle [0, R] x [0, f(R)] with the tail beyond R,
    V / f(R) wide, and X_256 = 0.  V is that layer's area, from erfc.
    Python lists, for ``_slow_normal``.
    """
    r = _ZIGGURAT_R
    f = math.exp(-0.5 * r * r)
    v = r * f + math.sqrt(0.5 * math.pi) * math.erfc(r / math.sqrt(2.0))
    edges = [v / f, r]
    for _ in range(2, 256):
        edges.append(math.sqrt(-2.0 * math.log(v / edges[-1] + f)))
        f = math.exp(-0.5 * edges[-1] * edges[-1])
    edges.append(0.0)
    return edges, [b / a for a, b in zip(edges, edges[1:])]


@lru_cache(maxsize=None)
def _ziggurat_arrays():
    """``_ziggurat``'s lists as arrays, for ``_normals``."""
    return tuple(np.array(t) for t in _ziggurat())


def _normals(keys, counters):
    """Standard normals from the draws (keys, counters), one draw each.

    A draw's low 8 bits pick a layer i and its top 53 bits a centred
    uniform u; u X_i is the normal when |u| < X_(i+1) / X_i, which holds
    for 98.5% of draws.  The others take ``_slow_normal``.
    """
    x = _draws(keys, counters)
    edges, ratios = _ziggurat_arrays()
    layer = (x & np.uint64(255)).astype(np.intp)
    u = _centred(x)
    z = u * edges[layer]
    slow = ~(np.abs(u) < ratios[layer])
    if slow.any():
        keys, counters = np.broadcast_arrays(keys, counters)
        args = zip(*(a[slow].tolist() for a in (keys, counters, u, layer)))
        z[slow] = [_slow_normal(*a) for a in args]
    return z


def _slow_normal(key: int, counter: int, u: float, layer: int) -> float:
    """The ziggurat's rare path for draw (key, counter), outside its layer's core.

    In scalar ``math``: the tail beyond R by Marsaglia's method in layer 0,
    the wedge test in any other, and on rejection a new draw.  Its draws are
    the counters _EXTRA + (counter << 24) + i, i = 0, 1, ...; a uniform on
    (0, 1] for a test is ((draw >> 11) + 1) 2^-53.
    """
    edges, ratios = _ziggurat()
    r = _ZIGGURAT_R
    extra = _EXTRA + (counter << 24)
    while True:
        if layer == 0:
            while True:
                a = math.log(((_draw(key, extra) >> 11) + 1) * 2.0**-53) / r
                b = math.log(((_draw(key, extra + 1) >> 11) + 1) * 2.0**-53)
                extra += 2
                if -2.0 * b >= a * a:
                    return a - r if u < 0.0 else r - a
        x = u * edges[layer]
        f0 = math.exp(-0.5 * (edges[layer] * edges[layer] - x * x))
        f1 = math.exp(-0.5 * (edges[layer + 1] * edges[layer + 1] - x * x))
        if f1 + ((_draw(key, extra) >> 11) + 1) * 2.0**-53 * (f0 - f1) < 1.0:
            return x
        d = _draw(key, extra + 1)
        extra += 2
        layer, u = d & 255, (d >> 11) * 2.0**-52 - (1.0 - 2.0**-53)
        if abs(u) < ratios[layer]:
            return u * edges[layer]


@lru_cache(maxsize=None)
def _exit_time_table():
    """Knots (P, U) of the unit disk's exit time tau_1 from its centre.

    P(tau_1 > u) = sum_k 2 / (z_k J1(z_k)) exp(-z_k^2 u) over the J0 zeros
    z_k, and P_i = P(tau_1 <= U_i), so ``np.interp(V, P, U)`` with V
    uniform on [0, 1) draws tau_1 by inversion.  The U_i are 1/1024 apart
    on [0.01, 1], which holds 99.5% of the mass, then geometric with ratio
    1.005 up to the first P_i that rounds to 1 (u = 6.56, where
    P(tau_1 > u) is below V's step 2^-53); the interpolated law's first two
    moments are 1/4 and 3/32 to 4e-7.  P(tau_1 < 0.01) is about 3e-11.
    Terms with z_k^2 u > 50 are below e^-50 and left out.
    """
    zeros = [j0_zero(k) for k in range(1, 25)]
    weights = [2.0 / (z * _bessel_j01(z)[1]) for z in zeros]
    grid = [0.01 + i / 1024 for i in range(1014)]
    grid += [1.005**i for i in range(400)]
    ps, us = [0.0], [0.0]
    for u in grid:
        terms = [1.0]
        for w, z in zip(weights, zeros):
            if z * z * u > 50.0:
                break
            terms.append(-w * math.exp(-z * z * u))
        p = math.fsum(terms)
        if p > ps[-1]:
            ps.append(p)
            us.append(u)
        if p >= 1.0:
            break
    return np.array(ps), np.array(us)


def _round(curve: BoundaryCurve, keys, pos, clock, blocks, dt: float, n_steps: int):
    """One round of live walkers; returns each one's exit step, n_steps + 1 if none.

    The walker is the Euler walk, absorbed at the first step that ends
    outside the domain, with its clock kept in steps.  A walker whose
    clearance d is at least _JUMP_CLEARANCE step deviations jumps to the
    exit point of the disk B(p, d), uniform on its circle, and its clock
    gains that disk's exit time d^2 tau_1 / dt: every step that ends
    inside the disk ends inside the domain, and by the strong Markov
    property the walk goes on from the exit point as from a start.  The
    jump's direction is the first of its candidate points in the square
    [-1, 1]^2 that lies in the unit disk, over its norm; if none does, the
    walker stays put this round.  Any other walker takes _BLOCK grid
    steps, the first of them from its clock to the next grid time, and is
    tested at each.  Each walker reads its next block of draws; ``pos``,
    ``clock`` and ``blocks`` are updated in place.
    """
    sigma = math.sqrt(2.0 * dt)
    exit_step = np.full(keys.size, n_steps + 1, dtype=np.int64)
    d = curve._clearance(pos[:, 0], pos[:, 1])
    far = d >= _JUMP_CLEARANCE * sigma
    first = blocks[:, None] * np.uint64(_SLOTS)
    blocks += np.uint64(1)

    walkers = np.flatnonzero(far)
    if walkers.size:
        g, r2, v = _jump_draws(keys[walkers, None], first[walkers])
        hit = r2 <= 1.0
        walkers, df = walkers[hit], d[walkers[hit]]
        tau = np.interp(v[hit], *_exit_time_table())
        pos[walkers] += (df / np.sqrt(r2[hit]))[:, None] * g[hit]
        clock[walkers] += df * df * tau / dt

    walkers = np.flatnonzero(~far)
    if walkers.size:
        s = clock[walkers]
        k0 = np.floor(s) + 1.0
        path = _normals(keys[walkers, None], first[walkers] + np.arange(_SLOTS, dtype=np.uint64))
        path = path.reshape(-1, _BLOCK, 2)
        path *= sigma
        path[:, 0] *= np.sqrt(k0 - s)[:, None]
        np.cumsum(path, axis=1, out=path)
        path += pos[walkers, None, :]
        inside = curve.contains(path[..., 0], path[..., 1])
        last = np.minimum(_BLOCK - 1, n_steps - k0).astype(np.int64)
        inside[np.arange(_BLOCK) > last[:, None]] = True  # steps past n_steps
        hit = np.argmin(inside, axis=1)
        rows = np.arange(walkers.size)
        absorbed = ~inside[rows, hit]
        exit_step[walkers[absorbed]] = k0[absorbed].astype(np.int64) + hit[absorbed]
        pos[walkers] = path[rows, last]
        clock[walkers] = k0 + last
    return exit_step


def _exit_steps(curve: BoundaryCurve, cfg: McConfig, n_steps: int):
    """Exit step of every walker of cfg, in walker order (n_steps + 1: survived).

    Up to _BATCH walkers are live at once: each round, walkers that left
    the domain or passed n_steps make room for the next ones.  Walker w's
    key is draw w of the key one SeedSequence of the seed gives, so seeds
    of any size work and its draws depend only on (seed, w).
    """
    exit_step = np.full(cfg.walkers, n_steps + 1, dtype=np.int64)
    if n_steps == 0:
        return exit_step
    rmax = curve.max_radius()
    seed_key = np.random.SeedSequence(cfg.seed).generate_state(1, np.uint64)
    # The live walkers' index, key, position, clock and next block.
    live = [np.empty(0, np.int64), np.empty(0, np.uint64), np.empty((0, 2)), np.empty(0), np.empty(0, np.uint64)]
    admitted = 0
    while admitted < cfg.walkers or live[0].size:
        room = min(_BATCH - live[0].size, _ADMIT, cfg.walkers - admitted)
        new = np.arange(admitted, admitted + room)
        if new.size:
            keys = _draws(seed_key, new.astype(np.uint64))
            starts, blocks = _starts(curve, rmax, keys)
            fresh = [new, keys, starts, np.zeros(new.size), blocks]
            live = [np.concatenate(pair) for pair in zip(live, fresh)]
            admitted += new.size
        walker, keys, pos, clock, blocks = live
        exits = _round(curve, keys, pos, clock, blocks, cfg.dt, n_steps)
        done = (exits <= n_steps) | (clock >= n_steps)
        exit_step[walker[done]] = exits[done]
        live = [a[~done] for a in live]
    return exit_step


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
