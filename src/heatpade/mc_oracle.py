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
tested with ``contains``.  Every variate is a normal from one ziggurat
of 1024 layers whose rare slow path is scalar ``math``.  A jump takes a
normal pair g: its direction g / |g| is uniform and independent of
|g|^2, and 1 - exp(-|g|^2 / 2) is uniform, so the exit time comes from
|g|^2 through a table and ``np.interp``.  The walk takes no vectorised
transcendental function, so no bit depends on the SIMD kernels numpy
picks at run time.

Cost model (disk, dt = 1e-5 up to t = 0.1, 4000 walkers, seed 0; 2-core
x86-64 VM, numpy 2.4, fastest of repeated runs): a walker makes 4.8
rounds, about 3.8 jumps and 1.0 blocks, and is tested at 32 points, 16
of them to draw its start, where the Euler walker took 5813 steps.  It
costs about 4.5 us, 0.5 us of it for its key and start.  Up to _BATCH
walkers share each round's numpy calls, and a walker that finishes makes
room for the next, so the batch stays full until the last walkers.  The
live walkers are two arrays, one of integers and one of floats, that
one mask filters each round.  A jump draws 2 normals and a block 32;
0.43% of normals take the scalar slow path at a few us each.  A curve
without a clearance bound (the base class) steps every walker, 16 steps
per round at about 0.1 us a step, about twice the Euler walker's cost
per step in chunks of 2048; the three shapes of the CLI have bounds.
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
# The ziggurat's layers, picked by a draw's low 10 bits, and the right edge
# of its base strip, for which the layers' recursion closes at X_1024 = 0.
_LAYERS = 1024
_ZIGGURAT_R = 4.038849846109505


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


@lru_cache(maxsize=None)
def _ziggurat():
    """Edges X_0..X_1024 and ratios X_(i+1) / X_i of the _LAYERS-layer normal ziggurat.

    Marsaglia & Tsang's layers ("The ziggurat method for generating random
    variables", J. Stat. Softw. 5, 2000) of equal area V under
    f(x) = exp(-x^2 / 2), in Doornik's symmetric form (ZIGNOR, 2005):
    layer 0 is the rectangle [0, R] x [0, f(R)] with the tail beyond R,
    V / f(R) wide, and X_1024 = 0.  V is that layer's area, from erfc.
    Python lists, for ``_slow_normal``.
    """
    r = _ZIGGURAT_R
    f = math.exp(-0.5 * r * r)
    v = r * f + math.sqrt(0.5 * math.pi) * math.erfc(r / math.sqrt(2.0))
    edges = [v / f, r]
    for _ in range(2, _LAYERS):
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

    A draw's low 10 bits pick a layer i and its top 53 bits a centred
    uniform u, so the two share no bit; u X_i is the normal when
    |u| < X_(i+1) / X_i, which holds for 99.57% of draws.  The others
    take ``_slow_normal``.
    """
    x = _draws(keys, counters)
    edges, ratios = _ziggurat_arrays()
    layer = (x & np.uint64(_LAYERS - 1)).astype(np.intp)
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
        layer, u = d & (_LAYERS - 1), (d >> 11) * 2.0**-52 - (1.0 - 2.0**-53)
        if abs(u) < ratios[layer]:
            return u * edges[layer]


@lru_cache(maxsize=None)
def _exit_time_table():
    """Knots (R2, U) of the unit disk's exit time tau_1 from its centre.

    P(tau_1 > u) = sum_k 2 / (z_k J1(z_k)) exp(-z_k^2 u) over the J0 zeros
    z_k, P_i = P(tau_1 <= U_i) and R2_i = -2 log(1 - P_i).  For a normal
    pair g, 1 - exp(-|g|^2 / 2) is uniform, so ``np.interp(|g|^2, R2, U)``
    draws tau_1 by inversion, independent of g's direction.  The U_i are
    1/1024 apart on [0.01, 1], which holds 99.5% of the mass, then
    geometric with ratio 1.005 up to the last P_i below 1 (R2 = 73.5 at
    u = 6.39; |g|^2 passes it with probability about 1e-16 and then reads
    the last U_i); the interpolated law's first two moments are 1/4 and
    3/32 less 4.1e-7 and 6.2e-8.  P(tau_1 < 0.01) is about 3e-11.  Terms
    with z_k^2 u > 50 are below e^-50 and left out.
    """
    zeros = [j0_zero(k) for k in range(1, 25)]
    weights = [2.0 / (z * _bessel_j01(z)[1]) for z in zeros]
    grid = [0.01 + i / 1024 for i in range(1014)]
    grid += [1.005**i for i in range(400)]
    r2s, us = [0.0], [0.0]
    for u in grid:
        terms = [1.0]
        for w, z in zip(weights, zeros):
            if z * z * u > 50.0:
                break
            terms.append(-w * math.exp(-z * z * u))
        p = math.fsum(terms)
        if p >= 1.0:
            break
        r2 = -2.0 * math.log1p(-p)
        if r2 > r2s[-1]:
            r2s.append(r2)
            us.append(u)
    return np.array(r2s), np.array(us)


def _round(curve: BoundaryCurve, ints, floats, exit_step, dt: float, n_steps: int):
    """One round of the live walkers; returns the mask of those still live.

    ``ints`` holds each live walker's (index, key, next block) and
    ``floats`` its (x, y, clock), both updated in place; a walker absorbed
    this round has its exit step written into ``exit_step`` at its index.
    The walker is the Euler walk, absorbed at the first step that ends
    outside the domain, with its clock kept in steps.  A walker whose
    clearance d is at least _JUMP_CLEARANCE step deviations jumps to the
    exit point of the disk B(p, d), and its clock gains that disk's exit
    time d^2 tau_1 / dt: every step that ends inside the disk ends inside
    the domain, and by the strong Markov property the walk goes on from
    the exit point as from a start.  The jump reads the normal pair g of
    its block's slots 0 and 1: it moves by d g / |g|, uniform on the
    circle, and tau_1 comes from |g|^2, which is independent of g / |g|,
    through ``_exit_time_table``.  Any other walker takes _BLOCK grid
    steps, the first of them from its clock to the next grid time, and is
    tested at each.  A walker stays live until it is absorbed or its clock
    reaches n_steps.
    """
    walker, keys, blocks = ints
    x, y, clock = floats
    sigma = math.sqrt(2.0 * dt)
    d = curve._clearance(x, y)
    far = d >= _JUMP_CLEARANCE * sigma
    first = blocks[:, None] * np.uint64(_SLOTS)
    blocks += np.uint64(1)
    live = np.ones(walker.size, dtype=bool)

    walkers = np.flatnonzero(far)
    if walkers.size:
        g = _normals(keys[walkers, None], first[walkers] + np.arange(2, dtype=np.uint64))
        r2 = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
        dw = d[walkers]
        step = dw / np.sqrt(r2)
        x[walkers] += step * g[:, 0]
        y[walkers] += step * g[:, 1]
        clock[walkers] += dw * dw * np.interp(r2, *_exit_time_table()) / dt

    walkers = np.flatnonzero(~far)
    if walkers.size:
        s = clock[walkers]
        k0 = np.floor(s) + 1.0
        path = _normals(keys[walkers, None], first[walkers] + np.arange(_SLOTS, dtype=np.uint64))
        path = path.reshape(-1, _BLOCK, 2)
        path *= sigma
        path[:, 0] *= np.sqrt(k0 - s)[:, None]
        np.cumsum(path, axis=1, out=path)
        path += floats[:2, walkers].T[:, None, :]
        inside = curve.contains(path[..., 0], path[..., 1])
        last = np.minimum(_BLOCK - 1, n_steps - k0).astype(np.int64)
        inside[np.arange(_BLOCK) > last[:, None]] = True  # steps past n_steps
        hit = np.argmin(inside, axis=1)
        rows = np.arange(walkers.size)
        absorbed = ~inside[rows, hit]
        exit_step[walker[walkers[absorbed]]] = k0[absorbed].astype(np.int64) + hit[absorbed]
        live[walkers[absorbed]] = False
        floats[:2, walkers] = path[rows, last].T
        clock[walkers] = k0 + last
    live &= clock < n_steps
    return live


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
    # The live walkers' (index, key, next block) and (x, y, clock), one column each.
    ints, floats = np.empty((3, 0), np.uint64), np.empty((3, 0))
    admitted = 0
    while admitted < cfg.walkers or ints.shape[1]:
        room = min(_BATCH - ints.shape[1], _ADMIT, cfg.walkers - admitted)
        if room:
            new = np.arange(admitted, admitted + room, dtype=np.uint64)
            keys = _draws(seed_key, new)
            starts, blocks = _starts(curve, rmax, keys)
            ints = np.concatenate([ints, [new, keys, blocks]], axis=1)
            floats = np.concatenate([floats, np.vstack([starts.T, np.zeros(room)])], axis=1)
            admitted += room
        live = _round(curve, ints, floats, exit_step, cfg.dt, n_steps)
        ints, floats = ints[:, live], floats[:, live]
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
