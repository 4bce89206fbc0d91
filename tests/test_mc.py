import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from heatpade import mc_oracle
from heatpade.disk_exact import survival_disk
from heatpade.geometry import BoundaryCurve, Disk, Ellipse, FourierCurve
from heatpade.mc_oracle import (
    _LAYERS,
    _MAX_STEPS,
    _ZIGGURAT_R,
    McConfig,
    _centred,
    _draw,
    _draws,
    _exit_steps,
    _exit_time_table,
    _normals,
    _round,
    _slow_normal,
    _starts,
    _ziggurat,
    simulate_survival,
)

# The Euler walker that steps every grid step, kept as the reference the
# jumping walker is held to: each walker's start and path come from its
# own numpy stream, and its path is drawn and tested in chunks of 2048
# steps.  It shares no draws with the walkers it checks.
_PATH_CHUNK = 2048


def _keys(seed, walkers):
    """Keys of the given walkers, derived as ``_exit_steps`` derives them."""
    seed_key = np.random.SeedSequence(seed).generate_state(1, np.uint64)
    return _draws(seed_key, np.asarray(walkers, dtype=np.uint64))


def _top53(x):
    """Uniforms on [0, 1), multiples of 2^-53, from the top 53 bits of draws."""
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _counters(walkers, draws, first=0):
    """Counters first, first + 1, ... of each of ``walkers`` walkers, shape (walkers, draws)."""
    return np.broadcast_to(np.arange(first, first + draws, dtype=np.uint64), (walkers, draws))


def _uniform_start(curve, rmax, rng):
    """Rejection-sample one uniform point inside the domain from its bounding box."""
    while True:
        pts = rng.uniform(-rmax, rmax, size=(16, 2))
        keep = np.flatnonzero(curve.contains(pts[:, 0], pts[:, 1]))
        if keep.size:
            return pts[keep[0]]


def _euler_exit_step(curve, start, sigma, n_steps, rng):
    """Index of the first step ending outside the domain, or n_steps + 1 if none."""
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
            return done + hit + 1
        pos = path[-1]
        done += span
    return n_steps + 1


def _euler_survival(curve, cfg):
    """(t, estimate, stderr) rows of the reference walker."""
    steps_at = [int(round(t / cfg.dt)) for t in cfg.t_grid]
    n_steps = max(steps_at)
    rmax = curve.max_radius()
    exits = []
    for i in range(cfg.walkers):
        rng = np.random.default_rng([cfg.seed, i])
        start = _uniform_start(curve, rmax, rng)
        exits.append(_euler_exit_step(curve, start, math.sqrt(2.0 * cfg.dt), n_steps, rng))
    exits = np.array(exits)
    rows = []
    for t, k in zip(cfg.t_grid, steps_at):
        s_hat = np.count_nonzero(exits > k) / cfg.walkers
        rows.append((t, s_hat, math.sqrt(s_hat * (1.0 - s_hat) / cfg.walkers)))
    return rows


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(walkers=0, dt=1e-3, t_grid=(0.1,))
        with pytest.raises(ValueError):
            McConfig(walkers=10, dt=0.0, t_grid=(0.1,))
        with pytest.raises(ValueError):
            McConfig(walkers=10, dt=1e-3, t_grid=(0.2, 0.1))
        with pytest.raises(ValueError):
            McConfig(walkers=10, dt=1e-3, t_grid=(-0.1,))
        with pytest.raises(ValueError, match="seed"):
            McConfig(walkers=10, dt=1e-3, t_grid=(0.1,), seed=-1)

    @pytest.mark.parametrize(
        "dt, t", [(math.inf, 0.1), (math.nan, 0.1), (1e-3, math.inf), (1e-3, math.nan)]
    )
    def test_non_finite_is_rejected(self, dt, t):
        with pytest.raises(ValueError, match="finite"):
            McConfig(walkers=10, dt=dt, t_grid=(0.0, t))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("walkers", 2.5),
            ("walkers", True),
            ("walkers", "10"),
            ("seed", 1.5),
            ("seed", True),
            ("seed", np.float64(3.0)),
        ],
    )
    def test_non_integer_count_or_seed_is_rejected(self, field, value):
        kwargs = {"walkers": 10, "dt": 1e-3, "t_grid": (0.1,), "seed": 0, field: value}
        with pytest.raises(ValueError, match=field):
            McConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        cfg = McConfig(walkers=np.int64(20), dt=1e-3, t_grid=(0.05,), seed=np.uint32(3))
        assert type(cfg.walkers) is int and type(cfg.seed) is int
        plain = McConfig(walkers=20, dt=1e-3, t_grid=(0.05,), seed=3)
        assert simulate_survival(Disk(), cfg) == simulate_survival(Disk(), plain)

    def test_step_cap(self):
        McConfig(walkers=1, dt=1.0, t_grid=(0.0, float(_MAX_STEPS)))
        with pytest.raises(ValueError, match="steps"):
            McConfig(walkers=1, dt=1.0, t_grid=(0.0, _MAX_STEPS + 1.0))
        with pytest.raises(ValueError, match="steps"):
            McConfig(walkers=2, dt=1e-300, t_grid=(1.0,))
        with pytest.raises(ValueError, match="steps"):
            McConfig(walkers=2, dt=1e-300, t_grid=(1e300,))  # t / dt overflows


class TestWalkerStreams:
    @pytest.mark.parametrize("index", range(10))
    def test_neighbouring_streams_are_distinct_and_uncorrelated(self, index):
        # A keying slip that handed every walker one stream would pass every
        # estimate test; each walker's draws must be its own.
        keys = _keys(7, [index, index + 1])[:, None]
        a, b = _normals(keys, _counters(2, 4096))
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(4096)

    def test_scalar_draw_matches_the_batch(self):
        # The ziggurat's slow path draws in Python integers, the rest in
        # uint64 arrays: the two must be one function of (key, counter).
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**64, size=200, dtype=np.uint64, endpoint=False)
        counters = rng.integers(0, 2**64, size=200, dtype=np.uint64, endpoint=False)
        counters[:3] = [0, 1, 2**63 + (5 << 24)]
        batch = _draws(keys, counters)
        assert [_draw(int(k), int(c)) for k, c in zip(keys, counters)] == batch.tolist()

    def test_uniform_ends(self):
        x = np.array([0, 2**11 - 1, 2**64 - 1], dtype=np.uint64)
        assert _top53(x).tolist() == [0.0, 0.0, 1.0 - 2.0**-53]
        assert _centred(x).tolist() == [-1.0 + 2.0**-53, -1.0 + 2.0**-53, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("bits", ["top 53", "low 8", "low 10"])
    def test_uniforms_pass_chi_square(self, bits):
        # 10^5 draws of 100 walkers: the uniforms the walk uses (top 53
        # bits) in 100 bins, and the low bits, of which the ziggurat's
        # layer index takes 10.
        x = _draws(_keys(11, range(100))[:, None], _counters(100, 1000)).ravel()
        if bits == "top 53":
            bins, k = np.floor(_top53(x) * 100).astype(np.intp), 100
        else:
            k = 2 ** int(bits.split()[1])
            bins = (x & np.uint64(k - 1)).astype(np.intp)
        expected = x.size / k
        chi2 = float(np.sum((np.bincount(bins, minlength=k) - expected) ** 2) / expected)
        assert abs(chi2 - (k - 1)) < 5.0 * math.sqrt(2.0 * (k - 1))

    def test_normal_moments(self):
        # 10^6 ziggurat normals: mean 0, variance 1 and fourth moment 3
        # within 5 standard errors, and the mass beyond the base strip's
        # edge R, which only the slow path's tail draws, within 5 too.
        n, total, beyond = 10**6, np.zeros(3), 0
        keys = _keys(19, range(1000))[:, None]
        for first in range(0, 1000, 100):
            z = _normals(keys, _counters(1000, 100, first))
            total += [np.sum(z), np.sum(z**2), np.sum(z**4)]
            beyond += int(np.count_nonzero(np.abs(z) > _ZIGGURAT_R))
        m1, m2, m4 = total / n
        assert abs(m1) < 5.0 / math.sqrt(n)
        assert abs(m2 - 1.0) < 5.0 * math.sqrt(2.0 / n)
        assert abs(m4 - 3.0) < 5.0 * math.sqrt(96.0 / n)
        p = math.erfc(_ZIGGURAT_R / math.sqrt(2.0))
        assert abs(beyond / n - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)

    def test_slow_path_tail(self):
        # Layer 0 outside its core draws from the tail beyond R, with u's
        # sign: E[Z | Z > R] = phi(R) / Q(R) within 5 standard errors.
        key = int(_keys(23, [0])[0])
        tail = np.array([_slow_normal(key, c, 0.999 if c % 2 else -0.999, 0) for c in range(20000)])
        assert np.all(np.abs(tail) > _ZIGGURAT_R)
        assert np.array_equal(tail > 0, np.arange(20000) % 2 == 1)
        r = _ZIGGURAT_R
        mean = math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi) / (0.5 * math.erfc(r / math.sqrt(2.0)))
        excess = np.abs(tail)
        assert abs(excess.mean() - mean) < 5.0 * excess.std() / math.sqrt(excess.size)

    def test_ziggurat_recursion_closes(self):
        # From R the layers' recursion must end at the axis: 1025 edges,
        # X_1024 = 0, and the top layer [0, X_1023] x [f(X_1023), 1] of the
        # same area V as the others.
        edges, _ = _ziggurat()
        r = _ZIGGURAT_R
        v = r * math.exp(-0.5 * r * r) + math.sqrt(0.5 * math.pi) * math.erfc(r / math.sqrt(2.0))
        assert len(edges) == _LAYERS + 1 and edges[-1] == 0.0
        top = edges[-2] * (1.0 - math.exp(-0.5 * edges[-2] * edges[-2]))
        assert top == pytest.approx(v, rel=1e-10)

    def test_slow_path_share(self, monkeypatch):
        # 10^6 draws: with 1024 layers the share outside the cores is
        # sum_i (1 - X_(i+1) / X_i) / 1024 = 0.43%.
        calls = []

        def counting(*args):
            calls.append(args)
            return _slow_normal(*args)

        monkeypatch.setattr(mc_oracle, "_slow_normal", counting)
        keys = _keys(37, range(1000))[:, None]
        for first in range(0, 1000, 100):
            _normals(keys, _counters(1000, 100, first))
        assert 0.0030 <= len(calls) / 10**6 <= 0.0055


class TestUniformStarts:
    def test_points_inside(self):
        curve = Ellipse(b=1.0, eps=0.7)
        pts, blocks = _starts(curve, curve.max_radius(), _keys(0, range(200)))
        assert np.all(curve.contains(pts[:, 0], pts[:, 1]))
        assert np.all(blocks == 1)

    def test_thin_domain_takes_more_blocks(self):
        # At eps = 0.99 a candidate lands inside with probability 0.11, so
        # about 15% of walkers need a second block of 16 candidates.
        curve = Ellipse(b=1.0, eps=0.99)
        pts, blocks = _starts(curve, curve.max_radius(), _keys(0, range(200)))
        assert np.all(curve.contains(pts[:, 0], pts[:, 1]))
        assert np.all(blocks >= 1) and np.any(blocks > 1)

    def test_fills_the_domain(self):
        # Mean squared radius of uniform points in a unit disk is R^2/2.
        pts, _ = _starts(Disk(), 1.0, _keys(1, range(4000)))
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        assert np.mean(r2) == pytest.approx(0.5, abs=0.02)


class TestSimulateSurvival:
    def test_t0_is_exactly_one(self):
        cfg = McConfig(walkers=50, dt=1e-3, t_grid=(0.0,), seed=5)
        [(t, s, e)] = simulate_survival(Disk(), cfg)
        assert (t, s, e) == (0.0, 1.0, 0.0)

    def test_monotone_non_increasing(self):
        cfg = McConfig(walkers=400, dt=1e-3, t_grid=(0.0, 0.02, 0.05, 0.1, 0.2), seed=9)
        rows = simulate_survival(Disk(), cfg)
        vals = [s for _, s, _ in rows]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_deterministic_for_fixed_seed(self):
        cfg = McConfig(walkers=300, dt=1e-3, t_grid=(0.05, 0.1), seed=11)
        assert simulate_survival(Disk(), cfg) == simulate_survival(Disk(), cfg)

    def test_seed_changes_draws(self):
        a = McConfig(walkers=300, dt=1e-3, t_grid=(0.05,), seed=1)
        b = McConfig(walkers=300, dt=1e-3, t_grid=(0.05,), seed=2)
        assert simulate_survival(Disk(), a) != simulate_survival(Disk(), b)

    def test_walker_prefix_stability(self):
        # Streams are keyed by absolute walker index, so the first k walkers
        # of a larger run reproduce the smaller run exactly, although their
        # batches hold other walkers.
        small = McConfig(walkers=100, dt=1e-3, t_grid=(0.05,), seed=4)
        large = McConfig(walkers=150, dt=1e-3, t_grid=(0.05,), seed=4)
        [(_, s_small, _)] = simulate_survival(Disk(), small)
        exit_steps = _exit_steps(Disk(), large, 50)
        assert np.count_nonzero(exit_steps[:100] > 50) / 100 == s_small

    @pytest.mark.parametrize(
        "curve", [Disk(), Ellipse(b=1.0, eps=0.6), FourierCurve((1.0, 0.15), (0.1,))]
    )
    def test_batching_does_not_change_rows(self, curve, monkeypatch):
        cfg = McConfig(walkers=150, dt=1e-4, t_grid=(0.01, 0.05), seed=8)
        rows = []
        for batch in (1, 7, 64, mc_oracle._BATCH, cfg.walkers + 1):
            monkeypatch.setattr(mc_oracle, "_BATCH", batch)
            rows.append(simulate_survival(curve, cfg))
        assert all(r == rows[0] for r in rows[1:])

    def test_seeds_of_any_size(self):
        # The seed goes through one SeedSequence, which takes any
        # non-negative integer; a seed cut to 64 bits would alias these two.
        big = McConfig(walkers=400, dt=1e-3, t_grid=(0.02, 0.05, 0.1), seed=2**70)
        alias = McConfig(walkers=400, dt=1e-3, t_grid=(0.02, 0.05, 0.1), seed=2**70 - 2**64)
        assert simulate_survival(Disk(), big) != simulate_survival(Disk(), alias)

    def test_observation_grid_does_not_shift_draws(self):
        # Adding intermediate observation times must not change the result
        # at a shared time.
        a = McConfig(walkers=300, dt=1e-3, t_grid=(0.1,), seed=6)
        b = McConfig(walkers=300, dt=1e-3, t_grid=(0.02, 0.05, 0.1), seed=6)
        [(_, sa, _)] = simulate_survival(Disk(), a)
        rows = simulate_survival(Disk(), b)
        assert rows[-1][1] == sa

    def test_matches_disk_eigenseries(self):
        cfg = McConfig(walkers=4000, dt=2e-4, t_grid=(0.1,), seed=12)
        [(_, s, e)] = simulate_survival(Disk(), cfg)
        ref = survival_disk(0.1)
        # 3 sigma statistical band plus O(sqrt(dt)) absorption bias.
        assert abs(s - ref) < 3.0 * e + 0.06

    def test_bias_is_toward_survival(self):
        # End-of-step absorption misses excursions, so the estimate should
        # sit above the analytic value on average.
        cfg = McConfig(walkers=6000, dt=1e-3, t_grid=(0.1,), seed=13)
        [(_, s, _)] = simulate_survival(Disk(), cfg)
        assert s > survival_disk(0.1) - 0.01

    def test_general_shape_runs(self):
        curve = FourierCurve((1.0, 0.15), (0.1,))
        cfg = McConfig(walkers=200, dt=1e-3, t_grid=(0.05,), seed=2)
        [(_, s, _)] = simulate_survival(curve, cfg)
        assert 0.0 < s < 1.0


class TestJumps:
    @pytest.mark.parametrize("curve", [Disk(), Ellipse(b=1.0, eps=0.6)])
    def test_law_matches_the_euler_walker(self, curve):
        # The jumps leave the law of the discretely monitored walk as it
        # was: on independent seeds, the two walkers agree within 4 stderr.
        cfg = McConfig(walkers=20000, dt=1e-3, t_grid=(0.02, 0.1), seed=31)
        jumping = simulate_survival(curve, cfg)
        stepping = _euler_survival(curve, McConfig(20000, 1e-3, (0.02, 0.1), seed=32))
        for (_, s1, e1), (_, s2, e2) in zip(jumping, stepping):
            assert abs(s1 - s2) < 4.0 * math.hypot(e1, e2)

    def test_exit_time_table_moments(self):
        # E tau_1 = 1/4 and E tau_1^2 = 3/32 from the centre of the unit disk
        # (E tau = (1 - |x|^2) / 4 solves Laplace u = -1).  The interpolated
        # law, tau = interp(r, R2, U) with r = |g|^2 of density e^(-r/2) / 2,
        # integrated: tau is linear between knots, where 10-point
        # Gauss-Legendre is exact but for the smooth density, and past the
        # last knot tau is the last U.
        knots_r2, knots_u = _exit_time_table()
        assert knots_r2[0] == 0.0 and knots_u[0] == 0.0 and np.all(np.diff(knots_r2) > 0.0)
        breaks = np.union1d(knots_r2, np.linspace(0.0, knots_r2[-1], 2001))
        x, w = np.polynomial.legendre.leggauss(10)
        a, b = breaks[:-1, None], breaks[1:, None]
        r = 0.5 * (a + b) + 0.5 * (b - a) * x
        weight = 0.25 * (b - a) * w * np.exp(-0.5 * r)
        tau = np.interp(r, knots_r2, knots_u)
        tail = math.exp(-0.5 * knots_r2[-1])
        assert tail < 1e-15
        m1 = np.sum(weight * tau) + tail * knots_u[-1]
        m2 = np.sum(weight * tau * tau) + tail * knots_u[-1] ** 2
        assert m1 == pytest.approx(0.25, abs=1e-6)
        assert m2 == pytest.approx(3.0 / 32.0, abs=1e-6)

    def test_jump_moves_by_the_normal_pair(self):
        # Walkers at the centre of the unit disk are all far from its
        # boundary: one round moves each by exactly d g / |g| and its clock
        # by d^2 tau_1 / dt, g the normals of its block's slots 0 and 1 and
        # tau_1 = interp(|g|^2, R2, U); the directions are uniform.
        walkers, dt = 5000, 1e-3
        keys = _keys(29, range(walkers))
        ints = np.stack([np.arange(walkers, dtype=np.uint64), keys, np.full(walkers, 7, np.uint64)])
        floats = np.zeros((3, walkers))
        floats[2] = 0.5
        exit_step = np.full(walkers, 10**6 + 1, dtype=np.int64)
        live = _round(Disk(), ints, floats, exit_step, dt, 10**6)
        assert live.all() and np.all(exit_step == 10**6 + 1) and np.all(ints[2] == 8)
        g = _normals(keys[:, None], _counters(walkers, 2, 7 * 32))
        r2 = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
        step = 1.0 / np.sqrt(r2)
        assert np.array_equal(floats[0], step * g[:, 0])
        assert np.array_equal(floats[1], step * g[:, 1])
        assert np.array_equal(floats[2], 0.5 + np.interp(r2, *_exit_time_table()) / dt)
        angle = np.arctan2(g[:, 1], g[:, 0])
        assert abs(np.mean(np.cos(angle))) < 5.0 / math.sqrt(2.0 * walkers)
        assert abs(np.mean(np.sin(angle))) < 5.0 / math.sqrt(2.0 * walkers)

    @pytest.mark.parametrize(
        "curve",
        [
            Disk(R=1.3),
            Ellipse(b=1.0, eps=0.0),
            Ellipse(b=1.0, eps=0.6),
            Ellipse(b=0.7, eps=0.95),
            FourierCurve((1.0, 0.15), (0.1,)),
            FourierCurve((1.0, 0.1, -0.05, 0.04), (0.08, 0.03)),
        ],
    )
    def test_clearance_disk_lies_inside(self, curve):
        rng = np.random.default_rng(17)
        rmax = curve.max_radius()
        x, y = rng.uniform(-rmax, rmax, size=(2, 4000))
        keep = curve.contains(x, y)
        x, y = x[keep], y[keep]
        radius = np.maximum(curve._clearance(x, y), 0.0)
        assert np.mean(radius > 0.0) > 0.5  # not the vacuous bound 0
        angle = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        cx = x[:, None] + radius[:, None] * np.cos(angle)
        cy = y[:, None] + radius[:, None] * np.sin(angle)
        assert curve.contains(cx, cy).all()

    @pytest.mark.parametrize(
        "curve", [FourierCurve((1.0, 0.15), (0.1,)), FourierCurve((1.0, 0.1, -0.05, 0.04), (0.08, 0.03))]
    )
    def test_fourier_clearance_is_the_direct_minimum(self, curve):
        # The bound is taken over chunks of walkers; the minimum is exact,
        # so it equals the one-pass formula bit for bit.
        rng = np.random.default_rng(41)
        rmax = curve.max_radius()
        x, y = rng.uniform(-rmax, rmax, size=(2, 6000))
        keep = curve.contains(x, y)
        x, y = x[keep][:3000], y[keep][:3000]
        assert x.size == 3000
        bx, by, slack = curve._boundary_samples
        dx, dy = x[:, None] - bx, y[:, None] - by
        direct = np.sqrt(np.min(dx * dx + dy * dy, axis=-1)) - slack
        assert np.array_equal(curve._clearance(x, y), direct)

    def test_fourier_clearance_memory(self):
        # A full pool's call (1024 walkers) took 16 MB of temporaries in one
        # pass over the 512 samples.
        curve = FourierCurve((1.0, 0.15), (0.1,))
        x, y = np.random.default_rng(43).uniform(-0.5, 0.5, size=(2, 1024))
        curve._clearance(x[:2], y[:2])
        tracemalloc.start()
        try:
            curve._clearance(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestPinnedDraws:
    # Pinned outputs of the walkers: a change to the draws, the jumps, the
    # step blocks, the point test or the rounding of the positions shows up
    # here.
    COARSE = McConfig(walkers=400, dt=1e-4, t_grid=(0.01, 0.05), seed=21)
    # 5000 steps: walkers jump and step many times before t = 0.05.
    FINE = McConfig(walkers=100, dt=1e-5, t_grid=(0.01, 0.05), seed=21)

    @pytest.mark.parametrize(
        "curve, cfg, expected",
        [
            (Ellipse(b=1.0, eps=0.6), COARSE, (0.84, 0.5975)),
            (FourierCurve((1.0, 0.15), (0.1,)), COARSE, (0.7875, 0.545)),
            (Ellipse(b=1.0, eps=0.6), FINE, (0.79, 0.6)),
            (FourierCurve((1.0, 0.15), (0.1,)), FINE, (0.7, 0.55)),
        ],
    )
    def test_estimates(self, curve, cfg, expected):
        assert tuple(s for _, s, _ in simulate_survival(curve, cfg)) == expected

    def test_positions_to_the_last_bit(self, monkeypatch):
        # Every point the walkers test, starts included; the estimates above
        # would not see a change in the last bit of a position.
        digest = hashlib.sha256()
        inside = Ellipse._inside

        def recording(curve, x, y):
            digest.update(x.tobytes())
            digest.update(y.tobytes())
            return inside(curve, x, y)

        monkeypatch.setattr(Ellipse, "_inside", recording)
        simulate_survival(Ellipse(b=1.0, eps=0.6), self.FINE)
        assert digest.hexdigest() == (
            "76b624d59cef3c843c4f209b2c4e7e601b8499b8e6a622782bef241600387a61"
        )

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.6, 0.95])
    def test_ellipse_test_matches_polar_test(self, eps):
        curve = Ellipse(b=0.8, eps=eps)
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1.2, 1.2, size=(2, 10**5)) * curve.a
        r, _, _ = curve.radius(np.arctan2(y, x))
        clear = np.abs(np.hypot(x, y) / r - 1.0) > 1e-12
        polar = BoundaryCurve._inside(curve, x, y)
        assert polar.any() and not polar.all()
        assert np.array_equal(curve._inside(x, y)[clear], polar[clear])
