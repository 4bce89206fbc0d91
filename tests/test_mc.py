import hashlib
import math

import numpy as np
import pytest

from heatpade import mc_oracle
from heatpade.disk_exact import survival_disk
from heatpade.geometry import BoundaryCurve, Disk, Ellipse, FourierCurve
from heatpade.mc_oracle import (
    _MAX_STEPS,
    McConfig,
    _exit_steps,
    _exit_time_table,
    _uniform_start,
    _walker_stream,
    simulate_survival,
)

# The Euler walker that steps every grid step, kept as the reference the
# jumping walker is held to: each walker's path is drawn and tested in
# chunks of 2048 steps from its own stream.
_PATH_CHUNK = 2048


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
        rng = _walker_stream(cfg.seed, i)
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
        # A seeding slip that handed every walker one stream would pass every
        # estimate test; each walker's draws must be its own.
        a = _walker_stream(7, index).standard_normal(4096)
        b = _walker_stream(7, index + 1).standard_normal(4096)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(4096)


class TestUniformStarts:
    def test_points_inside(self):
        curve = Ellipse(b=1.0, eps=0.7)
        rng = _walker_stream(0, 0)
        pts = np.array([_uniform_start(curve, curve.max_radius(), rng) for _ in range(200)])
        assert np.all(curve.contains(pts[:, 0], pts[:, 1]))

    def test_fills_the_domain(self):
        # Mean squared radius of uniform points in a unit disk is R^2/2.
        rng = _walker_stream(1, 0)
        pts = np.array([_uniform_start(Disk(), 1.0, rng) for _ in range(4000)])
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
        for batch in (1, 7, 64):
            monkeypatch.setattr(mc_oracle, "_BATCH", batch)
            rows.append(simulate_survival(curve, cfg))
        assert rows[0] == rows[1] == rows[2]

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
        # law, tau = interp(r), r ~ Exp(1/2), integrated exactly: u is
        # linear between breakpoints, where 10-point Gauss-Legendre is exact
        # to rounding; past r = 100 the mass is e^-50.
        knots_r2, knots_u = _exit_time_table()
        breaks = np.union1d(knots_r2[knots_r2 < 100.0], np.linspace(0.0, 100.0, 2001))
        x, w = np.polynomial.legendre.leggauss(10)
        a, b = breaks[:-1, None], breaks[1:, None]
        r = 0.5 * (a + b) + 0.5 * (b - a) * x
        weight = 0.5 * (b - a) * w * 0.5 * np.exp(-0.5 * r)
        tau = np.interp(r, knots_r2, knots_u)
        assert np.sum(weight * tau) == pytest.approx(0.25, abs=1e-6)
        assert np.sum(weight * tau * tau) == pytest.approx(3.0 / 32.0, abs=1e-6)

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
            (Ellipse(b=1.0, eps=0.6), COARSE, (0.8225, 0.5925)),
            (FourierCurve((1.0, 0.15), (0.1,)), COARSE, (0.85, 0.6075)),
            (Ellipse(b=1.0, eps=0.6), FINE, (0.78, 0.47)),
            (FourierCurve((1.0, 0.15), (0.1,)), FINE, (0.81, 0.54)),
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
            "342489c282159a84a8ad9311d54076190f9c93b821356beb9ec43f170c370008"
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
