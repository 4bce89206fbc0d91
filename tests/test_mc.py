import hashlib
import math

import numpy as np
import pytest

from heatpade.disk_exact import survival_disk
from heatpade.geometry import BoundaryCurve, Disk, Ellipse, FourierCurve
from heatpade.mc_oracle import (
    _MAX_STEPS,
    McConfig,
    _uniform_start,
    _walker_stream,
    simulate_survival,
)


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
        # of a larger run reproduce the smaller run exactly.
        small = McConfig(walkers=100, dt=1e-3, t_grid=(0.05,), seed=4)
        large = McConfig(walkers=150, dt=1e-3, t_grid=(0.05,), seed=4)
        [(_, s_small, _)] = simulate_survival(Disk(), small)
        # Count survivors among the first 100 walkers of the large run by
        # rerunning them individually.

        from heatpade.mc_oracle import _first_exit_step

        survivors = 0
        for i in range(100):
            rng = _walker_stream(4, i)
            start = _uniform_start(Disk(), 1.0, rng)
            exit_step = _first_exit_step(Disk(), start, math.sqrt(2e-3), 50, rng)
            survivors += exit_step > 50
        assert survivors / 100 == s_small

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


class TestPinnedDraws:
    # Pinned outputs of the walkers: a change to the draws, the chunking, the
    # point test or the rounding of the positions shows up here.
    ONE_CHUNK = McConfig(walkers=400, dt=1e-4, t_grid=(0.01, 0.05), seed=21)
    # 5000 steps: three chunks, so positions carry over between buffers.
    THREE_CHUNKS = McConfig(walkers=100, dt=1e-5, t_grid=(0.01, 0.05), seed=21)

    @pytest.mark.parametrize(
        "curve, cfg, expected",
        [
            (Ellipse(b=1.0, eps=0.6), ONE_CHUNK, (0.8375, 0.5925)),
            (FourierCurve((1.0, 0.15), (0.1,)), ONE_CHUNK, (0.86, 0.6175)),
            (Ellipse(b=1.0, eps=0.6), THREE_CHUNKS, (0.71, 0.53)),
            (FourierCurve((1.0, 0.15), (0.1,)), THREE_CHUNKS, (0.76, 0.51)),
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
        simulate_survival(Ellipse(b=1.0, eps=0.6), self.THREE_CHUNKS)
        assert digest.hexdigest() == (
            "f2f1ecaea982bdfc0cdf4c1daa7f70ef8b45f5aad801cfd82db1544bbf90c640"
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
