import numpy as np

from heatpade import tracking

# Any gamma off the real axis keeps the paths of _two_roots apart for t < 1.
_GAMMA = 0.6 + 0.8j


def _two_roots(p, t, broken=False):
    """H = (1 - t) gamma (p^2 - 1) + t (p^2 - 4) at rows of one unknown; ``broken``: NaN at Re p < 0."""
    s, G, F = t[:, None], _GAMMA * (p**2 - 1.0), p**2 - 4.0
    H = (1.0 - s) * G + s * F
    if broken:
        H[p.real < 0] = np.nan
    return H, ((1.0 - s) * _GAMMA * 2.0 * p + s * 2.0 * p)[:, :, None], G - F


class TestTrack:
    """``tracking.track`` alone, on homotopies written out by hand."""

    def test_paths_from_the_start_roots_end_at_the_target_roots(self):
        ends, t, stalled = tracking.track(_two_roots, np.array([[1.0], [-1.0]], dtype=complex))
        assert np.array_equal(ends, [[2.0], [-2.0]])
        assert np.array_equal(t, [1.0, 1.0])
        assert np.array_equal(stalled, [False, False])

    def test_no_round_after_the_last_full_step(self):
        # A round is 4 predictor stages and 3 corrector steps.  No step
        # fails: five rounds of 0.2 end at t = 1.0 exactly, with no sixth.
        calls = []

        def counting(p, t):
            calls.append(len(p))
            return _two_roots(p, t)

        tracking.track(counting, np.array([[1.0], [-1.0]], dtype=complex))
        assert calls == [2] * 5 * 7

    def test_a_stalling_row_stalls_alone(self):
        start = np.array([[1.0], [-1.0], [1.0], [-1.0]], dtype=complex)
        ends, t, stalled = tracking.track(lambda p, t: _two_roots(p, t, broken=True), start)
        assert np.array_equal(stalled, [False, True, False, True])
        assert np.array_equal(ends[[0, 2]], [[2.0], [2.0]]) and np.array_equal(t[[0, 2]], [1.0, 1.0])
        # A stalled row leaves where it stood.
        assert np.array_equal(ends[[1, 3]], start[[1, 3]]) and np.array_equal(t[[1, 3]], [0.0, 0.0])

    def test_a_path_past_the_bound_leaves_before_t_1_without_a_stall(self):
        def homotopy(p, t):
            # H = e^(-60 t) p - 1: p = e^(60 t) passes 1e12 near t = 0.46.
            e = np.exp(-60.0 * t)[:, None]
            return e * p - 1.0, np.ones_like(p)[:, :, None] * e[:, :, None], 60.0 * e * p

        ends, t, stalled = tracking.track(homotopy, np.array([[1.0]], dtype=complex))
        assert abs(ends[0, 0]) > tracking._AT_INFINITY
        assert 0.0 < t[0] < 1.0
        assert np.array_equal(stalled, [False])
