import weakref

import numpy as np

from heatpade import tracking

# Any gamma off the real axis keeps the paths of _two_roots apart for t < 1.
_GAMMA = 0.6 + 0.8j


def _two_roots(rows, broken=()):
    """H = (1 - t) gamma (p^2 - 1) + t (p^2 - 4) at rows of one unknown; NaN at ``broken`` rows."""

    def homotopy(p, t):
        s, G, F = t[:, None], _GAMMA * (p**2 - 1.0), p**2 - 4.0
        H = (1.0 - s) * G + s * F
        H[np.isin(rows, broken)] = np.nan
        return H, ((1.0 - s) * _GAMMA * 2.0 * p + s * 2.0 * p)[:, :, None], G - F

    return homotopy


class TestTrack:
    """``tracking.track`` alone, on homotopies written out by hand."""

    def test_paths_from_the_start_roots_end_at_the_target_roots(self):
        ends, t, stalled = tracking.track(_two_roots, np.array([[1.0], [-1.0]], dtype=complex))
        assert np.array_equal(ends, [[2.0], [-2.0]])
        assert np.array_equal(t, [1.0, 1.0])
        assert np.array_equal(stalled, [False, False])

    def test_a_stalling_row_stalls_alone(self):
        calls = []

        def at(rows):
            calls.append(rows.tolist())
            return _two_roots(rows, broken=[2, 3])

        start = np.array([[1.0], [-1.0], [1.0], [-1.0]], dtype=complex)
        ends, t, stalled = tracking.track(at, start)
        assert np.array_equal(stalled, [False, False, True, True])
        assert np.array_equal(ends[:2], [[2.0], [-2.0]]) and np.array_equal(t[:2], [1.0, 1.0])
        # A stalled row leaves where it stood, and the homotopy is asked for
        # again only when rows leave.
        assert np.array_equal(ends[2:], start[2:]) and np.array_equal(t[2:], [0.0, 0.0])
        assert calls == [[0, 1, 2, 3], [2, 3]]

    def test_the_old_rows_homotopy_is_released_before_the_next_is_asked_for(self):
        # A batched homotopy holds arrays gathered per row; two at once would
        # double the tracker's peak memory.
        returned = []

        def at(rows):
            assert all(ref() is None for ref in returned)
            homotopy = _two_roots(rows, broken=[2, 3])
            returned.append(weakref.ref(homotopy))
            return homotopy

        tracking.track(at, np.array([[1.0], [-1.0], [1.0], [-1.0]], dtype=complex))
        assert len(returned) == 2

    def test_a_path_past_the_bound_leaves_before_t_1_without_a_stall(self):
        def at(rows):
            # H = e^(-60 t) p - 1: p = e^(60 t) passes 1e12 near t = 0.46.
            def homotopy(p, t):
                e = np.exp(-60.0 * t)[:, None]
                return e * p - 1.0, np.ones_like(p)[:, :, None] * e[:, :, None], 60.0 * e * p

            return homotopy

        ends, t, stalled = tracking.track(at, np.array([[1.0]], dtype=complex))
        assert abs(ends[0, 0]) > tracking._AT_INFINITY
        assert 0.0 < t[0] < 1.0
        assert np.array_equal(stalled, [False])
