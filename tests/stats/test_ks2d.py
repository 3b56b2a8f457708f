"""Tests for repro.stats.ks2d (Peacock 2-D KS test)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats import (
    CachedKS2D,
    KSResult,
    LiveWindow,
    ks2d_fast,
    ks2d_peacock,
    similarity_percent,
)
from repro.stats import ks2d


def gaussian_sample(rng, n, mean=(0.0, 0.0), sigma=1.0):
    return rng.normal(loc=mean, scale=sigma, size=(n, 2))


class TestKS2DBasics:
    def test_identical_samples_zero_statistic(self):
        rng = np.random.default_rng(0)
        a = gaussian_sample(rng, 100)
        for fn in (ks2d_fast, ks2d_peacock):
            res = fn(a, a)
            assert res.statistic == pytest.approx(0.0, abs=1e-12)
            assert res.similarity == pytest.approx(100.0)

    def test_disjoint_samples_near_one(self):
        rng = np.random.default_rng(1)
        a = gaussian_sample(rng, 200, mean=(0, 0), sigma=0.1)
        b = gaussian_sample(rng, 200, mean=(100, 100), sigma=0.1)
        res = ks2d_fast(a, b)
        assert res.statistic > 0.95

    def test_statistic_in_unit_interval(self):
        rng = np.random.default_rng(2)
        a = gaussian_sample(rng, 50)
        b = gaussian_sample(rng, 60, mean=(0.5, 0.5))
        for fn in (ks2d_fast, ks2d_peacock):
            res = fn(a, b)
            assert 0.0 <= res.statistic <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = gaussian_sample(rng, 80)
        b = gaussian_sample(rng, 90, mean=(1, 0))
        assert ks2d_fast(a, b).statistic == pytest.approx(ks2d_fast(b, a).statistic)

    def test_same_distribution_small_statistic(self):
        rng = np.random.default_rng(4)
        a = gaussian_sample(rng, 400)
        b = gaussian_sample(rng, 400)
        assert ks2d_fast(a, b).statistic < 0.15

    def test_shifted_distribution_larger_statistic(self):
        rng = np.random.default_rng(5)
        a = gaussian_sample(rng, 300)
        same = gaussian_sample(rng, 300)
        shifted = gaussian_sample(rng, 300, mean=(2.0, 2.0))
        d_same = ks2d_fast(a, same).statistic
        d_shift = ks2d_fast(a, shifted).statistic
        assert d_shift > d_same

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks2d_fast(np.empty((0, 2)), np.zeros((5, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ks2d_fast(np.zeros((5, 3)), np.zeros((5, 2)))

    def test_result_fields(self):
        rng = np.random.default_rng(6)
        res = ks2d_fast(gaussian_sample(rng, 30), gaussian_sample(rng, 40))
        assert isinstance(res, KSResult)
        assert res.n1 == 30 and res.n2 == 40
        assert 0.0 <= res.p_value <= 1.0


class TestPeacockVsFast:
    def test_peacock_at_least_fast(self):
        # Peacock enumerates a superset of corners, so its sup can only be >=.
        rng = np.random.default_rng(7)
        a = gaussian_sample(rng, 60)
        b = gaussian_sample(rng, 60, mean=(0.5, 0))
        d_fast = ks2d_fast(a, b).statistic
        d_peacock = ks2d_peacock(a, b, max_grid=128).statistic
        assert d_peacock >= d_fast - 1e-12

    def test_peacock_grid_cap_stable(self):
        rng = np.random.default_rng(8)
        a = gaussian_sample(rng, 150)
        b = gaussian_sample(rng, 150, mean=(1, 1))
        d_small = ks2d_peacock(a, b, max_grid=16).statistic
        d_big = ks2d_peacock(a, b, max_grid=64).statistic
        assert abs(d_small - d_big) < 0.1


class TestPValue:
    def test_same_distribution_high_p(self):
        rng = np.random.default_rng(9)
        a = gaussian_sample(rng, 300)
        b = gaussian_sample(rng, 300)
        assert ks2d_fast(a, b).p_value > 0.05

    def test_different_distribution_low_p(self):
        rng = np.random.default_rng(10)
        a = gaussian_sample(rng, 300, sigma=0.2)
        b = gaussian_sample(rng, 300, mean=(3, 3), sigma=0.2)
        assert ks2d_fast(a, b).p_value < 0.01


class TestSimilarityPercent:
    def test_range(self):
        rng = np.random.default_rng(11)
        s = similarity_percent(gaussian_sample(rng, 50), gaussian_sample(rng, 50))
        assert 0.0 <= s <= 100.0

    def test_exact_flag_uses_peacock(self):
        rng = np.random.default_rng(12)
        a = gaussian_sample(rng, 40)
        b = gaussian_sample(rng, 40, mean=(0.3, 0.3))
        s_exact = similarity_percent(a, b, exact=True)
        s_fast = similarity_percent(a, b, exact=False)
        assert s_exact <= s_fast + 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_statistic_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        a = gaussian_sample(rng, 30)
        b = gaussian_sample(rng, 30, mean=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        res = ks2d_fast(a, b)
        assert 0.0 <= res.statistic <= 1.0
        assert res.similarity == pytest.approx(100 * (1 - res.statistic))


def _same_result(got, want):
    assert got.statistic == want.statistic
    assert got.p_value == want.p_value
    assert (got.n1, got.n2) == (want.n1, want.n2)


class TestCachedKS2D:
    """The checkpoint cache must be bit-identical to ks2d_fast."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_ks2d_fast_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        na = int(rng.integers(5, 400))
        nb = int(rng.integers(5, 400))
        a = gaussian_sample(rng, na)
        b = gaussian_sample(rng, nb, mean=(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        if seed % 3 == 0:  # inject duplicate coordinates / exact ties
            a[:: 4] = a[0]
            b[:: 5] = a[0]
        _same_result(CachedKS2D(a).test(b), ks2d_fast(a, b))

    def test_reused_across_checkpoints(self):
        rng = np.random.default_rng(99)
        a = gaussian_sample(rng, 200)
        cache = CachedKS2D(a)
        for _ in range(5):
            b = gaussian_sample(rng, 150, mean=(rng.uniform(-1, 1), 0.0))
            assert cache.test(b).statistic == ks2d_fast(a, b).statistic
        assert cache.historical.shape == (200, 2)


#: Where a test call can fail part way: the first or second count, or
#: the statistic.
_FAULTS = (("_corner_counts", 1), ("_corner_counts", 2), ("_max_gap", 1))


def _failing(where, call):
    """Make the ``call``-th call of ``ks2d.<where>`` raise."""
    real = getattr(ks2d, where)
    calls = []

    def fail(*args):
        calls.append(1)
        if len(calls) == call:
            raise RuntimeError("injected KS failure")
        return real(*args)

    return mock.patch.object(ks2d, where, fail)


class TestCachedSlide:
    """Counts carried between calls stay exact on every path."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hist=st.integers(1, 40),
        cap=st.integers(1, 40),
        period=st.integers(1, 50),
        span=st.integers(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_streamed_window_matches_ks2d_fast(self, seed, n_hist, cap, period, span):
        # Integer coordinates in [0, span] make ties the rule; a check is
        # skipped (as while the KS breaker is open) or fails part way
        # (a raise in a count or in the statistic) at random.
        rng = np.random.default_rng(seed)
        hist = rng.integers(0, span + 1, size=(n_hist, 2)).astype(float)
        cache = CachedKS2D(hist)
        window = LiveWindow(cap)
        stream = rng.integers(0, span + 1, size=(12 * period, 2)).tolist()
        for t, (x, y) in enumerate(stream, 1):
            window.push(float(x), float(y))
            if t % period:
                continue
            action = rng.integers(0, 5)
            if action == 0:
                continue
            live = window.array()
            if action < 4:
                with _failing(*_FAULTS[action - 1]), pytest.raises(RuntimeError, match="injected"):
                    cache.test(live)
            _same_result(cache.test(live), ks2d_fast(hist, live))

    def test_slides_reuse_the_carried_counts(self):
        rng = np.random.default_rng(3)
        hist = rng.normal(size=(200, 2))
        cache, window = CachedKS2D(hist), LiveWindow(200)
        drops = []
        real = CachedKS2D._slide

        def slide(old, b):
            drops.append(real(old, b))
            return drops[-1]

        with mock.patch.object(CachedKS2D, "_slide", staticmethod(slide)):
            for t, (x, y) in enumerate(rng.normal(size=(32 * 20, 2)).tolist(), 1):
                window.push(x, y)
                if t % 32 == 0:
                    live = window.array()
                    _same_result(cache.test(live), ks2d_fast(hist, live))
        # Only the first check counts from scratch; the window fills at
        # t = 200, so the check at t = 224 drops 24 points.
        assert drops == [None] + [0] * 5 + [24] + [32] * 13

    @pytest.mark.parametrize("n", [127, 128, 255, 256])
    def test_a_whole_group_at_one_corner_is_counted(self, n):
        # Every live point lies below-left of the historical corner
        # (10, 10), so one group's count there is n: the count's
        # accumulator must hold n itself.
        hist = np.array([[0.0, 0.0], [10.0, 10.0]])
        live = np.random.default_rng(n).uniform(1.0, 2.0, size=(n, 2))
        _same_result(CachedKS2D(hist).test(live), ks2d_fast(hist, live))

    def test_a_pure_append_of_a_whole_group_is_counted(self):
        # 128 points arrive and none leaves, all below-left of (10, 10).
        rng = np.random.default_rng(6)
        hist = np.array([[0.0, 0.0], [10.0, 10.0], [1.5, 1.5]])
        stream = rng.uniform(1.0, 2.0, size=(178, 2))
        cache = CachedKS2D(hist)
        cache.test(stream[:50])
        assert CachedKS2D._slide(cache._live, stream) == 0
        _same_result(cache.test(stream), ks2d_fast(hist, stream))

    @pytest.mark.parametrize("where, call", _FAULTS)
    def test_raise_keeps_the_last_successful_state(self, where, call):
        rng = np.random.default_rng(4)
        hist = rng.normal(size=(60, 2))
        stream = rng.normal(size=(90, 2))
        cache = CachedKS2D(hist)
        cache.test(stream[:50])
        live, counts = cache._live.copy(), cache._counts.copy()
        with _failing(where, call), pytest.raises(RuntimeError, match="injected"):
            cache.test(stream[10:60])
        np.testing.assert_array_equal(cache._live, live)
        np.testing.assert_array_equal(cache._counts, counts)
        for sample in (stream[10:60], stream[20:75], stream[20:75] + 1.0):
            _same_result(cache.test(sample), ks2d_fast(hist, sample))

    def test_caller_mutation_does_not_reach_the_cache(self):
        rng = np.random.default_rng(5)
        hist, live = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
        cache = CachedKS2D(hist)
        cache.test(live)
        live[5:] += 3.0
        _same_result(cache.test(live), ks2d_fast(hist, live))


class TestLiveWindow:
    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            LiveWindow(0)

    def test_matches_sliding_list_semantics(self):
        rng = np.random.default_rng(5)
        cap = 7
        win = LiveWindow(cap)
        reference = []
        for x, y in rng.normal(size=(40, 2)):
            win.push(float(x), float(y))
            reference.append((float(x), float(y)))
            if len(reference) > cap:
                reference.pop(0)
            assert len(win) == len(reference)
            np.testing.assert_array_equal(win.array(), np.asarray(reference))

    def test_extend_equivalent_to_pushes(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(23, 2))
        bulk, serial = LiveWindow(9), LiveWindow(9)
        bulk.extend(pts)
        for x, y in pts:
            serial.push(float(x), float(y))
        np.testing.assert_array_equal(bulk.array(), serial.array())

    def test_extend_longer_than_cap_keeps_tail(self):
        pts = np.arange(30, dtype=float).reshape(15, 2)
        win = LiveWindow(4)
        win.extend(pts)
        np.testing.assert_array_equal(win.array(), pts[-4:])
