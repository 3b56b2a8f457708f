"""Circuit breakers: state machine, deterministic backoff, degradations."""

import numpy as np
import pytest

from repro.errors import BreakerOpenError
from repro.guard import (
    BreakerConfig,
    CircuitBreaker,
    GuardedKS2D,
)
from repro.stats.ks2d import CachedKS2D


def boom():
    raise RuntimeError("boom")


def make_breaker(**overrides):
    defaults = dict(
        failure_threshold=2, cooldown_events=3, max_cooldown_events=12,
        jitter_events=0, seed=0,
    )
    defaults.update(overrides)
    return CircuitBreaker("test", BreakerConfig(**defaults))


class TestStateMachine:
    def test_starts_closed_and_passes_calls(self):
        b = make_breaker()
        assert b.state == "closed"
        assert b.call(lambda: 42) == 42
        assert b.calls == 1 and b.failures == 0

    def test_consecutive_failures_trip_open(self):
        b = make_breaker()
        b.call(boom, fallback=None)
        assert b.state == "closed"
        b.call(boom, fallback=None)
        assert b.state == "open"
        assert b.transitions == [("closed", "open", 2)]

    def test_success_resets_the_consecutive_count(self):
        b = make_breaker()
        b.call(boom, fallback=None)
        b.call(lambda: 1)
        b.call(boom, fallback=None)
        assert b.state == "closed"  # never two in a row

    def test_open_refuses_without_calling(self):
        b = make_breaker()
        b.call(boom, fallback=None)
        b.call(boom, fallback=None)
        hits = []
        assert b.call(lambda: hits.append(1), fallback="skipped") == "skipped"
        assert hits == [] and b.refused == 1

    def test_half_open_probe_success_closes(self):
        b = make_breaker()  # cooldown 3
        b.call(boom, fallback=None)
        b.call(boom, fallback=None)  # open at call 2, probe due at call 5
        for _ in range(2):
            b.call(lambda: 1, fallback=None)  # refused: cooldown
        assert b.state == "open" and b.refused == 2
        assert b.call(lambda: 99, fallback=None) == 99  # the probe
        assert b.state == "closed"

    def test_half_open_probe_failure_reopens_with_doubled_cooldown(self):
        b = make_breaker()
        b.call(boom, fallback=None)
        b.call(boom, fallback=None)
        for _ in range(2):
            b.call(lambda: 1, fallback=None)
        b.call(boom, fallback=None)  # the probe at call 5 fails
        assert b.state == "open"
        # doubled cooldown: 5 refusals (calls 6-10) before the next probe
        refused_before = b.refused
        for _ in range(5):
            b.call(lambda: 1, fallback=None)
        assert b.refused == refused_before + 5
        assert b.call(lambda: 7, fallback=None) == 7
        assert b.state == "closed"

    def test_cooldown_is_capped(self):
        b = make_breaker(failure_threshold=1, cooldown_events=3,
                         max_cooldown_events=4)
        for _ in range(6):  # repeated probe failures keep doubling
            b.call(boom, fallback=None)
        assert b._cooldown <= 4

    def test_no_fallback_raises_breaker_open(self):
        b = make_breaker(failure_threshold=1)
        with pytest.raises(BreakerOpenError):
            b.call(boom)
        with pytest.raises(BreakerOpenError):
            b.call(lambda: 1)  # refused while open

    def test_callable_fallback_is_lazy(self):
        b = make_breaker(failure_threshold=1)
        b.call(boom, fallback=lambda: "degraded")
        assert b.call(lambda: 1, fallback=lambda: "degraded") == "degraded"

    def test_transition_observer_fires(self):
        seen = []
        b = CircuitBreaker(
            "obs", BreakerConfig(failure_threshold=1, jitter_events=0),
            on_transition=lambda *a: seen.append(a),
        )
        b.call(boom, fallback=None)
        assert seen == [("obs", "closed", "open", 1)]


class TestDeterminism:
    def test_identical_streams_take_identical_transitions(self):
        rng = np.random.default_rng(5)
        outcomes = rng.uniform(size=200) < 0.3  # True = fail

        def run():
            b = make_breaker(jitter_events=2, seed=9)
            for fail in outcomes:
                b.call(boom if fail else (lambda: 1), fallback=None)
            return b.transitions, b.refused, b.fallbacks

        assert run() == run()

    def test_jitter_rng_untouched_on_fault_free_stream(self):
        b = make_breaker(jitter_events=2, seed=9)
        before = b._rng.bit_generator.state
        for _ in range(50):
            b.call(lambda: 1)
        assert b._rng.bit_generator.state == before


class TestGuardedKS2D:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.hist = rng.uniform(0.0, 100.0, size=(50, 2))
        self.live = rng.uniform(0.0, 100.0, size=(40, 2))

    def test_transparent_while_healthy(self):
        inner = CachedKS2D(self.hist)
        guard = GuardedKS2D(CachedKS2D(self.hist),
                            make_breaker(failure_threshold=1))
        assert guard.test(self.live) == inner.test(self.live)

    def test_falls_back_to_last_good_result(self):
        guard = GuardedKS2D(CachedKS2D(self.hist),
                            make_breaker(failure_threshold=1))
        good = guard.test(self.live)
        guard.inner.test = lambda live: boom()
        assert guard.test(self.live) == good  # repeated, not recomputed
        assert guard.breaker.state == "open"

    def test_optimistic_fallback_before_first_success(self):
        guard = GuardedKS2D(CachedKS2D(self.hist),
                            make_breaker(failure_threshold=1))
        guard.inner.test = lambda live: boom()
        result = guard.test(self.live)
        assert result.statistic == 0.0 and result.p_value == 1.0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0},
        {"cooldown_events": 0},
        {"cooldown_events": 8, "max_cooldown_events": 4},
        {"jitter_events": -1},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)
