"""Overload control: token bucket, shedder, ladder, runtime glue."""

import numpy as np
import pytest

from repro.core.tripblock import TripBlock, datetime_to_us
from repro.errors import StateDriftError
from repro.guard import (
    RUNGS,
    SHED_RULE,
    BreakerConfig,
    CircuitBreaker,
    GuardedRuntime,
    LadderConfig,
    OverloadConfig,
    OverloadController,
    TokenBucket,
)
from repro.guard.validation import DeadLetterSink
from repro.resilience import (
    CheckpointingService,
    constant_cost_spec,
    logical_state,
)
from repro.shard.runtime import _guard_from_state, _guard_to_state

from .conftest import COST_VALUE, T0, build_service, guard_config, make_trips

T0_US = datetime_to_us(T0)


def make_block(n, at_s=0.0, spacing_s=1.0, synthetic=0, order_base=0):
    """``n`` in-order rows; the first ``synthetic`` are low-value."""
    idx = np.arange(n, dtype=np.int64)
    user = np.where(idx < synthetic, -1 - idx, idx % 40)
    return TripBlock(
        order_id=order_base + idx,
        user_id=user,
        bike_id=idx % 60,
        bike_type=np.ones(n, dtype=np.int64),
        start_us=T0_US + ((at_s + spacing_s * np.arange(n)) * 1e6).astype(np.int64),
        start_x=np.full(n, 100.0),
        start_y=np.full(n, 100.0),
        end_x=np.full(n, 900.0),
        end_y=np.full(n, 900.0),
    )


def controller(incidents=None, breakers=None, **overrides):
    defaults = dict(rate_per_s=1.0, burst=4, queue_limit=10, seed=0)
    defaults.update(overrides)
    sink = DeadLetterSink()
    record = None
    if incidents is not None:
        record = lambda kind, detail: incidents.append((kind, detail))  # noqa: E731
    ctrl = OverloadController(
        OverloadConfig(**defaults), sink, incident=record, breakers=breakers
    )
    return ctrl, sink


def offer(ctrl, block):
    return ctrl.offer(block, np.arange(len(block), dtype=np.int64))


class TestTokenBucket:
    def test_starts_full_and_all_or_nothing(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=10)
        assert bucket.try_consume(10)
        assert not bucket.try_consume(1)

    def test_refill_follows_event_time_and_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=10)
        bucket.advance(0)
        assert bucket.try_consume(10)
        bucket.advance(3_000_000)  # +3s -> 6 tokens
        assert not bucket.try_consume(7)
        assert bucket.try_consume(6)
        bucket.advance(3_600_000_000)  # an hour refills to burst, not beyond
        assert bucket.tokens == pytest.approx(10.0)

    def test_advance_is_monotone(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=10)
        bucket.advance(5_000_000)
        assert bucket.try_consume(10)
        bucket.advance(1_000_000)  # stale timestamp refills nothing
        assert bucket.tokens == pytest.approx(0.0)

    def test_consume_up_to_grants_whole_tokens(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=5)
        bucket.tokens = 3.7
        assert bucket.consume_up_to(10) == 3
        assert bucket.tokens == pytest.approx(0.7)
        assert bucket.consume_up_to(10) == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rate_per_s=0.0),
            dict(rate_per_s=-1.0),
            dict(burst=0),
            dict(queue_limit=0),
            dict(low_water=0.8, high_water=0.2),
        ],
    )
    def test_overload_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            OverloadConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(low_queue=0.8, high_queue=0.2),
            dict(high_queue=1.5),
            dict(escalate_after=0),
            dict(deescalate_after=0),
        ],
    )
    def test_ladder_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LadderConfig(**kwargs)


class TestFastPath:
    def test_returns_the_same_object_and_draws_no_rng(self):
        ctrl, sink = controller(rate_per_s=100.0, burst=1000)
        block = make_block(8)
        granted, deferred = offer(ctrl, block)
        assert granted is block
        assert len(deferred) == 0
        assert ctrl.depth == 0 and ctrl.shed == 0 and sink.total == 0
        # The shed tie-break is the controller's only RNG; untouched runs
        # must leave the bit stream at genesis.
        assert (
            ctrl._rng.bit_generator.state
            == np.random.default_rng(0).bit_generator.state
        )
        ctrl.consistency_check()

    def test_queue_breaks_the_fast_path_until_drained(self):
        ctrl, _ = controller(rate_per_s=1.0, burst=2, queue_limit=10)
        offer(ctrl, make_block(5))  # 2 granted, 3 queued
        assert ctrl.depth == 3
        granted, _ = offer(ctrl, make_block(1, at_s=100.0, order_base=5))
        # FIFO, token-limited: the refill (capped at burst 2) grants the
        # two oldest queued rows first; the new arrival waits behind.
        assert granted.order_id.tolist() == [2, 3]
        assert ctrl.depth == 2


class TestShedder:
    def test_synthetic_rows_shed_first_with_reasoned_deadletters(self):
        ctrl, sink = controller(rate_per_s=0.001, burst=1, queue_limit=4)
        block = make_block(8, synthetic=3)
        granted, deferred = offer(ctrl, block)
        assert ctrl.shed == 4 and sink.total == 4
        shed_ids = sorted(r.order_id for r in sink.rows)
        # All 3 synthetic rows (ids 0-2) go before any real one.
        assert shed_ids[:3] == [0, 1, 2]
        assert all(r.rule == SHED_RULE for r in sink.rows)
        assert all("queue full" in r.reason for r in sink.rows)
        ctrl.consistency_check()

    def test_queued_rows_are_never_shed(self):
        ctrl, sink = controller(rate_per_s=0.001, burst=1, queue_limit=4)
        offer(ctrl, make_block(4))  # 1 granted, 3 real rows queued
        incoming = make_block(4, at_s=100.0, synthetic=4, order_base=4)
        offer(ctrl, incoming)
        # Overflow is resolved entirely against the incoming block.
        assert all(r.order_id >= 4 for r in sink.rows)
        ctrl.consistency_check()

    def test_real_rows_shed_by_seeded_tiebreak(self):
        ctrl, sink = controller(rate_per_s=0.001, burst=1, queue_limit=4)
        offer(ctrl, make_block(12))  # one class: the tie-break alone ranks
        shed = [r.order_id for r in sink.rows]
        assert len(shed) == 8 and shed != list(range(4, 12))

    def test_shedding_is_seed_deterministic(self):
        rows = []
        for _ in range(2):
            ctrl, sink = controller(rate_per_s=0.001, burst=1, queue_limit=4, seed=9)
            offer(ctrl, make_block(12, synthetic=2))
            rows.append([r.order_id for r in sink.rows])
        assert rows[0] == rows[1]


class TestLadder:
    def test_escalates_after_streak_and_suspends_aux_breakers(self):
        breakers = {
            name: CircuitBreaker(name, BreakerConfig())
            for name in ("ks", "incentive")
        }
        incidents = []
        ctrl, _ = controller(
            incidents=incidents,
            breakers=breakers,
            rate_per_s=0.001,
            burst=1,
            queue_limit=10,
        )
        offer(ctrl, make_block(8))  # depth 7 >= 6 -> streak 1
        assert ctrl.rung == 0
        offer(ctrl, make_block(1, at_s=100.0, order_base=8))  # streak 2
        assert ctrl.rung == 1 and ctrl.rung_name == "defer_aux"
        for breaker in breakers.values():
            assert breaker.suspended and not breaker.admit()
        assert any(k == "ladder" and "full -> defer_aux" in d for k, d in incidents)

    def test_dead_band_resets_the_streaks(self):
        ctrl, _ = controller(rate_per_s=0.01, burst=4, queue_limit=10)
        offer(ctrl, make_block(7, spacing_s=0.0))  # observe 7: high streak 1
        assert ctrl.depth == 3  # burst granted 4
        # Depth 4 is inside the dead band (2 < 4 < 6): streaks reset.
        offer(ctrl, make_block(1, at_s=100.0, order_base=7))
        offer(ctrl, make_block(4, at_s=200.0, order_base=8))  # high: streak 1 again
        assert ctrl.rung == 0  # two highs, but not consecutive
        offer(ctrl, make_block(4, at_s=300.0, order_base=12))  # streak 2
        assert ctrl.rung == 1

    def test_rung_two_defers_everything_and_recovers(self):
        breakers = {"ks": CircuitBreaker("ks", BreakerConfig())}
        ctrl, sink = controller(
            breakers=breakers, rate_per_s=0.05, burst=1, queue_limit=10
        )
        offer(ctrl, make_block(8, spacing_s=0.0))  # high streak 1
        offer(ctrl, make_block(1, at_s=10.0, order_base=8))  # streak 2 -> rung 1
        assert ctrl.rung == 1 and breakers["ks"].suspended
        offer(ctrl, make_block(1, at_s=20.0, order_base=9))  # streak 1 again
        _, deferred = offer(ctrl, make_block(1, at_s=30.0, order_base=10))
        assert ctrl.rung == 2
        assert len(deferred) == 9  # the whole backlog plus the arrival
        assert ctrl.depth == 0
        # Consecutive low observations (with event time for the bucket to
        # refill) walk it back down: 3 at rung 2, then 3 at rung 1.
        rungs = []
        for i in range(6):
            offer(
                ctrl, make_block(1, at_s=1000.0 * (i + 1), order_base=11 + i)
            )
            rungs.append(ctrl.rung)
        assert rungs == [2, 2, 1, 1, 1, 0]
        assert not breakers["ks"].suspended
        assert sink.total == 0  # deferral is not shedding
        ctrl.consistency_check()

    def test_transitions_carry_event_timestamps(self):
        ctrl, _ = controller(rate_per_s=0.001, burst=1, queue_limit=10)
        offer(ctrl, make_block(8))
        offer(ctrl, make_block(1, at_s=60.0, order_base=8))
        assert ctrl.transitions == [(T0_US + 60_000_000, 0, 1)]


class TestBackpressure:
    def test_signal_raises_and_clears_on_the_water_marks(self):
        incidents = []
        ctrl, _ = controller(
            incidents=incidents, rate_per_s=1.0, burst=20, queue_limit=10
        )
        offer(ctrl, make_block(20, spacing_s=0.0))  # burn the genesis burst
        offer(ctrl, make_block(9, at_s=1.0, spacing_s=0.0, order_base=20))
        assert ctrl.backpressure and ctrl.backpressure_signals == 1  # depth 9
        # A big event-time gap refills the bucket; the backlog drains and
        # the next observation falls under the low-water mark.
        offer(ctrl, make_block(1, at_s=600.0, order_base=29))
        offer(ctrl, make_block(1, at_s=601.0, order_base=30))
        assert not ctrl.backpressure
        kinds = [k for k, _ in incidents]
        assert kinds.count("backpressure") == 2


class TestDrain:
    def test_drain_grants_the_backlog_below_rung_two(self):
        ctrl, _ = controller(rate_per_s=0.001, burst=1, queue_limit=10)
        offer(ctrl, make_block(5))
        granted, deferred = ctrl.drain()
        assert len(granted) == 4 and len(deferred) == 0
        assert ctrl.depth == 0
        ctrl.consistency_check()

    def test_drain_defers_on_rung_two(self):
        ctrl, _ = controller(rate_per_s=0.001, burst=1, queue_limit=100)
        ctrl._set_rung(2, depth=0)
        offer(ctrl, make_block(5))
        granted, deferred = ctrl.drain()
        # Rung 2 already deferred the queue inside offer();
        # drain finds it empty.
        assert len(granted) == 0 and len(deferred) == 0
        assert ctrl.deferred == 5
        ctrl.consistency_check()

    def test_consistency_check_catches_drift(self):
        ctrl, _ = controller()
        offer(ctrl, make_block(3))
        ctrl.admitted -= 1
        with pytest.raises(StateDriftError):
            ctrl.consistency_check()


def wrap(tmp_path, name, overload, seed=7):
    inner = CheckpointingService(
        build_service(seed=seed),
        tmp_path / name,
        checkpoint_every=25,
        durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )
    return GuardedRuntime(inner, guard_config(overload=overload))


class TestRuntimeIntegration:
    @pytest.mark.parametrize("block_size", [1, 16, None])
    def test_zero_overload_is_byte_identical(self, tmp_path, trips, block_size):
        generous = OverloadConfig(rate_per_s=1000.0, burst=100_000,
                                  queue_limit=100_000)
        controlled = wrap(tmp_path, "on", generous)
        plain = wrap(tmp_path, "off", None)
        got = controlled.serve(trips, block_size=block_size)
        want = plain.serve(trips, block_size=block_size)
        controlled.consistency_check()
        assert controlled.overload.shed == 0
        assert controlled.overload.deferred == 0
        assert controlled.overload.transitions == []
        assert got == want
        assert logical_state(controlled.inner.service) == logical_state(
            plain.inner.service
        )
        controlled.close()
        plain.close()
        assert (tmp_path / "on" / "journal.jsonl").read_bytes() == (
            tmp_path / "off" / "journal.jsonl"
        ).read_bytes()

    def test_overloaded_stream_conserves_every_row(self, tmp_path):
        tight = OverloadConfig(
            rate_per_s=0.05, burst=8, queue_limit=16,
            ladder=LadderConfig(escalate_after=2, deescalate_after=3),
        )
        runtime = wrap(tmp_path, "hot", tight)
        trips = make_trips(150, seed=3, spacing_s=1.0)
        runtime.serve(trips, block_size=16)
        runtime.consistency_check()
        ctrl = runtime.overload
        assert ctrl.shed > 0 or ctrl.deferred > 0  # the stream overloads
        offered = runtime.validator.offered
        accounted = (
            runtime.served
            + runtime.duplicates
            + runtime.sink.total
            + len(runtime.deferred_decisions)
            + len(runtime.degraded_decisions)
        )
        assert offered == len(trips) == accounted
        assert all(
            "overload ladder" in d.reason for d in runtime.deferred_decisions
        )
        runtime.close()

    def test_deferred_rows_answer_from_nearest_station(self, tmp_path):
        tight = OverloadConfig(rate_per_s=0.01, burst=2, queue_limit=6)
        runtime = wrap(tmp_path, "defer", tight)
        runtime.serve(make_trips(80, seed=5, spacing_s=1.0), block_size=8)
        runtime.consistency_check()
        assert runtime.deferred_decisions  # rung 2 was reached
        stations = set(runtime.inner.service.planner.station_set.ids())
        for decision in runtime.deferred_decisions:
            assert decision.origin_station in stations
            assert decision.destination_station in stations
            assert decision.walking_m >= 0.0
        runtime.close()

    def test_shed_rows_are_dead_lettered_with_the_shed_rule(self, tmp_path):
        tight = OverloadConfig(rate_per_s=0.01, burst=1, queue_limit=4)
        runtime = wrap(tmp_path, "shed", tight)
        runtime.serve(make_trips(60, seed=4, spacing_s=1.0), block_size=32)
        shed_rows = [r for r in runtime.sink.rows if r.rule == SHED_RULE]
        assert len(shed_rows) == runtime.overload.shed > 0
        runtime.flush_logs(tmp_path / "logs", durable=False)
        text = (tmp_path / "logs" / "deadletter.jsonl").read_text()
        assert SHED_RULE in text
        runtime.close()

    def test_health_degraded_while_ladder_is_raised(self, tmp_path):
        tight = OverloadConfig(rate_per_s=0.01, burst=1, queue_limit=6)
        runtime = wrap(tmp_path, "health", tight)
        runtime.ingest_many(make_trips(40, seed=6, spacing_s=1.0), block_size=8)
        assert runtime.overload.rung > 0
        assert runtime.health == "degraded"
        runtime.close()


class TestGuardStateRoundTrip:
    def test_overload_config_survives_shard_serialization(self):
        config = guard_config(
            overload=OverloadConfig(
                rate_per_s=3.5,
                burst=64,
                queue_limit=256,
                seed=11,
                ladder=LadderConfig(high_queue=0.7, escalate_after=4),
            )
        )
        assert _guard_from_state(_guard_to_state(config)) == config

    def test_missing_overload_key_defaults_to_none(self):
        state = _guard_to_state(guard_config())
        state.pop("overload", None)  # a pre-overload shardplan.json
        assert _guard_from_state(state).overload is None
