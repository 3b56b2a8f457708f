"""GuardedRuntime: parity, self-healing, degradation, halting."""

from dataclasses import replace
from datetime import timezone

import numpy as np
import pytest

from repro.errors import RuntimeHaltedError
from repro.guard import (
    DEGRADED,
    HALTED,
    HEALTHY,
    BreakerConfig,
    DegradedDecision,
    GuardConfig,
    GuardedRuntime,
    OverloadConfig,
)
from repro.geo import Point
from repro.incentives.charging_cost import ChargingCostParams
from repro.incentives.mechanism import IncentiveMechanism
from repro.resilience import CheckpointingService, constant_cost_spec

from .conftest import COST_VALUE, build_service, guard_config, make_trips, scrub


def wrap(tmp_path, name="run", config=None, seed=7, **kwargs):
    inner = CheckpointingService(
        build_service(seed=seed),
        tmp_path / name,
        checkpoint_every=25,
        durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )
    return GuardedRuntime(inner, config or guard_config(), **kwargs)


class TestZeroFaultParity:
    def test_guarded_equals_unguarded_bit_for_bit(self, tmp_path, trips):
        plain = CheckpointingService(
            build_service(seed=7), tmp_path / "plain", checkpoint_every=25,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        plain.serve(trips)
        runtime = wrap(tmp_path)
        runtime.serve(trips)
        runtime.consistency_check()
        assert runtime.health == HEALTHY
        assert runtime.sink.total == 0 and runtime.incidents.total == 0
        assert runtime.inner.service.responses == plain.service.responses
        assert scrub(runtime.inner.service.state_dict()) == scrub(
            plain.service.state_dict()
        )

    def test_duplicates_screened_through_the_guarded_path(self, tmp_path, trips):
        doubled = [t for trip in trips for t in (trip, trip)]
        runtime = wrap(tmp_path)
        runtime.serve(doubled)
        runtime.consistency_check()
        assert runtime.duplicates == len(trips)
        assert runtime.served == len(trips)
        assert len(runtime.inner.service.responses) == len(trips)


class TestSelfHeal:
    def test_planner_fault_heals_to_the_unfaulted_state(self, tmp_path, trips):
        reference = wrap(tmp_path, "ref")
        reference.serve(trips)

        runtime = wrap(tmp_path, "faulty")
        for trip in trips[:30]:
            runtime.ingest(trip)
        planner = runtime.inner.service.planner

        def poisoned_offer(point):
            raise RuntimeError("injected planner corruption")

        planner.offer = poisoned_offer
        for trip in trips[30:]:
            runtime.ingest(trip)
        runtime.finish()
        runtime.consistency_check()
        assert runtime.healed >= 1
        assert runtime.incidents.by_kind["planner_error"] >= 1
        assert runtime.incidents.by_kind["self_heal"] == runtime.healed
        assert not runtime.degraded_decisions
        # the failed trip was journaled, so the heal replays it through a
        # healthy planner: the outcome is bit-identical to a clean run
        assert (
            runtime.inner.service.responses
            == reference.inner.service.responses
        )
        assert scrub(runtime.inner.service.state_dict()) == scrub(
            reference.inner.service.state_dict()
        )

    def test_heal_reinstalls_the_ks_guard(self, tmp_path, trips):
        runtime = wrap(tmp_path)
        guard_before = runtime.guarded_ks
        for trip in trips[:20]:
            runtime.ingest(trip)
        runtime.inner.service.planner.offer = lambda p: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        for trip in trips[20:]:
            runtime.ingest(trip)
        runtime.finish()
        planner = runtime.inner.service.planner
        assert planner._ks_cache is guard_before  # same wrapper object
        assert guard_before.inner is not None
        assert not isinstance(guard_before.inner, type(guard_before))


class TestHealBreakerClock:
    @pytest.mark.parametrize("block_size", [1, 20])
    def test_failure_on_the_last_trip_leaves_the_breaker_open(
        self, tmp_path, block_size
    ):
        config = guard_config(
            lateness_s=0.0, breaker=BreakerConfig(failure_threshold=1)
        )
        runtime = wrap(tmp_path, config=config)
        service = runtime.inner.service
        real = service.handle_trip

        def faulty(trip):
            # Only the pre-heal service is patched: the first attempt
            # at order 19 fails, the healed planner replays it cleanly.
            if trip.order_id == 19:
                raise RuntimeError("injected planner fault")
            return real(trip)

        service.handle_trip = faulty
        runtime.serve(make_trips(20, seed=7), block_size=block_size)
        runtime.consistency_check()
        assert runtime.healed == 1
        assert runtime.served == 20
        assert runtime.breakers["planner"].state == "open"
        assert runtime.incidents.by_kind["breaker"] == 1


def _bad_row(kind, trip):
    if kind == "string_coordinate":
        return replace(trip, start=Point("x", trip.start.y))
    if kind == "tz_aware_start":
        return replace(trip, start_time=trip.start_time.replace(tzinfo=timezone.utc))
    if kind == "huge_order_id":
        return replace(trip, order_id=2**70)
    if kind == "float_order_id":
        return replace(trip, order_id=3.7)
    return replace(trip, battery="x")


class TestMalformedRows:
    @pytest.mark.parametrize("overload", [False, True])
    @pytest.mark.parametrize("block_size", [1, 8])
    @pytest.mark.parametrize(
        "kind",
        [
            "string_coordinate",
            "tz_aware_start",
            "huge_order_id",
            "float_order_id",
            "string_battery",
        ],
    )
    def test_bad_row_is_dead_lettered_not_fatal(
        self, tmp_path, kind, block_size, overload
    ):
        trips = make_trips(10, seed=7)
        bad = _bad_row(kind, trips[4])
        stream = trips[:4] + [bad] + trips[5:]
        config = guard_config(
            overload=OverloadConfig(rate_per_s=1000.0, burst=100_000)
            if overload
            else None
        )
        runtime = wrap(tmp_path, config=config)
        runtime.serve(stream, block_size=block_size)
        runtime.consistency_check()
        assert runtime.validator.counters["malformed"] == 1
        assert runtime.sink.by_rule == {"malformed": 1}
        (row,) = runtime.sink.rows
        assert row.rule == "malformed"
        assert row.seq == 4
        assert row.order_id == bad.order_id
        assert type(row.order_id) is type(bad.order_id)
        assert runtime.served == 9
        served = [r.order_id for r in runtime.inner.service.responses]
        assert served == [t.order_id for t in stream if t is not bad]
        if overload:
            assert runtime.overload.offered == 9
            assert runtime.overload.admitted == 9


class TestNonFiniteGeodesic:
    @pytest.mark.parametrize("block_size", [1, 8])
    @pytest.mark.parametrize("geodesic_m", [float("nan"), float("inf")])
    def test_non_finite_geodesic_is_dead_lettered_not_fatal(
        self, tmp_path, geodesic_m, block_size
    ):
        trips = make_trips(10, seed=7)
        stream = [replace(t, geodesic_m=1000.0) for t in trips]
        stream[4] = replace(trips[4], geodesic_m=geodesic_m)
        runtime = wrap(tmp_path)
        runtime.serve(stream, block_size=block_size)
        runtime.consistency_check()
        assert runtime.sink.by_rule == {"finite": 1}
        (row,) = runtime.sink.rows
        assert (row.seq, row.order_id) == (4, trips[4].order_id)
        assert row.reason == f"non-finite geodesic_m {geodesic_m!r}"
        assert runtime.served == 9


class TestDegradedServing:
    def test_open_planner_breaker_serves_degraded(self, tmp_path, trips):
        config = guard_config(
            lateness_s=0.0,  # sorted stream: ingest == apply, immediately
            breaker=BreakerConfig(
                failure_threshold=1, cooldown_events=5,
                max_cooldown_events=5, jitter_events=0,
            ),
        )
        runtime = wrap(tmp_path, config=config)
        for trip in trips[:10]:
            runtime.ingest(trip)
        applied_before = runtime.inner.applied_seq
        runtime.breakers["planner"].failure()  # force the breaker open
        assert runtime.health == DEGRADED
        outcomes = []
        for trip in trips[10:14]:
            outcomes.extend(runtime.ingest(trip))
        degraded = [o for o in outcomes if isinstance(o, DegradedDecision)]
        assert degraded and degraded == runtime.degraded_decisions[: len(degraded)]
        # degraded answers are not journaled and mutate nothing
        assert runtime.inner.applied_seq == applied_before + (
            len(outcomes) - len(degraded)
        )
        for decision in degraded:
            assert decision.destination_station in (
                runtime.inner.service.planner.station_set.ids()
            )
        assert runtime.incidents.by_kind["degraded_decision"] == len(
            runtime.degraded_decisions
        )

    def test_breaker_recovery_returns_to_healthy(self, tmp_path, trips):
        config = guard_config(
            lateness_s=0.0,
            breaker=BreakerConfig(
                failure_threshold=1, cooldown_events=3,
                max_cooldown_events=3, jitter_events=0,
            ),
        )
        runtime = wrap(tmp_path, config=config)
        for trip in trips[:5]:
            runtime.ingest(trip)
        runtime.breakers["planner"].failure()
        runtime.serve(trips[5:])
        assert runtime.health == HEALTHY  # probe succeeded, breaker closed
        assert runtime.degraded_decisions  # but the outage was recorded
        runtime.consistency_check()


class TestCheckpointRetry:
    def test_transient_snapshot_failures_are_retried(self, tmp_path, trips):
        sleeps = []
        config = guard_config(checkpoint_attempts=4, checkpoint_backoff_s=0.01)
        runtime = wrap(tmp_path, config=config, sleep=sleeps.append)
        real_save = runtime.inner.store.save
        fails = {"left": 2}

        def flaky_save(payload, seq):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise OSError("disk hiccup")
            return real_save(payload, seq)

        runtime.inner.store.save = flaky_save
        runtime.serve(trips)  # crosses several checkpoint boundaries
        runtime.consistency_check()
        assert runtime.health == HEALTHY
        assert runtime.incidents.by_kind["checkpoint_retry"] == 2
        assert sleeps == [0.01, 0.02]  # exponential backoff, injected sleeper

    def test_exhausted_retries_halt_the_runtime(self, tmp_path, trips):
        config = guard_config(checkpoint_attempts=2, checkpoint_backoff_s=0.0)
        runtime = wrap(tmp_path, config=config, sleep=lambda s: None)
        runtime.inner.store.save = lambda payload, seq: (_ for _ in ()).throw(
            OSError("disk gone")
        )
        with pytest.raises(RuntimeHaltedError):
            runtime.serve(trips)
        assert runtime.health == HALTED
        assert "checkpoint I/O failed" in runtime.halt_reason
        with pytest.raises(RuntimeHaltedError):
            runtime.ingest(trips[0])  # fail-stopped: no serving after halt
        assert runtime.incidents.by_kind["halt"] == 1


class TestRecover:
    def test_recover_resumes_bit_identically(self, tmp_path, trips):
        reference = wrap(tmp_path, "ref")
        reference.serve(trips)

        runtime = wrap(tmp_path, "killed")
        for trip in trips[:33]:
            runtime.ingest(trip)
        runtime.close()  # the crash: buffer contents and breakers are lost

        resumed = GuardedRuntime.recover(
            tmp_path / "killed", config=guard_config(), durable=False,
            checkpoint_every=25,
        )
        # at-least-once upstream: re-feed the whole stream; the duplicate
        # screen drops what the dead run already served
        resumed.serve(trips)
        resumed.consistency_check()
        assert (
            resumed.inner.service.responses
            == reference.inner.service.responses
        )
        assert scrub(resumed.inner.service.state_dict()) == scrub(
            reference.inner.service.state_dict()
        )
        assert resumed.guarded_ks is resumed.inner.service.planner._ks_cache

    def test_recover_requires_a_checkpoint_directory(self, tmp_path):
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            GuardedRuntime.recover(tmp_path / "nowhere", durable=False)


class TestIncentiveIntegration:
    def test_incentive_faults_degrade_to_no_offer(self, tmp_path, trips):
        inner = CheckpointingService(
            build_service(seed=7), tmp_path / "inc", checkpoint_every=25,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        mechanism = IncentiveMechanism(
            inner.service.fleet, ChargingCostParams(),
            rng=np.random.default_rng(3),
            stations=inner.service.planner.station_set,
        )
        mechanism.offer_ride = lambda *a: (_ for _ in ()).throw(
            RuntimeError("incentive backend down")
        )
        config = guard_config(
            breaker=BreakerConfig(failure_threshold=2, jitter_events=0)
        )
        runtime = GuardedRuntime(inner, config, incentives=mechanism)
        runtime.serve(trips)  # must not raise
        runtime.consistency_check()
        assert runtime.breakers["incentive"].total_failures >= 2
        assert runtime.incentives.breaker.fallbacks >= 1
        assert runtime.served == len(trips)


class TestLogs:
    def test_flush_logs_writes_both_files(self, tmp_path, trips):
        runtime = wrap(tmp_path)
        bad = trips[10].with_end(type(trips[10].end)(float("nan"), 0.0))
        runtime.serve(trips[:10] + [bad])
        runtime.flush_logs(tmp_path / "logs", durable=False)
        assert (tmp_path / "logs" / "deadletter.jsonl").exists()
        assert (tmp_path / "logs" / "incidents.jsonl").exists()
        assert runtime.sink.total == 1
