"""Crash-recovery parity: snapshot + journal replay vs the uninterrupted run.

The centerpiece is the kill-at-every-trip test: a 500-trip stream whose
destinations shift distribution mid-way (so the periodic KS test fires
*and* switches the penalty type), recovered from disk after **every**
trip and compared bit-for-bit against an uninterrupted twin.
"""

import pytest

from repro.core import constant_facility_cost
from repro.geo import Point
from repro.resilience import (
    CheckpointingService,
    FaultInjector,
    SnapshotVersionError,
    constant_cost_spec,
    encode_snapshot,
    logical_state,
)
from repro.resilience.snapshot import SNAPSHOT_VERSION

from .conftest import COST_VALUE, build_service, make_trips

SPEC = constant_cost_spec(COST_VALUE)


def make_wrapped(directory, seed, checkpoint_every=25, **kwargs):
    return CheckpointingService(
        build_service(seed=seed),
        directory,
        checkpoint_every=checkpoint_every,
        durable=False,
        facility_cost_spec=SPEC,
        **kwargs,
    )


class TestKillAtEveryTrip:
    def test_bit_identical_recovery_after_every_trip(self, tmp_path):
        """Crash after trip k, for every k in a 500-trip stream."""
        n = 500
        trips = make_trips(n, seed=11, shift_at=n // 2)
        reference = build_service(seed=11)
        wrapped = make_wrapped(tmp_path / "run", seed=11)
        names = set()
        for k, trip in enumerate(trips, start=1):
            wrapped.handle_trip(trip)
            reference.handle_trip(trip.order_id, trip.start, trip.end)
            names.add(reference.planner.penalty.name)
            # The directory right now is exactly what a crash immediately
            # after trip k leaves behind: recover from it and compare.
            recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
            assert recovered.applied_seq == k
            assert recovered.service.responses == reference.responses, (
                f"response stream diverged after crash at trip {k}"
            )
            assert logical_state(recovered.service) == logical_state(
                reference
            ), f"state diverged after crash at trip {k}"
            recovered.consistency_check()
            recovered.close()
        wrapped.close()
        # The stream must actually have exercised the hard cases: the
        # periodic KS checkpoint fired, and the distribution shift made
        # it switch penalty type mid-stream.
        # A serving planner keeps no decision trace, so the penalty in
        # force was collected after every trip above.
        assert reference.planner.similarity_history, "no KS checkpoint fired"
        assert len(names) >= 2, f"penalty never switched (saw {names})"

    def test_recovered_run_continues_bit_identically(self, tmp_path):
        """Crash once, recover, finish — end state equals the reference."""
        trips = make_trips(200, seed=12, shift_at=100)
        reference = build_service(seed=12)
        for t in trips:
            reference.handle_trip(t.order_id, t.start, t.end)
        wrapped = make_wrapped(tmp_path / "run", seed=12)
        for t in trips[:137]:  # not on a checkpoint boundary
            wrapped.handle_trip(t)
        wrapped.close()
        recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
        for t in trips[137:]:
            recovered.handle_trip(t)
        recovered.consistency_check()
        assert recovered.service.responses == reference.responses
        assert logical_state(recovered.service) == logical_state(reference)
        recovered.close()


class TestTornSnapshotFallback:
    def test_falls_back_to_previous_good_generation(self, tmp_path):
        trips = make_trips(120, seed=13)
        reference = build_service(seed=13)
        for t in trips:
            reference.handle_trip(t.order_id, t.start, t.end)
        wrapped = make_wrapped(tmp_path / "run", seed=13, keep=10)
        for t in trips[:110]:
            wrapped.handle_trip(t)
        wrapped.close()
        # Tear the newest snapshot (seq 100); recovery must fall back to
        # seq 75 and replay a longer journal tail — same final state.
        newest = wrapped.store.list()[-1][1]
        FaultInjector.corrupt_file(newest, mode="truncate")
        recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
        assert recovered.last_recovery.snapshot_seq == 75
        assert recovered.last_recovery.replayed == 35
        for t in trips[110:]:
            recovered.handle_trip(t)
        recovered.consistency_check()
        assert recovered.service.responses == reference.responses
        assert logical_state(recovered.service) == logical_state(reference)
        recovered.close()


class TestDegenerateRecovery:
    def test_empty_journal_restore(self, tmp_path):
        """Crash before the first trip: the genesis snapshot carries it."""
        wrapped = make_wrapped(tmp_path / "run", seed=14)
        wrapped.close()
        recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
        assert recovered.applied_seq == 0
        assert recovered.last_recovery.replayed == 0
        assert recovered.service.responses == []
        reference = build_service(seed=14)
        for t in make_trips(30, seed=14):
            recovered.handle_trip(t)
            reference.handle_trip(t.order_id, t.start, t.end)
        assert recovered.service.responses == reference.responses
        recovered.close()

    def test_all_offline_stations_retired_restore(self, tmp_path):
        """Every original anchor retired: the state must still round-trip
        and a post-restore trip is refused identically."""
        service = build_service(seed=15)
        for sid in list(service.active_station_ids):
            service.planner.remove_station(sid)
            service.retired.append(sid)
        service.consistency_check()
        from repro.core import PlacementService
        from repro.resilience import decode_snapshot

        payload = decode_snapshot(encode_snapshot(service.state_dict()))
        restored = PlacementService.from_state(
            payload, constant_facility_cost(COST_VALUE)
        )
        restored.consistency_check()
        assert restored.active_station_ids == []
        assert restored.retired == service.retired
        trip = make_trips(1, seed=15)[0]
        assert restored.handle_trip(trip.order_id, trip.start, trip.end).served is False
        assert service.handle_trip(trip.order_id, trip.start, trip.end).served is False
        assert restored.responses == service.responses

    def test_double_restore_is_idempotent(self, tmp_path):
        wrapped = make_wrapped(tmp_path / "run", seed=16)
        for t in make_trips(40, seed=16):
            wrapped.handle_trip(t)
        wrapped.close()
        first = CheckpointingService.recover(tmp_path / "run", durable=False)
        second = CheckpointingService.recover(tmp_path / "run", durable=False)
        assert first.applied_seq == second.applied_seq == 40
        assert first.service.responses == second.service.responses
        assert logical_state(first.service) == logical_state(second.service)
        # Recovery is read-only: a third recover still sees the same disk.
        first.close()
        second.close()
        third = CheckpointingService.recover(tmp_path / "run", durable=False)
        assert third.applied_seq == 40
        third.close()

    def test_version_mismatch_refused_not_skipped(self, tmp_path):
        wrapped = make_wrapped(tmp_path / "run", seed=17)
        for t in make_trips(30, seed=17):
            wrapped.handle_trip(t)
        wrapped.close()
        # Plant a *newer-format* snapshot on top of the good ones.  Even
        # though falling back would "work", recovery must refuse loudly.
        future = wrapped.store.path_for(999)
        future.write_bytes(
            encode_snapshot({"who": "knows"}, version=SNAPSHOT_VERSION + 1)
        )
        with pytest.raises(SnapshotVersionError) as err:
            CheckpointingService.recover(tmp_path / "run", durable=False)
        assert "refusing" in str(err.value)

    def test_recover_without_cost_spec_needs_callable(self, tmp_path):
        wrapped = CheckpointingService(
            build_service(seed=18), tmp_path / "run",
            checkpoint_every=25, durable=False,  # note: no facility_cost_spec
        )
        for t in make_trips(10, seed=18):
            wrapped.handle_trip(t)
        wrapped.close()
        with pytest.raises(ValueError, match="facility_cost"):
            CheckpointingService.recover(tmp_path / "run", durable=False)
        recovered = CheckpointingService.recover(
            tmp_path / "run",
            facility_cost=constant_facility_cost(COST_VALUE),
            durable=False,
        )
        assert recovered.applied_seq == 10
        recovered.close()


class TestDedup:
    def test_duplicates_screened_before_journal(self, tmp_path):
        trips = make_trips(30, seed=19)
        noisy = []
        for i, t in enumerate(trips):
            noisy.append(t)
            if i % 3 == 0:
                noisy.append(t)  # immediate redelivery
        reference = build_service(seed=19)
        for t in trips:
            reference.handle_trip(t.order_id, t.start, t.end)
        wrapped = make_wrapped(tmp_path / "run", seed=19)
        responses = [wrapped.handle_trip(t) for t in noisy]
        assert responses.count(None) == len(noisy) - len(trips)
        assert wrapped.service.responses == reference.responses
        # Only unique trips reached the journal.
        assert wrapped.journal.next_seq == len(trips) + 1
        wrapped.close()

    def test_dedup_survives_recovery(self, tmp_path):
        trips = make_trips(40, seed=20)
        wrapped = make_wrapped(tmp_path / "run", seed=20)
        for t in trips[:20]:
            wrapped.handle_trip(t)
        wrapped.close()
        recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
        # An at-least-once upstream redelivers everything after a crash.
        responses = [recovered.handle_trip(t) for t in trips]
        assert all(r is None for r in responses[:20])
        assert all(r is not None for r in responses[20:])
        reference = build_service(seed=20)
        for t in trips:
            reference.handle_trip(t.order_id, t.start, t.end)
        assert recovered.service.responses == reference.responses
        recovered.close()


class TestConstructionGuards:
    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            make_wrapped(tmp_path / "run", seed=1, checkpoint_every=0)

    def test_preserved_service_refused(self, tmp_path):
        service = build_service(seed=2)
        service.serve(make_trips(1, seed=2))
        with pytest.raises(ValueError, match="already handled"):
            CheckpointingService(
                service, tmp_path / "run", durable=False
            )

    def test_populated_directory_refused(self, tmp_path):
        make_wrapped(tmp_path / "run", seed=3).close()
        with pytest.raises(ValueError, match="recover"):
            make_wrapped(tmp_path / "run", seed=3)
