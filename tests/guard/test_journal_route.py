"""The guarded serve path journals and applies columns, never records.

``GuardedRuntime`` hands every released run to ``handle_block`` as a
``TripBlock`` (or a slice of one); the journal encodes it from its
columns (its only encoder) and the service applies it from its
``order_id`` and coordinate columns.  The overload, breaker-open,
self-heal and incentive paths read the row's columns too.  A spy on the
two ways a block becomes records (``TripBlock.to_trips`` and
``TripBlock.trip``) must stay silent through every route of the
runtime, at every block size.  That the column encoder writes the bytes
of the ``json`` record oracle is pinned in
``tests/resilience/test_block_commit.py``; what changes for a record
with int coordinates is pinned at the end of this file.
"""

import numpy as np
import pytest

from repro.core.tripblock import TripBlock
from repro.datasets import TripRecord
from repro.geo import Point
from repro.guard import BreakerConfig, DegradedDecision, GuardedRuntime
from repro.incentives.charging_cost import ChargingCostParams
from repro.incentives.mechanism import IncentiveMechanism
from repro.resilience import CheckpointingService, constant_cost_spec, logical_state

from ..resilience.journal_oracle import encode_line
from .conftest import COST_VALUE, T0, build_service, guard_config, make_trips
from .test_blocked_stream import hostile_stream

BLOCK_SIZES = (1, 7, 128)


@pytest.fixture
def materialised(monkeypatch):
    """Count the rows a block turns into records."""
    calls = []
    to_trips, trip = TripBlock.to_trips, TripBlock.trip

    def spy_to_trips(block):
        calls.extend(block.order_id.tolist())
        return to_trips(block)

    def spy_trip(block, i):
        calls.append(int(block.order_id[i]))
        return trip(block, i)

    monkeypatch.setattr(TripBlock, "to_trips", spy_to_trips)
    monkeypatch.setattr(TripBlock, "trip", spy_trip)
    return calls


def checkpointing(directory, seed=7):
    return CheckpointingService(
        build_service(seed=seed), directory, checkpoint_every=25,
        durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
    )


@pytest.mark.parametrize("size", BLOCK_SIZES)
class TestGuardedServeUsesTheColumnEncoder:
    def test_clean_stream(self, tmp_path, materialised, size):
        runtime = GuardedRuntime(checkpointing(tmp_path), guard_config())
        runtime.serve(make_trips(60, seed=7), block_size=size)
        assert runtime.inner.applied_seq == 60
        assert materialised == []
        runtime.close()

    def test_chaos_stream(self, tmp_path, materialised, size):
        runtime = GuardedRuntime(checkpointing(tmp_path, seed=21), guard_config())
        runtime.serve(hostile_stream(n=100, seed=21), block_size=size)
        runtime.consistency_check()
        assert runtime.duplicates > 0 and runtime.sink.total > 0
        assert runtime.inner.applied_seq > 0
        assert materialised == []
        runtime.close()

    def test_planner_breaker_stepping(self, tmp_path, materialised, size):
        config = guard_config(
            lateness_s=0.0,
            breaker=BreakerConfig(
                failure_threshold=1, cooldown_events=3,
                max_cooldown_events=3, jitter_events=0,
            ),
        )
        trips = make_trips(40, seed=7)
        runtime = GuardedRuntime(checkpointing(tmp_path), config)
        runtime.ingest_many(trips[:10], block_size=size)
        runtime.breakers["planner"].failure()  # open: the next run steps
        outcomes = runtime.serve(trips[10:], block_size=size)
        degraded = [o for o in outcomes if isinstance(o, DegradedDecision)]
        assert degraded
        assert runtime.inner.applied_seq == len(trips) - len(degraded)
        assert materialised == []
        runtime.close()

    def test_incentives_attached(self, tmp_path, materialised, size):
        inner = checkpointing(tmp_path)
        mechanism = IncentiveMechanism(
            inner.service.fleet, ChargingCostParams(),
            rng=np.random.default_rng(3),
            stations=inner.service.planner.station_set,
        )
        runtime = GuardedRuntime(inner, guard_config(), incentives=mechanism)
        runtime.serve(make_trips(40, seed=7), block_size=size)
        assert runtime.served == 40
        assert materialised == []
        runtime.close()

    def test_finish_drain(self, tmp_path, materialised, size):
        config = guard_config(lateness_s=1e7, max_pending=1_000)
        trips = make_trips(30, seed=7)
        runtime = GuardedRuntime(checkpointing(tmp_path), config)
        assert runtime.ingest_many(trips, block_size=size) == []
        assert len(runtime.buffer) == len(trips)
        assert len(runtime.finish()) == len(trips)
        assert runtime.inner.applied_seq == len(trips)
        assert materialised == []
        runtime.close()


def test_int_coordinates_journal_as_floats(tmp_path):
    """A record is a block of one: an int coordinate is stored in a
    float64 column and journaled as ``5.0``.  It recovers to the state
    the record's own values give."""
    trip = TripRecord(
        order_id=1, user_id=2, bike_id=3, bike_type=1, start_time=T0,
        start=Point(5, 7), end=Point(900, 1100),
    )
    service = checkpointing(tmp_path / "run")
    response = service.handle_trip(trip)
    service.close()
    line = (tmp_path / "run" / "journal.jsonl").read_text()
    assert '"start":[5.0,7.0]' in line and '"end":[900.0,1100.0]' in line

    oracle = build_service(seed=7)
    assert oracle.handle_trip(trip.order_id, trip.start, trip.end) == response
    recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
    assert recovered.last_recovery.replayed == 1
    assert logical_state(recovered.service) == logical_state(oracle)
    recovered.close()


def test_int_coordinate_journal_lines_still_replay(tmp_path):
    """A journal line written with int coordinates (``"start":[5,7]``,
    as the record encoder of earlier versions wrote them) decodes to the
    same trip and replays to the same state."""
    trip = TripRecord(
        order_id=1, user_id=2, bike_id=3, bike_type=1, start_time=T0,
        start=Point(5, 7), end=Point(900, 1100),
    )
    service = checkpointing(tmp_path / "run")
    service.handle_trip(trip)
    service.close()
    old = encode_line(1, trip)  # the record encoder's bytes
    assert '"start":[5,7]' in old
    (tmp_path / "run" / "journal.jsonl").write_text(old)

    oracle = build_service(seed=7)
    oracle.handle_trip(trip.order_id, trip.start, trip.end)
    recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
    assert [e.trip for e in recovered.journal.scan()] == [trip]
    assert logical_state(recovered.service) == logical_state(oracle)
    recovered.close()
