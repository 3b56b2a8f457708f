"""The guarded serve path journals from columns, never record by record.

``GuardedRuntime`` hands every released run to ``handle_block`` as a
``TripBlock`` (or a slice of one), so the journal encodes it with
``_encode_block_lines``.  The per-record encoder ``_encode_line`` is
kept for record lists only: a spy on it must stay silent through every
route of the runtime, at every block size.  That the two encoders write
the same bytes is pinned against the per-trip oracle in
``test_blocked_stream.py`` and ``tests/resilience/test_block_commit.py``.
"""

import numpy as np
import pytest

from repro.datasets import TripRecord
from repro.geo import Point
from repro.guard import BreakerConfig, DegradedDecision, GuardedRuntime
from repro.incentives.charging_cost import ChargingCostParams
from repro.incentives.mechanism import IncentiveMechanism
from repro.resilience import CheckpointingService, constant_cost_spec
from repro.resilience import journal as journal_module

from .conftest import COST_VALUE, T0, build_service, guard_config, make_trips
from .test_blocked_stream import hostile_stream

BLOCK_SIZES = (1, 7, 128)


@pytest.fixture
def record_encodes(monkeypatch):
    """Count calls of the per-record journal encoder."""
    calls = []
    encode = journal_module._encode_line

    def spy(seq, trip):
        calls.append(seq)
        return encode(seq, trip)

    monkeypatch.setattr(journal_module, "_encode_line", spy)
    return calls


def checkpointing(directory, seed=7):
    return CheckpointingService(
        build_service(seed=seed), directory, checkpoint_every=25,
        durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
    )


@pytest.mark.parametrize("size", BLOCK_SIZES)
class TestGuardedServeUsesTheColumnEncoder:
    def test_clean_stream(self, tmp_path, record_encodes, size):
        runtime = GuardedRuntime(checkpointing(tmp_path), guard_config())
        runtime.serve(make_trips(60, seed=7), block_size=size)
        assert runtime.inner.applied_seq == 60
        assert record_encodes == []
        runtime.close()

    def test_chaos_stream(self, tmp_path, record_encodes, size):
        runtime = GuardedRuntime(checkpointing(tmp_path, seed=21), guard_config())
        runtime.serve(hostile_stream(n=100, seed=21), block_size=size)
        runtime.consistency_check()
        assert runtime.duplicates > 0 and runtime.sink.total > 0
        assert runtime.inner.applied_seq > 0
        assert record_encodes == []
        runtime.close()

    def test_planner_breaker_stepping(self, tmp_path, record_encodes, size):
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
        assert record_encodes == []
        runtime.close()

    def test_incentives_attached(self, tmp_path, record_encodes, size):
        inner = checkpointing(tmp_path)
        mechanism = IncentiveMechanism(
            inner.service.fleet, ChargingCostParams(),
            rng=np.random.default_rng(3),
            stations=inner.service.planner.station_set,
        )
        runtime = GuardedRuntime(inner, guard_config(), incentives=mechanism)
        runtime.serve(make_trips(40, seed=7), block_size=size)
        assert runtime.served == 40
        assert record_encodes == []
        runtime.close()

    def test_finish_drain(self, tmp_path, record_encodes, size):
        config = guard_config(lateness_s=1e7, max_pending=1_000)
        trips = make_trips(30, seed=7)
        runtime = GuardedRuntime(checkpointing(tmp_path), config)
        assert runtime.ingest_many(trips, block_size=size) == []
        assert len(runtime.buffer) == len(trips)
        assert len(runtime.finish()) == len(trips)
        assert runtime.inner.applied_seq == len(trips)
        assert record_encodes == []
        runtime.close()


def test_record_list_keeps_int_coordinates(tmp_path, record_encodes):
    """A record list is journaled record by record: ``json`` writes an
    int coordinate as ``5``, where a float64 column would write ``5.0``."""
    trip = TripRecord(
        order_id=1, user_id=2, bike_id=3, bike_type=1, start_time=T0,
        start=Point(5, 7), end=Point(900, 1100),
    )
    service = checkpointing(tmp_path)
    [response] = service.handle_block([trip])
    assert response is not None
    line = (tmp_path / "journal.jsonl").read_text()
    assert '"start":[5,7]' in line and '"end":[900,1100]' in line
    assert record_encodes == [1]
    service.close()
