"""The serve step keeps one object per trip: its response.

``PlacementService``'s block step reads the decision from
``EsharingPlanner.arrive`` and builds no ``EsharingDecision``, so a
serving planner's decision trace stays empty, live and after recovery,
and the only tracked objects a long serve leaves behind are its
``ServiceResponse``s.
"""

import gc
from collections import Counter

from repro.core.esharing import EsharingDecision
from repro.core.streaming import ServiceResponse
from repro.core.tripblock import TripBlock
from repro.geo import Point
from repro.resilience import CheckpointingService, constant_cost_spec

from .conftest import COST_VALUE, build_service, make_trips

BLOCK = 128


def _blocks(trips):
    return [
        TripBlock.from_trips(trips[lo : lo + BLOCK])
        for lo in range(0, len(trips), BLOCK)
    ]


def _wrapped(directory, seed):
    return CheckpointingService(
        build_service(seed=seed), directory, checkpoint_every=500,
        durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
    )


def _tracked(*types):
    gc.collect()
    counts = Counter(type(o) for o in gc.get_objects())
    return [counts[t] for t in types]


def test_serving_planner_keeps_no_decision_trace(tmp_path):
    trips = make_trips(2_100, seed=21, shift_at=1_000)
    live = _wrapped(tmp_path / "run", seed=21)
    for block in _blocks(trips):
        live.handle_block(block)
    planner = live.service.planner
    assert len(live.service.responses) == len(trips)
    assert planner.similarity_history, "no KS check fired"
    assert planner.decisions == []
    live.close()
    # The newest snapshot is at seq 2,000: recovery replays a 100-trip
    # journal tail through the same step.
    recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
    assert recovered.last_recovery.replayed == 100
    assert recovered.service.responses == live.service.responses
    assert recovered.service.planner.decisions == []
    recovered.close()


def test_serve_step_retains_only_its_responses(tmp_path):
    trips = make_trips(3_000, seed=22)
    blocks = _blocks(trips)
    wrapped = _wrapped(tmp_path / "run", seed=22)
    store = wrapped.service.planner.station_set
    # Warm up past the first checkpoint, so first-use caches and the
    # early online openings are not counted.
    for block in blocks[:8]:
        wrapped.handle_block(block)
    kinds = (EsharingDecision, Point, ServiceResponse)
    before, stations = _tracked(*kinds), store.total_assigned
    served = [r for block in blocks[8:] for r in wrapped.handle_block(block)]
    after = _tracked(*kinds)
    assert store.total_assigned == stations, "a station opened in the window"
    assert all(r.served for r in served)
    assert after[0] == before[0], "EsharingDecision objects retained"
    assert after[1] == before[1], "Point objects retained"
    assert after[2] - before[2] == len(served) == len(trips) - 8 * BLOCK
    wrapped.close()
