"""Bit-identical state round-trips for every mutable component.

Each test restores from ``state_dict`` output that has been pushed
through a JSON encode/decode (exactly what the snapshot file does), then
demands *identical* continued behaviour — same queries, same coin flips,
same responses — not just equal-looking state.
"""

import json

import numpy as np
import pytest

from repro.core import EsharingPlanner, PlacementService, constant_facility_cost
from repro.core.station_set import StationSet
from repro.energy import Fleet
from repro.geo import Point
from repro.resilience import logical_state
from repro.stats.ks2d import LiveWindow

from .conftest import COST_VALUE, build_service, make_trips


def json_roundtrip(state):
    return json.loads(json.dumps(state, sort_keys=True, allow_nan=False))


class TestStationSetRoundtrip:
    def _populated(self, backend):
        store = StationSet(
            [Point(0, 0), Point(1000, 0), Point(0, 1000), Point(700, 700)],
            backend=backend,
        )
        store.add(Point(300, 250))
        store.remove(1)
        store.remove(3)
        return store

    @pytest.mark.parametrize("backend", ["linear", "grid"])
    def test_queries_identical_after_restore(self, backend):
        original = self._populated(backend)
        restored = StationSet.from_state(json_roundtrip(original.state_dict()))
        assert restored.ids() == original.ids()
        assert restored.locations() == original.locations()
        assert restored.total_assigned == original.total_assigned
        queries = [Point(10, 10), Point(650, 690), Point(999, 1), Point(300, 260)]
        for q in queries:
            assert restored.nearest(q) == original.nearest(q)
            assert restored.within(q, 800.0) == original.within(q, 800.0)
        assert restored.min_spacing() == original.min_spacing()
        assert restored.state_dict() == original.state_dict()

    def test_retired_ids_stay_resolvable(self):
        restored = StationSet.from_state(self._populated("linear").state_dict())
        assert not restored.is_active(1)
        assert restored.location(1) == Point(1000, 0)
        with pytest.raises(KeyError):
            restored.location(99)

    def test_ids_keep_monotone_after_restore(self):
        restored = StationSet.from_state(self._populated("linear").state_dict())
        assert restored.add(Point(1, 1)) == restored.total_assigned - 1
        assert restored.add(Point(2, 2)) == restored.total_assigned - 1

    def test_empty_set_roundtrip(self):
        store = StationSet([Point(5, 5)])
        store.remove(0)
        restored = StationSet.from_state(json_roundtrip(store.state_dict()))
        assert len(restored) == 0
        assert restored.total_assigned == 1
        with pytest.raises(ValueError):
            restored.nearest(Point(0, 0))

    def test_min_spacing_inf_encodes_as_none(self):
        state = StationSet([Point(0, 0)]).state_dict()
        assert state["min_spacing"] is None
        json.dumps(state, allow_nan=False)  # strict-JSON clean


class TestLiveWindowRoundtrip:
    def test_partially_filled(self):
        window = LiveWindow(10)
        for i in range(4):
            window.push(float(i), float(-i))
        restored = LiveWindow.from_state(json_roundtrip(window.state_dict()))
        np.testing.assert_array_equal(restored.array(), window.array())

    def test_wrapped_ring(self):
        window = LiveWindow(5)
        for i in range(13):  # wraps the ring twice
            window.push(float(i), float(i * 2))
        restored = LiveWindow.from_state(json_roundtrip(window.state_dict()))
        np.testing.assert_array_equal(restored.array(), window.array())
        # Continued pushes behave identically.
        window.push(99.0, 98.0)
        restored.push(99.0, 98.0)
        np.testing.assert_array_equal(restored.array(), window.array())


class TestFleetRoundtrip:
    def test_bit_identical_after_rides(self):
        service = build_service(seed=21)
        for trip in make_trips(25, seed=21):
            service.handle_trip(trip.order_id, trip.start, trip.end)
        fleet = service.fleet
        restored = Fleet.from_state(json_roundtrip(fleet.state_dict()))
        assert restored.state_dict() == fleet.state_dict()
        assert restored.stations == fleet.stations
        assert [b.battery.level for b in restored.bikes] == [
            b.battery.level for b in fleet.bikes
        ]


class TestPlannerContinuation:
    def test_restored_planner_makes_identical_decisions(self):
        service = build_service(seed=31)
        planner = service.planner
        stream = [t.end for t in make_trips(80, seed=31)]
        for dest in stream[:40]:
            planner.offer(dest)
        restored = EsharingPlanner.from_state(
            json_roundtrip(planner.state_dict()),
            constant_facility_cost(COST_VALUE),
        )
        for dest in stream[40:]:
            assert restored.offer(dest) == planner.offer(dest)
        a, b = planner.state_dict(), restored.state_dict()
        a["ks_seconds"] = b["ks_seconds"] = 0.0
        assert a == b

    def test_rng_stream_survives_restore(self):
        service = build_service(seed=41)
        planner = service.planner
        restored = EsharingPlanner.from_state(
            json_roundtrip(planner.state_dict()),
            constant_facility_cost(COST_VALUE),
        )
        # The next uniforms drawn by each planner must be the same bits.
        assert planner._rng.uniform() == restored._rng.uniform()
        assert planner._rng.integers(1 << 62) == restored._rng.integers(1 << 62)

    def test_state_without_history_drops_decisions_only(self):
        # "Decisions" here means both per-decision traces: the decision
        # log and the similarity history recorded at each check.
        service = build_service(seed=51)
        planner = service.planner
        for dest in [t.end for t in make_trips(20, seed=51)]:
            planner.offer(dest)
        assert planner.similarity_history
        slim = planner.state_dict(include_history=False)
        assert slim["decisions"] is None
        assert slim["similarity_history"] is None
        restored = EsharingPlanner.from_state(
            json_roundtrip(slim), constant_facility_cost(COST_VALUE)
        )
        assert restored.decisions == []
        assert restored.similarity_history == []
        assert restored.walking == planner.walking
        assert restored.stations == planner.stations
        # Everything a later decision reads survives: same coin flips
        # and the same next decision.
        full = planner.state_dict()
        for key in ("rng", "penalty", "cost_scale", "arrivals_since_check", "live"):
            assert json_roundtrip(slim[key]) == json_roundtrip(full[key])
        probe = Point(1234.5, 678.9)
        assert restored.offer(probe) == planner.offer(probe)


class TestServiceRoundtrip:
    def test_bit_identical_continuation(self):
        trips = make_trips(120, seed=61)
        reference = build_service(seed=61)
        twin = build_service(seed=61)
        for t in trips[:60]:
            reference.handle_trip(t.order_id, t.start, t.end)
            twin.handle_trip(t.order_id, t.start, t.end)
        restored = PlacementService.from_state(
            json_roundtrip(twin.state_dict()),
            constant_facility_cost(COST_VALUE),
        )
        # The state carries no history; its owner (the response ledger,
        # under a CheckpointingService) puts it back.
        assert restored.responses == []
        restored.responses = list(twin.responses)
        for t in trips[60:]:
            reference.handle_trip(t.order_id, t.start, t.end)
            restored.handle_trip(t.order_id, t.start, t.end)
        assert restored.responses == reference.responses
        assert logical_state(restored) == logical_state(reference)
        restored.consistency_check()

    def test_rack_subscription_rewired_on_restore(self):
        """A station opened *after* restore must still grow a fleet rack."""
        service = build_service(seed=71)
        restored = PlacementService.from_state(
            json_roundtrip(service.state_dict()),
            constant_facility_cost(COST_VALUE),
        )
        before = len(restored.fleet.stations)
        new_id = restored.planner.station_set.add(Point(512.0, 1024.0))
        assert len(restored.fleet.stations) == before + 1
        assert restored.fleet.stations[new_id] == Point(512.0, 1024.0)
