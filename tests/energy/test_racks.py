"""Tests for the fleet's per-station racks and the shared pickup query."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EsharingPlanner, PlacementService, StationSet, constant_facility_cost
from repro.core.streaming import pickup_station
from repro.energy import Fleet
from repro.errors import StateDriftError
from repro.geo import Point


def line(n, spacing=1000.0):
    return [Point(i * spacing, 0.0) for i in range(n)]


# ----------------------------------------------------------------------
# brute-force whole-fleet oracles (the pre-rack implementations)
def scan_bikes_at(fleet, station):
    return [b for b in fleet.bikes if b.station == station]


def scan_pick(fleet, station, prefer_low=False):
    bikes = scan_bikes_at(fleet, station)
    if prefer_low:
        bikes = [b for b in bikes if b.battery.level < fleet.threshold]
        if not bikes:
            return None
        return min(bikes, key=lambda b: (b.battery.level, b.bike_id))
    if not bikes:
        return None
    return max(bikes, key=lambda b: (b.battery.level, -b.bike_id))


def scan_low_map(fleet):
    out = {}
    for b in fleet.bikes:
        if b.battery.level < fleet.threshold:
            out.setdefault(b.station, []).append(b.bike_id)
    return {s: sorted(ids) for s, ids in sorted(out.items())}


def assert_matches_scan(fleet):
    fleet.verify_racks()
    assert fleet.low_energy_map() == scan_low_map(fleet)
    assert fleet.stations_needing_service() == sorted(scan_low_map(fleet))
    for s in range(len(fleet.stations)):
        assert fleet.bikes_at(s) == scan_bikes_at(fleet, s)
        assert fleet.pick_bike(s) is scan_pick(fleet, s)
        assert fleet.pick_bike(s, prefer_low=True) is scan_pick(fleet, s, True)
        assert fleet.is_stocked(s) == bool(scan_bikes_at(fleet, s))
        assert fleet.low_bikes_at(s) == scan_low_map(fleet).get(s, [])
        snap = fleet.snapshot(s)
        bikes = scan_bikes_at(fleet, s)
        assert snap.total_bikes == len(bikes)
        assert snap.levels == tuple(b.battery.level for b in bikes)
        assert snap.low_bikes == tuple(
            b.bike_id for b in bikes if b.battery.level < fleet.threshold
        )


# Levels drawn from a small grid so charge ties (and the id tie-break)
# come up often.
LEVELS = st.sampled_from([0.0, 0.05, 0.1, 0.19, 0.2, 0.5, 0.9, 1.0])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ride"), st.integers(0, 11), st.integers(0, 7),
                  st.floats(0.0, 5000.0)),
        st.tuples(st.just("move"), st.integers(0, 11), st.integers(0, 7)),
        st.tuples(st.just("recharge"), st.integers(0, 7)),
        st.tuples(st.just("add_station"), st.floats(-5000.0, 5000.0)),
        st.tuples(st.just("level"), st.integers(0, 11), LEVELS),
        st.tuples(st.just("direct"), st.integers(0, 11)),
    ),
    max_size=40,
)


class TestRacksMatchScan:
    @settings(max_examples=60, deadline=None)
    @given(n_stations=st.integers(1, 4), n_bikes=st.integers(1, 12),
           seed=st.integers(0, 2**16), ops=OPS)
    def test_every_step_matches_whole_fleet_scan(self, n_stations, n_bikes, seed, ops):
        fleet = Fleet(line(n_stations), n_bikes=n_bikes,
                      rng=np.random.default_rng(seed))
        assert_matches_scan(fleet)
        for step, op in enumerate(ops):
            kind, args = op[0], op[1:]
            n_st = len(fleet.stations)
            if kind == "ride":
                bike, station, dist = args
                fleet.ride(bike % n_bikes, station % n_st, dist)
            elif kind == "move":
                bike, station = args
                fleet.move(bike % n_bikes, station % n_st)
            elif kind == "recharge":
                fleet.recharge_station(args[0] % n_st)
            elif kind == "add_station":
                assert fleet.add_station(Point(args[0], 1.0)) == n_st
            elif kind == "level":
                bike, level = args
                fleet.set_level(bike % n_bikes, level)
            else:
                # A level written around Fleet.set_level leaves the
                # rack's charge index stale: verify_racks reports it,
                # and set_level indexes the level again.
                bike, level = args[0] % n_bikes, 0.31415926 + 1e-9 * step
                fleet.bikes[bike].battery.level = level
                with pytest.raises(StateDriftError, match="charge index"):
                    fleet.verify_racks()
                fleet.set_level(bike, level)
            assert_matches_scan(fleet)

    def test_bikes_at_in_ascending_id_order(self):
        fleet = Fleet(line(3), n_bikes=9, rng=np.random.default_rng(0))
        for bike_id in (8, 2, 5, 0):
            fleet.move(bike_id, 1)
        assert [b.bike_id for b in fleet.bikes_at(1)] == [0, 1, 2, 4, 5, 7, 8]

    def test_state_round_trip_rebuilds_identical_racks(self):
        fleet = Fleet(line(4), n_bikes=30, rng=np.random.default_rng(3))
        for i in range(0, 30, 3):
            fleet.ride(i, (i * 7) % 4, 400.0)
        fleet.move(1, 3)
        fleet.add_station(Point(9000.0, 0.0))
        fleet.move(2, 4)
        restored = Fleet.from_state(fleet.state_dict())
        assert restored._racks == fleet._racks
        assert restored.state_dict() == fleet.state_dict()
        assert_matches_scan(restored)


class TestSingleWriter:
    def test_station_is_read_only(self):
        fleet = Fleet(line(2), n_bikes=2)
        with pytest.raises(AttributeError):
            fleet.bikes[0].station = 1
        assert fleet.bikes[0].station == 0

    def test_bikes_cannot_be_cleared_behind_the_racks(self):
        fleet = Fleet(line(2), n_bikes=2)
        with pytest.raises(AttributeError):
            fleet.bikes.clear()

    def test_move_does_not_drain(self):
        fleet = Fleet(line(2), n_bikes=2, rng=np.random.default_rng(0))
        level = fleet.bikes[0].battery.level
        rng_state = fleet.state_dict()["rng"]
        fleet.move(0, 1)
        assert fleet.bikes[0].station == 1
        assert fleet.bikes[0].battery.level == level
        assert fleet.state_dict()["rng"] == rng_state

    def test_move_validates(self):
        fleet = Fleet(line(2), n_bikes=2)
        with pytest.raises(KeyError):
            fleet.move(5, 0)
        with pytest.raises(ValueError):
            fleet.move(0, 2)

    def test_verify_racks_flags_drift(self):
        fleet = Fleet(line(2), n_bikes=4)
        fleet._racks[0].discard(0)
        with pytest.raises(StateDriftError):
            fleet.verify_racks()

    def test_set_level_validates_and_reindexes(self):
        fleet = Fleet(line(2), n_bikes=4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            fleet.set_level(0, 1.5)
        with pytest.raises(KeyError):
            fleet.set_level(9, 0.5)
        fleet.set_level(0, 0.0)
        fleet.set_level(2, 1.0)
        assert fleet.pick_bike(0) is fleet.bikes[2]
        fleet.verify_racks()

    def test_direct_level_write_is_drift(self):
        fleet = Fleet(line(2), n_bikes=4, rng=np.random.default_rng(0))
        fleet.bikes[1].battery.level = 0.123
        with pytest.raises(StateDriftError, match="bike 1"):
            fleet.verify_racks()


class TestFromStateValidation:
    def state(self):
        return Fleet(line(3), n_bikes=4, rng=np.random.default_rng(0)).state_dict()

    def test_bike_ids_out_of_order_rejected(self):
        state = self.state()
        state["bikes"][0], state["bikes"][1] = state["bikes"][1], state["bikes"][0]
        with pytest.raises(ValueError, match="0..n-1"):
            Fleet.from_state(state)

    def test_bike_ids_with_gap_rejected(self):
        state = self.state()
        state["bikes"][3]["bike_id"] = 7
        with pytest.raises(ValueError, match="0..n-1"):
            Fleet.from_state(state)

    def test_station_out_of_range_rejected(self):
        state = self.state()
        state["bikes"][2]["station"] = 3
        with pytest.raises(ValueError, match="out of range"):
            Fleet.from_state(state)
        state["bikes"][2]["station"] = -1
        with pytest.raises(ValueError, match="out of range"):
            Fleet.from_state(state)


# ----------------------------------------------------------------------
def within_scan_pickup(stations, fleet, origin, radius):
    """The simulator's former pickup: first stocked hit of a radius scan."""
    for sid, _ in stations.within(origin, radius):
        if fleet.pick_bike(sid) is not None:
            return sid
    return None


class TestPickupQuery:
    @pytest.mark.parametrize("backend", ["linear", "grid"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_radius_scan(self, backend, seed):
        rng = np.random.default_rng(seed)
        # Integer coordinates on a coarse lattice make distance ties common.
        points = [Point(float(x), float(y))
                  for x, y in rng.integers(0, 8, size=(25, 2)) * 250]
        stations = StationSet(points, backend=backend)
        for sid in rng.choice(25, size=5, replace=False):
            stations.remove(int(sid))
        fleet = Fleet(points, n_bikes=12, rng=rng)
        for bike in range(12):
            fleet.move(bike, int(rng.integers(0, 25)))
        for _ in range(40):
            origin = Point(*rng.uniform(-500, 2500, size=2))
            for radius in (0.0, 300.0, 800.0, 5000.0):
                assert pickup_station(stations, fleet, origin, radius) == (
                    within_scan_pickup(stations, fleet, origin, radius)
                )
            # 5 km covers the whole layout, so it agrees with no radius.
            assert pickup_station(stations, fleet, origin) == (
                within_scan_pickup(stations, fleet, origin, 5000.0)
            )

    def test_none_when_nothing_stocked(self):
        fleet = Fleet(line(2), n_bikes=1)
        fleet.move(0, 1)
        stations = StationSet(line(2))
        stations.remove(1)
        assert pickup_station(stations, fleet, Point(0, 0)) is None


class Tripwire:
    """A battery that fails the test if anything reads its charge."""

    @property
    def level(self):
        raise RuntimeError("pickup read the battery of a bike at another station")


class TestPickupDoesNotScanTheFleet:
    def test_far_bikes_never_read(self):
        anchors = [Point(0, 0), Point(1000, 0), Point(50_000, 0)]
        rng = np.random.default_rng(0)
        historical = np.concatenate(
            [np.asarray([(a.x, a.y) for a in anchors[:2]])] * 40
        ) + rng.normal(0, 50, size=(80, 2))
        planner = EsharingPlanner(
            anchors, constant_facility_cost(10_000.0), historical,
            np.random.default_rng(1),
        )
        state = Fleet(planner.stations, n_bikes=3,
                      rng=np.random.default_rng(2)).state_dict()
        config = state["bikes"][0]["config"]
        extra = 10_000
        state["bikes"] += [
            {"bike_id": 3 + i, "station": 2, "level": 0.5, "config": config}
            for i in range(extra)
        ]
        fleet = Fleet.from_state(state)
        for bike in fleet.bikes[3:]:
            bike.battery = Tripwire()
        service = PlacementService(planner, fleet)
        near_bike = fleet.bikes_at(0)[0]
        response = service.handle_trip(0, Point(10, 10), Point(990, 10))
        assert response.served
        assert response.origin_station == 0
        assert near_bike.station == response.destination_station
        assert len(fleet.bikes_at(2)) == extra + 1
