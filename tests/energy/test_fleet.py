"""Tests for repro.energy.fleet."""

from datetime import datetime

import numpy as np
import pytest

from repro.datasets import TripRecord
from repro.energy import Battery, BatteryConfig, Fleet, replay_trips_onto_fleet
from repro.geo import Point


def stations(n=4, spacing=1000.0):
    return [Point(i * spacing, 0.0) for i in range(n)]


@pytest.fixture
def fleet():
    return Fleet(stations(), n_bikes=40, rng=np.random.default_rng(0))


class TestFleetConstruction:
    def test_needs_stations(self):
        with pytest.raises(ValueError):
            Fleet([], n_bikes=10)

    def test_needs_bikes(self):
        with pytest.raises(ValueError):
            Fleet(stations(), n_bikes=0)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            Fleet(stations(), n_bikes=5, threshold=0.0)

    def test_bikes_distributed_round_robin(self, fleet):
        per_station = [len(fleet.bikes_at(s)) for s in range(4)]
        assert per_station == [10, 10, 10, 10]

    def test_initial_levels_mostly_high_with_tail(self):
        # The Fig. 2(d) shape: majority high charge, non-empty low tail.
        f = Fleet(stations(), n_bikes=2000, rng=np.random.default_rng(1))
        levels = f.charge_levels()
        assert np.mean(levels > 0.5) > 0.7
        assert 0 < np.mean(levels < 0.2) < 0.2


class TestFleetOperations:
    def test_ride_moves_and_drains(self, fleet):
        bike = fleet.bikes_at(0)[0]
        before = bike.battery.level
        fleet.ride(bike.bike_id, to_station=2, distance_m=3000.0)
        assert bike.station == 2
        assert bike.battery.level < before

    def test_ride_unknown_bike_raises(self, fleet):
        with pytest.raises(KeyError):
            fleet.ride(999, to_station=0, distance_m=100.0)

    def test_ride_invalid_station_raises(self, fleet):
        with pytest.raises(ValueError):
            fleet.ride(0, to_station=9, distance_m=100.0)

    def test_low_energy_map_matches_threshold(self, fleet):
        mapping = fleet.low_energy_map()
        for station, ids in mapping.items():
            for bike_id in ids:
                assert fleet.bikes[bike_id].battery.level < fleet.threshold
                assert fleet.bikes[bike_id].station == station

    def test_low_energy_count_consistent(self, fleet):
        mapping = fleet.low_energy_map()
        assert fleet.low_energy_count() == sum(len(v) for v in mapping.values())

    def test_stations_needing_service(self, fleet):
        needing = fleet.stations_needing_service()
        assert needing == sorted(fleet.low_energy_map())

    def test_snapshot_consistency(self, fleet):
        snap = fleet.snapshot(1)
        assert snap.station == 1
        assert snap.total_bikes == len(fleet.bikes_at(1))
        assert len(snap.levels) == snap.total_bikes
        assert all(fleet.bikes[b].station == 1 for b in snap.low_bikes)

    def test_snapshots_cover_all_stations(self, fleet):
        snaps = fleet.snapshots()
        assert [s.station for s in snaps] == [0, 1, 2, 3]
        assert sum(s.total_bikes for s in snaps) == len(fleet)

    def test_pick_bike_prefers_high_charge(self, fleet):
        bike = fleet.pick_bike(0)
        assert bike is not None
        best = max(b.battery.level for b in fleet.bikes_at(0))
        assert bike.battery.level == best

    def test_pick_bike_prefer_low(self):
        f = Fleet(stations(1), n_bikes=3, rng=np.random.default_rng(2))
        f.set_level(0, 0.9)
        f.set_level(1, 0.10)
        f.set_level(2, 0.05)
        bike = f.pick_bike(0, prefer_low=True)
        assert bike.bike_id == 2

    def test_pick_bike_prefer_low_none_when_all_high(self):
        f = Fleet(stations(1), n_bikes=2, rng=np.random.default_rng(3))
        for b in f.bikes:
            f.set_level(b.bike_id, 0.9)
        assert f.pick_bike(0, prefer_low=True) is None

    def test_pick_bike_empty_station(self):
        f = Fleet(stations(2), n_bikes=1, rng=np.random.default_rng(4))
        # The single bike sits at station 0; station 1 is empty.
        assert f.pick_bike(1) is None

    def test_recharge_station_clears_low(self, fleet):
        target = None
        for s, ids in fleet.low_energy_map().items():
            if ids:
                target = s
                break
        if target is None:
            pytest.skip("seed produced no low bikes")
        n = fleet.recharge_station(target)
        assert n > 0
        assert target not in fleet.low_energy_map()


class TestReplay:
    def test_replay_executes_trips(self, fleet):
        trips = [
            TripRecord(
                order_id=i,
                user_id=i,
                bike_id=0,
                bike_type=1,
                start_time=datetime(2017, 5, 10, 8, i),
                start=Point(0.0, 0.0),
                end=Point(2000.0, 0.0),
            )
            for i in range(3)
        ]

        def station_of(p):
            return 0 if p.x < 1000 else 2

        executed = replay_trips_onto_fleet(fleet, station_of, trips)
        assert executed == 3
        assert len(fleet.bikes_at(2)) == 10 + 3

    def test_replay_skips_empty_origin(self):
        f = Fleet(stations(2), n_bikes=1, rng=np.random.default_rng(5))
        trip = TripRecord(
            order_id=0, user_id=0, bike_id=0, bike_type=1,
            start_time=datetime(2017, 5, 10, 8, 0),
            start=Point(1000.0, 0.0), end=Point(0.0, 0.0),
        )
        executed = replay_trips_onto_fleet(f, lambda p: 1 if p.x > 500 else 0, [trip])
        assert executed == 0


def _state_per_bike(fleet):
    """The checkpoint payload built with one ``asdict`` per bike: the
    form ``Fleet.state_dict`` must keep producing."""
    from dataclasses import asdict

    from repro.serialize import rng_to_state

    return {
        "stations": [[p.x, p.y] for p in fleet.stations],
        "threshold": fleet.threshold,
        "rng": rng_to_state(fleet._rng),
        "bikes": [
            {
                "bike_id": b.bike_id,
                "station": b.station,
                "level": b.battery.level,
                "config": asdict(b.battery.config),
            }
            for b in fleet.bikes
        ],
    }


def _mixed(fleet):
    """``fleet`` rebuilt with every third bike on a second battery model."""
    state = fleet.state_dict()
    other = {"capacity_wh": 500.0, "wh_per_km": 11.0,
             "consumption_noise": 0.1, "idle_drain_per_day": 0.01}
    for b in state["bikes"][::3]:
        b["config"] = dict(other)
    return Fleet.from_state(state)


class TestStatePayload:
    def test_matches_per_bike_asdict_form(self, fleet):
        mixed = _mixed(fleet)
        assert len({b.battery.config for b in mixed.bikes}) == 2
        assert mixed.state_dict() == _state_per_bike(mixed)
        assert fleet.state_dict() == _state_per_bike(fleet)

    def test_no_two_bikes_share_a_config_dict(self, fleet):
        bikes = _mixed(fleet).state_dict()["bikes"]
        assert len({id(b["config"]) for b in bikes}) == len(bikes)
        bikes[0]["config"]["capacity_wh"] = 1.0
        assert all(b["config"]["capacity_wh"] != 1.0 for b in bikes[1:])

    def test_snapshot_bytes_unchanged(self, tmp_path, monkeypatch):
        from repro.core.streaming import PlacementService
        from repro.gauntlet import city
        from repro.resilience.service import CheckpointingService, constant_cost_spec
        from repro.resilience.snapshot import encode_snapshot

        base = city.service(0)
        service = PlacementService(base.planner, _mixed(base.fleet))
        wrapped = CheckpointingService(
            service, tmp_path, checkpoint_every=10_000, durable=False,
            facility_cost_spec=constant_cost_spec(city.COST_VALUE),
        )
        wrapped.serve(city.trips(300, 0))
        written = wrapped.checkpoint().read_bytes()
        monkeypatch.setattr(Fleet, "state_dict", _state_per_bike)
        payload = {
            "service": service.state_dict(),
            "applied": wrapped.applied_seq,
            "facility_cost_spec": wrapped.facility_cost_spec,
            "journal": wrapped.journal.link(wrapped.applied_seq),
        }
        wrapped.close()
        assert written == encode_snapshot(payload)
