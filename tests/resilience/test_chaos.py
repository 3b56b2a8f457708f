"""Tests for the fault-injection harness itself."""

import numpy as np
import pytest

from repro.core import EsharingConfig, EsharingPlanner, constant_facility_cost
from repro.energy import Fleet
from repro.geo import Point
from repro.resilience import (
    ChaosConfig,
    FaultFS,
    FaultFSConfig,
    FaultInjector,
    InjectedCrash,
    SnapshotError,
    SnapshotStore,
    simulate_period_crash,
)
from repro.resilience.chaos import crashing_stream
from repro.sim import SystemSimulator

from .conftest import COST_VALUE, make_trips


class TestChaosConfig:
    def test_defaults_are_quiet(self):
        config = ChaosConfig()
        assert config.p_drop == config.p_duplicate == config.p_swap == 0.0

    @pytest.mark.parametrize(
        "field", ["p_duplicate", "p_drop", "p_swap"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_validated(self, field, value):
        with pytest.raises(ValueError):
            ChaosConfig(**{field: value})


class TestCrashingStream:
    def test_crashes_after_n(self):
        trips = make_trips(10, seed=1)
        seen = []
        with pytest.raises(InjectedCrash):
            for t in crashing_stream(trips, crash_after=4):
                seen.append(t)
        assert seen == trips[:4]

    def test_crashes_even_at_stream_end(self):
        with pytest.raises(InjectedCrash):
            list(crashing_stream(make_trips(3, seed=1), crash_after=99))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(crashing_stream([], crash_after=-1))


class TestMutateTrips:
    def test_deterministic_per_seed(self):
        trips = make_trips(60, seed=2)
        config = ChaosConfig(seed=5, p_duplicate=0.2, p_drop=0.2, p_swap=0.2)
        a = FaultInjector(config).mutate_trips(trips)
        b = FaultInjector(config).mutate_trips(trips)
        assert a == b
        c = FaultInjector(ChaosConfig(seed=6, p_duplicate=0.2, p_drop=0.2,
                                      p_swap=0.2)).mutate_trips(trips)
        assert a != c

    def test_zero_rates_are_identity(self):
        trips = make_trips(20, seed=3)
        assert FaultInjector().mutate_trips(trips) == trips

    def test_duplicate_rate_one_doubles(self):
        trips = make_trips(15, seed=4)
        out = FaultInjector(ChaosConfig(p_duplicate=1.0)).mutate_trips(trips)
        assert len(out) == 2 * len(trips)
        assert out[0] == out[1] == trips[0]

    def test_drop_rate_one_empties(self):
        trips = make_trips(15, seed=4)
        assert FaultInjector(ChaosConfig(p_drop=1.0)).mutate_trips(trips) == []


class TestTornWrites:
    def test_torn_write_fails_checksum(self, tmp_path):
        store = SnapshotStore(tmp_path, durable=False)
        path = store.save({"state": list(range(100))}, seq=1)
        FaultInjector.corrupt_file(path, mode="truncate")  # torn at rest
        with pytest.raises(SnapshotError):
            store.load_latest()

    def test_zero_rate_delegates_to_atomic_writer(self, tmp_path):
        fs = FaultFS(FaultFSConfig(seed=0, p_torn=0.0))
        store = SnapshotStore(tmp_path, durable=False)
        with fs.inject():
            store.save({"ok": True}, seq=1)
        assert fs.counters.writes == 1 and fs.counters.faults == 0
        assert store.load_latest().payload == {"ok": True}

    def test_torn_newest_falls_back_to_good(self, tmp_path):
        store = SnapshotStore(tmp_path, durable=False)
        store.save({"gen": 1}, seq=1)
        fs = FaultFS(FaultFSConfig(seed=0, p_torn=1.0))
        with fs.inject(), pytest.raises(OSError):
            store.save({"gen": 2}, seq=2)  # torn mid-write: never renamed
        assert fs.counters.torn == 1
        assert store.load_latest().payload == {"gen": 1}
        torn = store.save({"gen": 3}, seq=3)
        FaultInjector.corrupt_file(torn, mode="truncate")  # torn at rest
        assert store.load_latest().payload == {"gen": 1}

    def test_corrupt_file_modes(self, tmp_path):
        victim = tmp_path / "f.bin"
        victim.write_bytes(b"0123456789")
        FaultInjector.corrupt_file(victim, mode="truncate")
        assert victim.read_bytes() == b"01234"
        victim.write_bytes(b"0123456789")
        FaultInjector.corrupt_file(victim, mode="flip")
        data = victim.read_bytes()
        assert len(data) == 10 and data != b"0123456789"
        with pytest.raises(ValueError):
            FaultInjector.corrupt_file(victim, mode="nope")
        victim.write_bytes(b"")
        with pytest.raises(ValueError):
            FaultInjector.corrupt_file(victim)


class TestSimulatePeriodCrash:
    def _build(self, seed):
        rng = np.random.default_rng(seed + 100)
        anchors = [
            Point(float(x), float(y)) for x in (0, 1000, 2000) for y in (0, 1000, 2000)
        ]
        historical = rng.uniform(0.0, 2000.0, size=(200, 2))
        planner = EsharingPlanner(
            anchors,
            constant_facility_cost(COST_VALUE),
            historical,
            np.random.default_rng(seed + 1),
            EsharingConfig(beta=1.0),
        )
        fleet = Fleet(
            planner.stations, n_bikes=60, rng=np.random.default_rng(seed + 2)
        )
        return planner, fleet

    def test_recovered_period_is_consistent(self):
        planner, fleet = self._build(seed=9)
        injector = FaultInjector(
            ChaosConfig(seed=9, p_duplicate=0.1, p_drop=0.1, p_swap=0.1)
        )
        trips = injector.mutate_trips(make_trips(120, seed=9))
        simulator, report = simulate_period_crash(
            lambda p, f: SystemSimulator(p, f, rng=np.random.default_rng(99)),
            planner,
            fleet,
            constant_facility_cost(COST_VALUE),
            trips,
            crash_after=len(trips) // 2,
        )
        # The re-run period saw the whole stream, crash notwithstanding,
        # and the recovered simulator's invariants hold.
        assert report.trips_requested == len(trips)
        simulator.consistency_check()
