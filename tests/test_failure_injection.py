"""Failure injection: degenerate states the system must survive.

Dead fleets, coincident anchors, constant series, zero capacities,
all-zero demand — states a long-running deployment will eventually hit.
The system should degrade gracefully (empty results, explicit errors),
never crash with an unrelated exception or corrupt its accounting.
"""

from datetime import datetime

import numpy as np
import pytest

from repro.core import (
    DemandPoint,
    EsharingConfig,
    EsharingPlanner,
    assign_with_capacity,
    constant_facility_cost,
    esharing_placement,
    meyerson_placement,
    offline_placement,
)
from repro.datasets import TripRecord
from repro.energy import Battery, BatteryConfig, Fleet
from repro.forecast import LstmConfig, LstmForecaster, MovingAverage
from repro.geo import Point
from repro.incentives import ChargingCostParams, IncentiveMechanism, UserPopulation
from repro.sim import ChargingOperator, OperatorConfig
from repro.stats import ks2d_fast


class TestDegenerateGeometry:
    def test_all_requests_at_one_point(self):
        stream = [Point(5.0, 5.0)] * 50
        res = meyerson_placement(
            stream, constant_facility_cost(100.0), np.random.default_rng(0)
        )
        assert res.n_stations == 1
        assert res.walking == 0.0

    def test_offline_with_identical_demands(self):
        demands = [DemandPoint(Point(1, 1), weight=3.0)] * 10
        res = offline_placement(demands, constant_facility_cost(50.0))
        assert res.n_stations == 1
        assert res.walking == 0.0

    def test_esharing_with_coincident_anchors(self):
        """All anchors on one point: w* = 0 must not divide-by-zero."""
        anchors = [Point(0, 0), Point(0, 0), Point(0, 0)]
        historical = np.zeros((20, 2))
        stream = [Point(float(i * 10), 0.0) for i in range(30)]
        res = esharing_placement(
            stream, anchors, constant_facility_cost(1000.0), historical,
            np.random.default_rng(1),
        )
        assert len(res.assignment) == 30
        assert np.isfinite(res.total)

    def test_esharing_single_anchor(self):
        res = esharing_placement(
            [Point(100, 100)], [Point(0, 0)], constant_facility_cost(1000.0),
            np.zeros((5, 2)), np.random.default_rng(2),
        )
        assert res.n_stations >= 1


class TestDeadFleet:
    def test_operator_on_fully_dead_fleet(self):
        fleet = Fleet([Point(0, 0), Point(1000, 0)], n_bikes=10,
                      rng=np.random.default_rng(0))
        for b in fleet.bikes:
            fleet.set_level(b.bike_id, 0.01)
        report = ChargingOperator(
            ChargingCostParams(), OperatorConfig(working_hours=100.0)
        ).service_period(fleet)
        assert report.bikes_charged == 10
        assert fleet.low_energy_count() == 0

    def test_incentives_on_fully_dead_fleet(self):
        """Every bike too dead to relocate: offers must be refused, not
        crash, and no money paid."""
        fleet = Fleet([Point(0, 0), Point(500, 0), Point(1000, 0)], n_bikes=9,
                      rng=np.random.default_rng(1))
        for b in fleet.bikes:
            fleet.set_level(b.bike_id, 0.001)
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(),
            population=UserPopulation(walk_mean=1e6, reward_mean=0.0),
            rng=np.random.default_rng(2),
        )
        out = mech.offer_ride(0, 2, fleet.stations[2])
        assert not out.accepted
        assert mech.total_incentives_paid == 0.0

    def test_battery_cannot_go_negative_through_abuse(self):
        b = Battery(BatteryConfig(), level=0.001)
        for _ in range(50):
            b.ride(100_000.0)
            b.idle(10.0)
        assert b.level == 0.0


class TestDegenerateData:
    def test_ks_on_constant_samples(self):
        a = np.ones((50, 2))
        b = np.ones((50, 2))
        res = ks2d_fast(a, b)
        assert res.statistic == pytest.approx(0.0)

    def test_ks_on_disjoint_constant_samples(self):
        a = np.zeros((50, 2))
        b = np.ones((50, 2))
        assert ks2d_fast(a, b).statistic == pytest.approx(1.0)

    def test_lstm_on_constant_series(self):
        """std = 0 must not divide by zero; forecasts return the constant."""
        model = LstmForecaster(
            LstmConfig(lookback=6, hidden_size=8, n_layers=1, epochs=3, seed=0)
        )
        series = np.full(60, 42.0)
        model.fit(series)
        out = model.forecast(series, 3)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 42.0, atol=5.0)

    def test_ma_on_single_point_history(self):
        assert MovingAverage(window=5).forecast(np.array([7.0]), 2).tolist() == [7.0, 7.0]


class TestZeroCapacity:
    def test_all_zero_capacities(self):
        demands = [DemandPoint(Point(0, 0)), DemandPoint(Point(5, 5))]
        out = assign_with_capacity(demands, [Point(0, 0)], [0.0])
        assert out.unassigned == [0, 1]
        assert out.walking == 0.0
        assert not out.is_feasible


class TestPlannerAbuse:
    def test_remove_all_but_one_station_then_serve(self):
        anchors = [Point(0, 0), Point(500, 0), Point(1000, 0)]
        planner = EsharingPlanner(
            anchors, constant_facility_cost(1000.0), np.zeros((10, 2)),
            np.random.default_rng(3), EsharingConfig(),
        )
        planner.remove_station(2)
        planner.remove_station(1)
        decision = planner.offer(Point(100, 100))
        # Stable ids: the decision references an active station whose id
        # survives the removals (ids are never re-packed).
        assert decision.station_index in planner.station_set
        assert (
            planner.station_set.location(decision.station_index)
            in planner.stations
        )

    def test_zero_facility_cost_everywhere(self):
        """Free parking: everything opens, nothing breaks."""
        stream = [Point(float(i), float(i)) for i in range(20)]
        res = esharing_placement(
            stream, [Point(-100, -100)], constant_facility_cost(0.0),
            np.zeros((5, 2)), np.random.default_rng(4),
        )
        assert res.space == 0.0
        assert np.isfinite(res.total)
