"""Tests for repro.sim.operator (the charging tour)."""

import numpy as np
import pytest

from repro.energy import Fleet
from repro.geo import Point
from repro.incentives import ChargingCostParams
from repro.sim import ChargingOperator, OperatorConfig


def line_stations(n=5, spacing=500.0):
    return [Point(i * spacing, 0.0) for i in range(n)]


def fleet_with_low_bikes(low_per_station, spacing=500.0, seed=0):
    """A fleet with a prescribed number of low bikes at each station."""
    n_stations = len(low_per_station)
    n_bikes = max(sum(low_per_station) + n_stations * 2, n_stations)
    f = Fleet(line_stations(n_stations, spacing), n_bikes=n_bikes,
              rng=np.random.default_rng(seed))
    for b in f.bikes:
        f.set_level(b.bike_id, 0.9)
    i = 0
    for station, count in enumerate(low_per_station):
        placed = 0
        for b in f.bikes:
            if placed >= count:
                break
            if b.battery.level > 0.5:
                f.move(b.bike_id, station)
                f.set_level(b.bike_id, 0.1)
                placed += 1
        i += count
    return f


class TestOperatorConfig:
    def test_defaults_valid(self):
        OperatorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"working_hours": 0},
            {"travel_speed_kmh": 0},
            {"service_time_h": -1},
            {"min_bikes_to_visit": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OperatorConfig(**kwargs)


class TestServicePeriod:
    def test_nothing_to_do(self):
        f = fleet_with_low_bikes([0, 0, 0])
        op = ChargingOperator(ChargingCostParams())
        report = op.service_period(f)
        assert report.stations_served == 0
        assert report.total_cost == 0.0
        assert report.percent_charged == 100.0

    def test_serves_all_with_generous_shift(self):
        f = fleet_with_low_bikes([2, 0, 3, 0, 1])
        op = ChargingOperator(
            ChargingCostParams(), OperatorConfig(working_hours=100.0)
        )
        report = op.service_period(f)
        assert report.stations_served == 3
        assert report.bikes_charged == 6
        assert report.percent_charged == 100.0
        assert f.low_energy_count() == 0

    def test_cost_breakdown_matches_eq10(self):
        f = fleet_with_low_bikes([2, 0, 3])
        params = ChargingCostParams(service_cost=5.0, delay_cost=4.0, energy_cost=2.0)
        op = ChargingOperator(params, OperatorConfig(working_hours=100.0))
        report = op.service_period(f)
        n = report.stations_served
        assert n == 2
        assert report.service_cost == pytest.approx(n * 5.0)
        assert report.delay_cost == pytest.approx((n * n - n) / 2 * 4.0)
        assert report.energy_cost == pytest.approx(5 * 2.0)
        assert report.total_cost == pytest.approx(
            report.service_cost + report.delay_cost + report.energy_cost
        )

    def test_time_budget_limits_in_shift_coverage(self):
        # 6 stations, each needing service; the tour is the operator's
        # full responsibility (all served, full Eq. 10 cost) but only a
        # prefix fits in the 2 h shift, capping percent_charged.
        f = fleet_with_low_bikes([1, 1, 1, 1, 1, 1], spacing=2000.0)
        op = ChargingOperator(
            ChargingCostParams(),
            OperatorConfig(working_hours=2.0, travel_speed_kmh=10.0, service_time_h=0.5),
        )
        report = op.service_period(f)
        assert report.stations_served == 6
        assert report.bikes_charged == 6
        assert 0 < report.bikes_charged_in_shift < 6
        assert 0.0 < report.percent_charged < 100.0
        assert f.low_energy_count() == 0

    def test_skip_threshold_defers_sparse_stations(self):
        f = fleet_with_low_bikes([1, 4, 1])
        op = ChargingOperator(
            ChargingCostParams(),
            OperatorConfig(working_hours=100.0, min_bikes_to_visit=2),
        )
        report = op.service_period(f)
        assert report.served_stations == [1]
        assert report.bikes_charged == 4
        assert report.stations_needing_service == 3

    def test_moving_distance_accumulates(self):
        f = fleet_with_low_bikes([1, 0, 1, 0, 1], spacing=1000.0)
        op = ChargingOperator(ChargingCostParams(), OperatorConfig(working_hours=100.0))
        report = op.service_period(f)
        # Stations 0, 2, 4 on a line: optimal open tour is 4 km.
        assert report.moving_distance_km == pytest.approx(4.0)

    def test_incentives_folded_into_total(self):
        f = fleet_with_low_bikes([1])
        op = ChargingOperator(ChargingCostParams(), OperatorConfig(working_hours=10.0))
        report = op.service_period(f, incentives_paid=42.0)
        assert report.incentives_paid == 42.0
        assert report.total_cost == pytest.approx(
            report.service_cost + report.energy_cost + 42.0
        )

    def test_aggregated_fleet_cheaper_than_scattered(self):
        """The Tier-2 economics: same bikes, fewer sites => lower cost."""
        params = ChargingCostParams()
        cfg = OperatorConfig(working_hours=100.0)
        scattered = fleet_with_low_bikes([1, 1, 1, 1, 1, 1])
        aggregated = fleet_with_low_bikes([6, 0, 0, 0, 0, 0])
        cost_scattered = ChargingOperator(params, cfg).service_period(scattered).total_cost
        cost_aggregated = ChargingOperator(params, cfg).service_period(aggregated).total_cost
        assert cost_aggregated < cost_scattered

    def test_report_summary_format(self):
        f = fleet_with_low_bikes([2])
        op = ChargingOperator(ChargingCostParams(), OperatorConfig(working_hours=10.0))
        text = op.service_period(f).summary()
        assert "total=" in text and "charged=" in text
