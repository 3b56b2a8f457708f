"""Tests for repro.sim.policies and the operator-policy integration."""

import numpy as np
import pytest

from repro.energy import Fleet
from repro.geo import Point
from repro.incentives import ChargingCostParams
from repro.sim import (
    BudgetCoveragePolicy,
    ChargingOperator,
    OperatorConfig,
    ThresholdPolicy,
    TopDensityPolicy,
)


def locations(n=6, spacing=1000.0):
    return [Point(i * spacing, 0.0) for i in range(n)]


@pytest.fixture
def low_map():
    return {0: [1, 2, 3], 2: [4], 4: [5, 6], 5: [7, 8, 9, 10]}


class TestThresholdPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(min_bikes=0)

    def test_threshold_one_takes_all(self, low_map):
        assert ThresholdPolicy(1).select(low_map, locations()) == [0, 2, 4, 5]

    def test_threshold_filters_sparse(self, low_map):
        assert ThresholdPolicy(2).select(low_map, locations()) == [0, 4, 5]
        assert ThresholdPolicy(4).select(low_map, locations()) == [5]


class TestTopDensityPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopDensityPolicy(max_sites=0)

    def test_picks_densest(self, low_map):
        assert TopDensityPolicy(2).select(low_map, locations()) == [0, 5]

    def test_more_sites_than_demand(self, low_map):
        assert TopDensityPolicy(99).select(low_map, locations()) == [0, 2, 4, 5]

    def test_tie_broken_by_station_id(self):
        low_map = {3: [1], 1: [2]}
        assert TopDensityPolicy(1).select(low_map, locations()) == [1]


class TestBudgetCoveragePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetCoveragePolicy(budget_hours=0)
        with pytest.raises(ValueError):
            BudgetCoveragePolicy(travel_speed_kmh=0)
        with pytest.raises(ValueError):
            BudgetCoveragePolicy(service_time_h=-1)

    def test_tight_budget_takes_densest_first(self, low_map):
        policy = BudgetCoveragePolicy(
            budget_hours=0.3, travel_speed_kmh=12.0, service_time_h=0.25
        )
        # One service slot fits; the densest site (5) wins.
        assert policy.select(low_map, locations()) == [5]

    def test_generous_budget_takes_everything(self, low_map):
        policy = BudgetCoveragePolicy(budget_hours=100.0)
        assert policy.select(low_map, locations()) == [0, 2, 4, 5]

    def test_travel_charged_against_budget(self):
        # Two sites 1 km apart and a third 50 km away: the far site's
        # travel cost excludes it under a tight budget.
        locs = [Point(0, 0), Point(1000, 0), Point(50_000, 0)]
        low_map = {0: [1, 2], 1: [3, 4], 2: [5, 6, 7]}
        policy = BudgetCoveragePolicy(
            budget_hours=1.0, travel_speed_kmh=10.0, service_time_h=0.25
        )
        selected = policy.select(low_map, locs)
        assert 2 not in selected or selected == [2]


class TestOperatorIntegration:
    def make_fleet(self, per_station):
        n = len(per_station)
        f = Fleet(locations(n), n_bikes=sum(per_station) + n,
                  rng=np.random.default_rng(0))
        for b in f.bikes:
            f.set_level(b.bike_id, 0.9)
        i = 0
        for st, count in enumerate(per_station):
            placed = 0
            for b in f.bikes:
                if placed >= count:
                    break
                if b.battery.level > 0.5:
                    f.move(b.bike_id, st)
                    f.set_level(b.bike_id, 0.1)
                    placed += 1
        return f

    def test_policy_overrides_threshold(self):
        fleet = self.make_fleet([3, 1, 2, 1, 4, 0])
        op = ChargingOperator(
            ChargingCostParams(),
            OperatorConfig(working_hours=100.0),
            policy=TopDensityPolicy(max_sites=2),
        )
        report = op.service_period(fleet)
        assert report.stations_served == 2
        assert sorted(report.served_stations) == [0, 4]

    def test_no_policy_keeps_threshold_semantics(self):
        fleet = self.make_fleet([3, 1, 2])
        op = ChargingOperator(
            ChargingCostParams(),
            OperatorConfig(working_hours=100.0, min_bikes_to_visit=2),
        )
        report = op.service_period(fleet)
        assert sorted(report.served_stations) == [0, 2]

    def test_density_policy_charges_more_per_stop(self):
        """Under the same number of stops, density triage charges more
        bikes than naive threshold order would on sparse sites."""
        fleet_a = self.make_fleet([1, 1, 1, 5, 5, 1])
        fleet_b = self.make_fleet([1, 1, 1, 5, 5, 1])
        stops = 2
        dense = ChargingOperator(
            ChargingCostParams(), OperatorConfig(working_hours=100.0),
            policy=TopDensityPolicy(max_sites=stops),
        ).service_period(fleet_a)
        sparse_sites = ThresholdPolicy(1).select(
            fleet_b.low_energy_map(), fleet_b.stations
        )[:stops]

        class FixedPolicy:
            def select(self, low_map, locs):
                return sparse_sites

        sparse = ChargingOperator(
            ChargingCostParams(), OperatorConfig(working_hours=100.0),
            policy=FixedPolicy(),
        ).service_period(fleet_b)
        assert dense.bikes_charged > sparse.bikes_charged
