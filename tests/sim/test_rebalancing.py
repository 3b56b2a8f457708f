"""Tests for repro.sim.rebalancing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import Fleet
from repro.geo import Point
from repro.sim import rebalance_fleet, target_distribution


def stations(n=5, spacing=1000.0):
    return [Point(i * spacing, 0.0) for i in range(n)]


def skewed_fleet(per_station, seed=0):
    f = Fleet(stations(len(per_station)), n_bikes=sum(per_station),
              rng=np.random.default_rng(seed))
    i = 0
    for st, count in enumerate(per_station):
        for _ in range(count):
            f.move(i, st)
            i += 1
    return f


def counts(fleet):
    out = [0] * len(fleet.stations)
    for b in fleet.bikes:
        out[b.station] += 1
    return out


class TestTargetDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            target_distribution(0, 10)
        with pytest.raises(ValueError):
            target_distribution(3, -1)
        with pytest.raises(ValueError):
            target_distribution(3, 10, demand_weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            target_distribution(2, 10, demand_weights=[0.0, 0.0])

    def test_uniform_sums_exactly(self):
        tgt = target_distribution(3, 10)
        assert tgt.sum() == 10
        assert max(tgt) - min(tgt) <= 1

    def test_weighted_proportional(self):
        tgt = target_distribution(2, 30, demand_weights=[2.0, 1.0])
        assert tgt.tolist() == [20, 10]

    def test_largest_remainder_rounding(self):
        tgt = target_distribution(3, 10, demand_weights=[1.0, 1.0, 1.0])
        assert sorted(tgt.tolist()) == [3, 3, 4]

    @given(
        st.integers(1, 10), st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_sums_to_fleet(self, n_stations, n_bikes):
        assert target_distribution(n_stations, n_bikes).sum() == n_bikes


class TestRebalanceFleet:
    def test_already_balanced_noop(self):
        f = skewed_fleet([4, 4, 4, 4, 4])
        report = rebalance_fleet(f)
        assert report.bikes_moved == 0
        assert report.moves == []
        assert report.imbalance_before == 0.0

    def test_reaches_target_exactly(self):
        f = skewed_fleet([20, 0, 0, 0, 0])
        report = rebalance_fleet(f)
        assert counts(f) == [4, 4, 4, 4, 4]
        assert report.imbalance_after == 0.0
        assert report.imbalance_reduction == pytest.approx(1.0)
        assert report.bikes_moved == 16

    def test_mismatched_targets_rejected(self):
        f = skewed_fleet([5, 5])
        with pytest.raises(ValueError):
            rebalance_fleet(f, targets=[5, 5, 5])
        with pytest.raises(ValueError):
            rebalance_fleet(f, targets=[2, 2])

    def test_custom_targets(self):
        f = skewed_fleet([10, 0])
        rebalance_fleet(f, targets=[3, 7])
        assert counts(f) == [3, 7]

    def test_move_budget_respected(self):
        f = skewed_fleet([20, 0, 0, 0, 0])
        report = rebalance_fleet(f, max_moves=5)
        assert report.bikes_moved == 5
        assert report.imbalance_after < report.imbalance_before

    def test_moves_nearest_deficit_first(self):
        # Surplus at station 0; deficits at 1 (near) and 4 (far).
        f = skewed_fleet([10, 0, 4, 4, 0])
        report = rebalance_fleet(f, targets=[4, 3, 4, 4, 3])
        assert report.moves[0].source == 0
        assert report.moves[0].sink == 1

    def test_high_charge_bikes_move(self):
        f = skewed_fleet([6, 0])
        for i, b in enumerate(f.bikes):
            f.set_level(b.bike_id, 0.1 + 0.15 * i)
        rebalance_fleet(f, targets=[3, 3])
        moved_levels = [b.battery.level for b in f.bikes if b.station == 1]
        stayed_levels = [b.battery.level for b in f.bikes if b.station == 0]
        assert min(moved_levels) > max(stayed_levels)

    def test_truck_distance_estimated(self):
        f = skewed_fleet([10, 0, 0, 0, 0])
        report = rebalance_fleet(f)
        # The tour spans stations 0..4 on a 1 km-spaced line: 4 km.
        assert report.truck_distance_km == pytest.approx(4.0)


class TestSimulatorIntegration:
    def test_rebalance_restores_service_rate(self):
        """A starved multi-day simulation recovers with overnight trucks."""
        from datetime import datetime, timedelta

        from repro.core import (
            EsharingPlanner, constant_facility_cost,
            demand_points_from_stream, offline_placement,
        )
        from repro.datasets import TripRecord
        from repro.sim import SystemSimulator

        rng = np.random.default_rng(0)
        centers = [Point(300, 300), Point(2700, 2700)]
        historical = []
        for _ in range(200):
            c = centers[int(rng.integers(2))]
            off = rng.normal(0, 60, size=2)
            historical.append(Point(c.x + float(off[0]), c.y + float(off[1])))
        cost_fn = constant_facility_cost(10_000.0)
        offline = offline_placement(demand_points_from_stream(historical), cost_fn)

        def one_way_trips(day):
            # Everyone rides A -> B: station A starves without trucks.
            return [
                TripRecord(
                    order_id=i, user_id=i, bike_id=0, bike_type=1,
                    start_time=day + timedelta(minutes=i),
                    start=centers[0], end=centers[1],
                )
                for i in range(40)
            ]

        def build():
            planner = EsharingPlanner(
                offline.stations, cost_fn,
                np.asarray([(p.x, p.y) for p in historical]),
                np.random.default_rng(1),
            )
            fleet = Fleet(planner.stations, n_bikes=30, rng=np.random.default_rng(2))
            return SystemSimulator(planner, fleet, rng=np.random.default_rng(3))

        days = [one_way_trips(datetime(2017, 5, 10 + d, 8)) for d in range(3)]
        starved = build().run_days(days)
        trucked = build().run_days(days, rebalance_between_days=True)
        served_starved = sum(r.trips_executed for r in starved)
        served_trucked = sum(r.trips_executed for r in trucked)
        assert served_trucked > served_starved
