"""Tests for repro.incentives.mechanism (Algorithm 3)."""

import numpy as np
import pytest

from repro.energy import Fleet
from repro.geo import Point
from repro.incentives import (
    ChargingCostParams,
    IncentiveConfig,
    IncentiveMechanism,
    UserPopulation,
)

from .aggregation_oracle import choose_aggregation_site_reference


def grid_stations(nx=3, ny=3, spacing=400.0):
    return [Point(i * spacing, j * spacing) for j in range(ny) for i in range(nx)]


def eager_population():
    """Riders who accept essentially any offer (deterministic tests)."""
    return UserPopulation(walk_mean=1e6, walk_std=1.0, reward_mean=0.0, reward_std=0.0)


def reluctant_population():
    return UserPopulation(walk_mean=1.0, walk_std=0.0, reward_mean=1e9, reward_std=0.0)


@pytest.fixture
def fleet():
    f = Fleet(grid_stations(), n_bikes=90, rng=np.random.default_rng(0))
    # Deterministic energy layout: two low bikes at station 0, one at 4.
    for b in f.bikes:
        f.set_level(b.bike_id, 0.9)
    f.set_level(0, 0.10)
    f.set_level(9, 0.12)
    f.set_level(4, 0.15)
    # bikes 0 and 9 sit at stations 0 and 0 (round robin: bike i at i%9).
    f.move(9, 0)
    return f


class TestConfig:
    def test_defaults_valid(self):
        IncentiveConfig()

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            IncentiveConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            IncentiveConfig(alpha=1.1)

    def test_margin_validated(self):
        with pytest.raises(ValueError):
            IncentiveConfig(battery_margin=0.5)

    def test_slack_validated(self):
        with pytest.raises(ValueError):
            IncentiveConfig(mileage_slack=-0.1)


class TestIncentiveValue:
    def test_zero_when_no_low_bikes(self, fleet):
        mech = IncentiveMechanism(fleet, ChargingCostParams())
        assert mech.incentive_for(8) == 0.0

    def test_formula(self, fleet):
        params = ChargingCostParams(service_cost=5.0, delay_cost=5.0)
        mech = IncentiveMechanism(fleet, params, config=IncentiveConfig(alpha=0.4))
        # Station 0 holds 2 low bikes and is first in the service order.
        t = mech.service_position(0)
        expected = 0.4 * (5.0 + t * 5.0) / 2
        assert mech.incentive_for(0) == pytest.approx(expected)

    def test_budget_never_exceeded_per_station(self, fleet):
        """v * |L_i| = alpha * (q + t*d) < q + t*d (Eq. 12)."""
        params = ChargingCostParams()
        for alpha in (0.2, 0.5, 0.9):
            mech = IncentiveMechanism(fleet, params, config=IncentiveConfig(alpha=alpha))
            low = fleet.low_energy_map()
            for station, bikes in low.items():
                v = mech.incentive_for(station)
                t = mech.service_position(station)
                budget = params.service_cost + t * params.delay_cost
                assert v * len(bikes) <= budget + 1e-9

    def test_service_position_ordering(self, fleet):
        mech = IncentiveMechanism(fleet, ChargingCostParams())
        needing = fleet.stations_needing_service()
        positions = [mech.service_position(s) for s in needing]
        assert positions == list(range(1, len(needing) + 1))
        # A healthy station queues after all needing ones.
        assert mech.service_position(8) == len(needing) + 1


class TestAggregationSite:
    def test_mileage_equivalence(self, fleet):
        mech = IncentiveMechanism(fleet, ChargingCostParams())
        k = mech.choose_aggregation_site(0, 8)  # diagonal trip
        assert k is not None
        trip = fleet.stations[0].distance_to(fleet.stations[8])
        leg = fleet.stations[0].distance_to(fleet.stations[k])
        assert abs(leg - trip) <= mech.config.mileage_slack * trip

    def test_excludes_origin_and_destination(self, fleet):
        mech = IncentiveMechanism(fleet, ChargingCostParams())
        k = mech.choose_aggregation_site(0, 8)
        assert k not in (0, 8)

    def test_zero_length_trip_no_site(self, fleet):
        mech = IncentiveMechanism(fleet, ChargingCostParams())
        assert mech.choose_aggregation_site(0, 0) is None

    def test_prefers_site_with_more_low_bikes(self, fleet):
        # Make station 7 hold a low bike; for the 0 -> 8 diagonal the
        # mileage-equivalent candidates are {2, 5, 6, 7}, so consolidation
        # should pick 7 over the empty alternatives.
        bike = fleet.bikes_at(7)[0]
        fleet.set_level(bike.bike_id, 0.11)
        mech = IncentiveMechanism(fleet, ChargingCostParams())
        assert mech.choose_aggregation_site(0, 8) == 7

    def test_explicit_target_preferred(self, fleet):
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), aggregation_targets={0: 2}
        )
        # Target 2 is at distance 800 on the x-axis; trip 0 -> 8 is ~1131.
        # Slack 0.35 * 1131 = 396 > |800 - 1131|, so 2 qualifies and wins.
        assert mech.choose_aggregation_site(0, 8) == 2


class TestOfferRide:
    def test_alpha_zero_never_offers(self, fleet):
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), config=IncentiveConfig(alpha=0.0),
            population=eager_population(),
        )
        out = mech.offer_ride(0, 8, fleet.stations[8])
        assert not out.offered
        assert mech.total_incentives_paid == 0.0

    def test_no_low_bikes_no_offer(self, fleet):
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), population=eager_population()
        )
        out = mech.offer_ride(8, 0, fleet.stations[0])
        assert not out.offered
        assert out.reason == "no low-energy bikes"

    def test_accepted_offer_moves_bike_and_pays(self, fleet):
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), population=eager_population(),
            rng=np.random.default_rng(1),
        )
        low_before = set(fleet.low_energy_map().get(0, []))
        out = mech.offer_ride(0, 8, fleet.stations[8])
        assert out.accepted
        assert out.bike_id in low_before
        assert fleet.bikes[out.bike_id].station == out.aggregation_station
        assert mech.total_incentives_paid == pytest.approx(out.incentive_paid)
        assert mech.acceptance_rate == 1.0

    def test_declined_offer_keeps_fleet(self, fleet):
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), population=reluctant_population(),
            rng=np.random.default_rng(2),
        )
        before = [b.station for b in fleet.bikes]
        out = mech.offer_ride(0, 8, fleet.stations[8])
        assert out.offered and not out.accepted
        assert [b.station for b in fleet.bikes] == before
        assert mech.total_incentives_paid == 0.0

    def test_dead_battery_blocks_relocation(self, fleet):
        for bike_id in (0, 9):
            fleet.set_level(bike_id, 0.001)
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), population=eager_population()
        )
        out = mech.offer_ride(0, 8, fleet.stations[8])
        assert not out.offered
        assert "battery" in out.reason

    def test_repeated_offers_drain_station(self, fleet):
        """Algorithm 3 keeps querying riders until L_i empties."""
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), population=eager_population(),
            rng=np.random.default_rng(3),
        )
        for _ in range(5):
            mech.offer_ride(0, 8, fleet.stations[8])
        assert fleet.low_energy_map().get(0, []) == []

    def test_aggregation_reduces_service_sites(self, fleet):
        # Trip 0 -> 2 is 800 m; the centre station 4 (565.7 m) is within
        # the mileage slack, so both low bikes at 0 consolidate onto the
        # already-low station 4: service sites drop from {0, 4} to {4}.
        sites_before = len(fleet.stations_needing_service())
        assert sites_before == 2
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), population=eager_population(),
            rng=np.random.default_rng(4),
            aggregation_targets={0: 4},
        )
        mech.offer_ride(0, 2, fleet.stations[2])
        mech.offer_ride(0, 2, fleet.stations[2])
        assert fleet.stations_needing_service() == [4]


class TestAggregationSiteParity:
    """The batched candidate scan must equal the scalar reference
    (``aggregation_oracle``) on every (origin, destination) pair, across
    randomized fleets."""

    def _assert_parity(self, mech, n_stations):
        for origin in range(n_stations):
            for destination in range(n_stations):
                assert mech.choose_aggregation_site(
                    origin, destination
                ) == choose_aggregation_site_reference(mech, origin, destination), (
                    f"diverged on {origin} -> {destination}"
                )

    def test_grid_fleet_all_pairs(self, fleet):
        mech = IncentiveMechanism(fleet, ChargingCostParams())
        self._assert_parity(mech, len(fleet.stations))

    def test_explicit_targets_all_pairs(self, fleet):
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(), aggregation_targets={0: 2, 3: 7, 8: 4}
        )
        self._assert_parity(mech, len(fleet.stations))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_fleets_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        stations = [
            Point(float(x), float(y)) for x, y in rng.uniform(0, 1500, (12, 2))
        ]
        f = Fleet(stations, n_bikes=60, rng=np.random.default_rng(seed + 100))
        for b in f.bikes:
            f.set_level(b.bike_id, float(rng.uniform(0.05, 1.0)))
        targets = {int(rng.integers(0, 12)): int(rng.integers(0, 12))}
        mech = IncentiveMechanism(
            f, ChargingCostParams(), aggregation_targets=targets,
            config=IncentiveConfig(mileage_slack=float(rng.uniform(0.1, 0.6))),
        )
        self._assert_parity(mech, len(stations))

    def test_coincident_stations_tie_break(self):
        # Duplicate positions force exact distance ties; the id tie-break
        # must resolve identically in both paths.
        stations = [Point(0.0, 0.0), Point(400.0, 0.0), Point(400.0, 0.0),
                    Point(0.0, 400.0), Point(400.0, 400.0)]
        f = Fleet(stations, n_bikes=10, rng=np.random.default_rng(7))
        mech = IncentiveMechanism(f, ChargingCostParams())
        for origin in range(len(stations)):
            for destination in range(len(stations)):
                assert mech.choose_aggregation_site(
                    origin, destination
                ) == choose_aggregation_site_reference(mech, origin, destination)
