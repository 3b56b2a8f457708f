"""Tests for repro.core.esharing (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import (
    EsharingConfig,
    EsharingPlanner,
    constant_facility_cost,
    demand_points_from_stream,
    esharing_placement,
    meyerson_placement,
    offline_placement,
)
from repro.geo import Point
from repro.stats import CachedKS2D


def cluster_stream(rng, centers, n, sigma=100.0, noise=0.25, extent=3000.0):
    """Hotspot demand with a uniform background — the paper's workload shape."""
    pts = []
    for _ in range(n):
        if noise > 0 and rng.uniform() < noise:
            xy = rng.uniform(0, extent, size=2)
            pts.append(Point(float(xy[0]), float(xy[1])))
        else:
            c = centers[int(rng.integers(len(centers)))]
            off = rng.normal(0, sigma, size=2)
            pts.append(Point(c.x + float(off[0]), c.y + float(off[1])))
    return pts


@pytest.fixture(scope="module")
def anchor_setup():
    """Offline anchor computed on historical data (paper-scale 3x3 km field)."""
    rng = np.random.default_rng(0)
    centers = [Point(float(x), float(y)) for x, y in rng.uniform(300, 2700, size=(8, 2))]
    historical_pts = cluster_stream(rng, centers, 600)
    cost_fn = constant_facility_cost(10_000.0)
    offline = offline_placement(demand_points_from_stream(historical_pts), cost_fn)
    historical = np.asarray([(p.x, p.y) for p in historical_pts])
    return centers, historical, offline, cost_fn


class TestConfig:
    def test_defaults_valid(self):
        EsharingConfig()

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            EsharingConfig(beta=0.5)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            EsharingConfig(tolerance_m=0.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            EsharingConfig(history_window=0)

    def test_unknown_fixed_penalty_rejected(self):
        with pytest.raises(ValueError):
            EsharingConfig(fixed_penalty="type_iv")

    def test_bad_initial_cost_rejected(self):
        with pytest.raises(ValueError):
            EsharingConfig(initial_open_cost_m=0.0)


class TestPlannerBasics:
    def test_empty_anchor_rejected(self):
        with pytest.raises(ValueError):
            EsharingPlanner(
                [], constant_facility_cost(1.0), np.zeros((5, 2)), np.random.default_rng(0)
            )

    def test_bad_historical_shape_rejected(self):
        with pytest.raises(ValueError):
            EsharingPlanner(
                [Point(0, 0)], constant_facility_cost(1.0),
                np.zeros((5, 3)), np.random.default_rng(0),
            )

    def test_anchor_space_cost_charged_up_front(self, anchor_setup):
        _, historical, offline, cost_fn = anchor_setup
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(1)
        )
        assert planner.space == pytest.approx(10_000.0 * offline.n_stations)

    def test_request_at_existing_station_never_opens(self, anchor_setup):
        _, historical, offline, cost_fn = anchor_setup
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(2)
        )
        decision = planner.offer(offline.stations[0])
        assert not decision.opened
        assert decision.walking_cost == 0.0

    def test_decision_trace_recorded(self, anchor_setup):
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(3)
        planner = EsharingPlanner(offline.stations, cost_fn, historical, rng)
        stream = cluster_stream(rng, centers, 50)
        for p in stream:
            planner.offer(p)
        assert len(planner.decisions) == 50
        res = planner.result()
        assert len(res.assignment) == 50
        assert all(0 <= a < res.n_stations for a in res.assignment)

    def test_walking_cost_accumulates_only_on_assign(self, anchor_setup):
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(4)
        planner = EsharingPlanner(offline.stations, cost_fn, historical, rng)
        for p in cluster_stream(rng, centers, 80):
            planner.offer(p)
        manual = sum(d.walking_cost for d in planner.decisions if not d.opened)
        assert planner.walking == pytest.approx(manual)

    def test_remove_station(self, anchor_setup):
        _, historical, offline, cost_fn = anchor_setup
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(5)
        )
        before = len(planner.stations)
        planner.remove_station(0)
        assert len(planner.stations) == before - 1

    def test_result_after_removal_raises(self, anchor_setup):
        _, historical, offline, cost_fn = anchor_setup
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(7)
        )
        planner.offer(offline.stations[0])
        planner.remove_station(0)
        with pytest.raises(RuntimeError, match="PlacementService"):
            planner.result()

    def test_remove_station_bad_index(self, anchor_setup):
        _, historical, offline, cost_fn = anchor_setup
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(6)
        )
        with pytest.raises(IndexError):
            planner.remove_station(99)


class TestAlgorithmBehaviour:
    def test_cost_doubling_happens(self, anchor_setup):
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(7)
        cfg = EsharingConfig(beta=1.0)
        planner = EsharingPlanner(offline.stations, cost_fn, historical, rng, cfg)
        initial_scale = planner._cost_scale
        for p in cluster_stream(rng, centers, int(3 * planner.k) + 1):
            planner.offer(p)
        assert planner._cost_scale > initial_scale

    def test_ks_switching_on_similar_data(self, anchor_setup):
        """Live data from the same hotspots => high similarity => Type II/III."""
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(8)
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, rng, EsharingConfig(beta=1.0)
        )
        for p in cluster_stream(rng, centers, 150):
            planner.offer(p)
        assert planner.similarity_history, "KS test never ran"
        assert planner.penalty.name in ("type_ii", "type_iii")

    def test_ks_switching_on_shifted_data(self, anchor_setup):
        """Live data from new hotspots => low similarity => Type I."""
        _, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(9)
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, rng, EsharingConfig(beta=1.0)
        )
        new_centers = [Point(950, 950), Point(50, 950)]
        for p in cluster_stream(rng, new_centers, 150):
            planner.offer(p)
        assert planner.similarity_history
        assert planner.similarity_history[-1] < 80.0
        assert planner.penalty.name == "type_i"

    def test_adaptive_tolerance_widens_under_shift(self, anchor_setup):
        _, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(10)
        cfg = EsharingConfig(beta=1.0, adaptive_tolerance=True, tolerance_m=200.0)
        planner = EsharingPlanner(offline.stations, cost_fn, historical, rng, cfg)
        for p in cluster_stream(rng, [Point(950, 950)], 120):
            planner.offer(p)
        assert planner.penalty.tolerance > 200.0

    def test_opens_fewer_than_meyerson(self, anchor_setup):
        """The headline Tier-1 claim: fewer stations and lower total cost
        than Meyerson when demand follows the historical pattern."""
        centers, historical, offline, cost_fn = anchor_setup
        es_stations, es_totals, mey_stations, mey_totals = [], [], [], []
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            stream = cluster_stream(rng, centers, 400)
            es = esharing_placement(
                stream, offline.stations, cost_fn, historical,
                np.random.default_rng(seed),
            )
            mey = meyerson_placement(stream, cost_fn, np.random.default_rng(seed))
            es_stations.append(es.n_stations)
            es_totals.append(es.total)
            mey_stations.append(mey.n_stations)
            mey_totals.append(mey.total)
        assert np.mean(es_stations) < np.mean(mey_stations)
        assert np.mean(es_totals) < np.mean(mey_totals)

    def test_responds_to_unknown_distribution(self, anchor_setup):
        """Fig. 6(b): arrivals from an unseen hotspot add online stations."""
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(11)
        surge = [Point(2500, 2500)]
        res = esharing_placement(
            cluster_stream(rng, surge, 100, sigma=40.0),
            offline.stations, cost_fn, historical, np.random.default_rng(12),
        )
        assert len(res.online_opened) >= 1
        # At least one online station sits near the new hotspot.
        opened = [res.stations[i] for i in res.online_opened]
        assert any(s.distance_to(Point(2500, 2500)) < 300.0 for s in opened)

    def test_fixed_penalty_never_switches(self, anchor_setup):
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(31)
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(32),
            EsharingConfig(beta=1.0, fixed_penalty="type_i"),
        )
        for p in cluster_stream(rng, centers, 200):
            planner.offer(p)
        assert planner.similarity_history, "KS still runs for telemetry"
        assert all(d.penalty_name == "type_i" for d in planner.decisions)

    def test_late_surge_absorbed_with_reset(self, anchor_setup):
        """A surge arriving after long normal traffic still opens stations
        because the significant KS shift resets the opening budget."""
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(21)
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(22),
            EsharingConfig(beta=1.0, reset_on_shift=True),
        )
        for p in cluster_stream(rng, centers, 400):
            planner.offer(p)
        opened_before_surge = len(planner.online_opened)
        surge_center = Point(2850, 2850)
        for p in cluster_stream(rng, [surge_center], 200, sigma=60.0, noise=0.0):
            planner.offer(p)
        opened_at_surge = [
            planner.stations[i]
            for i in planner.online_opened[opened_before_surge:]
        ]
        assert any(s.distance_to(surge_center) < 400.0 for s in opened_at_surge)

    def test_reset_latches_once_per_shift(self, anchor_setup):
        """During a sustained shift the budget resets once, not per check."""
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(23)
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(24),
            EsharingConfig(beta=1.0, reset_on_shift=True),
        )
        for p in cluster_stream(rng, [Point(2850, 2850)], 400, sigma=60.0, noise=0.0):
            planner.offer(p)
        assert planner._shift_absorbed
        # The budget has been doubling since the single reset.
        assert planner._cost_scale > planner._initial_cost_scale

    def test_reset_disabled_keeps_budget_monotone(self, anchor_setup):
        centers, historical, offline, cost_fn = anchor_setup
        rng = np.random.default_rng(25)
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(26),
            EsharingConfig(beta=1.0, reset_on_shift=False),
        )
        scales = [planner._cost_scale]
        for p in cluster_stream(rng, [Point(2850, 2850)], 300, sigma=60.0, noise=0.0):
            planner.offer(p)
            scales.append(planner._cost_scale)
        assert all(a <= b for a, b in zip(scales, scales[1:]))

    def test_batch_equals_planner_loop(self, anchor_setup):
        centers, historical, offline, cost_fn = anchor_setup
        stream = cluster_stream(np.random.default_rng(13), centers, 60)
        a = esharing_placement(
            stream, offline.stations, cost_fn, historical, np.random.default_rng(42)
        )
        planner = EsharingPlanner(
            offline.stations, cost_fn, historical, np.random.default_rng(42)
        )
        for p in stream:
            planner.offer(p)
        b = planner.result()
        assert a.stations == b.stations
        assert a.assignment == b.assignment
        assert a.total == pytest.approx(b.total)


class _FreshKS:
    """A KS cache rebuilt from scratch for every test: carries nothing."""

    def __init__(self, historical):
        self.historical = historical

    def test(self, live):
        return CachedKS2D(self.historical).test(live)


class TestCarriedKS:
    """Algorithm 2 on a carried KS cache matches one rebuilt per check."""

    def test_shifting_stream_matches_fresh_cache_per_check(self):
        rng = np.random.default_rng(8)
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(300, 2700, (6, 2))]
        shifted = [Point(c.x + 1500.0, c.y) for c in centers]
        historical = np.asarray([(p.x, p.y) for p in cluster_stream(rng, centers, 300)])
        stream = (
            cluster_stream(rng, centers, 400)
            + cluster_stream(rng, shifted, 400)
            + cluster_stream(rng, centers, 400)
        )
        # beta * k = 8 arrivals between checks of a 60-point window.
        config = EsharingConfig(beta=2.0, history_window=60)
        cost = constant_facility_cost(10_000.0)

        def planner():
            return EsharingPlanner(
                centers[:4], cost, historical, np.random.default_rng(9), config
            )

        carried, fresh = planner(), planner()
        fresh._ks_cache = _FreshKS(fresh._historical)
        for p in stream[:700]:
            carried.offer(p)
        # Mid-stream recovery: a restored planner starts a new cache.
        restored = EsharingPlanner.from_state(carried.state_dict(), cost)
        for p in stream[700:]:
            carried.offer(p)
            restored.offer(p)
        for p in stream:
            fresh.offer(p)
        assert len({d.penalty_name for d in fresh.decisions}) > 1
        assert len(fresh.similarity_history) == len(stream) // 8
        for other in (carried, restored):
            assert other.similarity_history == fresh.similarity_history
            assert other.decisions == fresh.decisions
            assert other.state_dict() == fresh.state_dict()
