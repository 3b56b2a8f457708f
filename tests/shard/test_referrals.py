"""The referral kernel: one vectorized boundary test per shard-epoch.

``_compute_referrals`` must return exactly what the per-row kernel in
``referral_oracle`` returns, on any mix of ends (NaN, infinite, outside
the plan's rectangle, missing) and outcomes, with or without a halo.
A spy pins that a served epoch asks the plan for boundary cells once
per shard, not once per trip.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.streaming import ServiceResponse
from repro.gauntlet import PLANE
from repro.geo import Point
from repro.guard import DegradedDecision
from repro.shard import ShardPlan
from repro.shard.runtime import _compute_referrals

from .conftest import make_city, make_plan, make_trips
from .referral_oracle import compute_referrals_per_row


def _random_case(rng, trips):
    """Trips with some hostile ends, and one outcome of every kind."""
    weird = [np.nan, np.inf, -np.inf, -5e4, PLANE + 5e4, 1e12]
    out_trips = []
    for t in trips:
        roll = rng.uniform()
        if roll < 0.08:
            t = t.with_end(Point(float(rng.choice(weird)), t.end.y))
        elif roll < 0.16:
            t = t.with_end(Point(t.end.x, float(rng.choice(weird))))
        elif roll < 0.2:
            t = replace(t, end=None)
        out_trips.append(t)
    outcomes = []
    for t in trips:
        roll = rng.uniform()
        walk = float(rng.uniform(0.0, 900.0))
        if roll < 0.1:
            outcomes.append(None)
        elif roll < 0.15:
            outcomes.append(DegradedDecision(t.order_id, 0, 0, walk, "test"))
        else:
            outcomes.append(
                ServiceResponse(
                    order_id=t.order_id, served=bool(roll > 0.2),
                    origin_station=0, destination_station=0, opened_new=False,
                    removed_station=None, walking_m=walk,
                )
            )
    # A response for a trip the epoch never saw has no end to test.
    outcomes.append(
        ServiceResponse(10**6, True, 0, 0, False, None, 1e9)
    )
    return out_trips, outcomes


def _random_halo(rng, n_shards, size):
    return tuple(
        (int(rng.integers(n_shards)), int(i),
         float(rng.uniform(-100.0, PLANE + 100.0)),
         float(rng.uniform(-100.0, PLANE + 100.0)))
        for i in range(size)
    )


@pytest.mark.parametrize("n_shards", [2, 3, 8])
@pytest.mark.parametrize("seed", range(6))
def test_vector_kernel_matches_per_row_oracle(tmp_path, n_shards, seed):
    rng = np.random.default_rng(seed)
    plan = make_plan(n_shards)
    spec = make_city(plan, tmp_path).spec(seed % n_shards)
    trips, outcomes = _random_case(rng, make_trips(300, seed=seed))
    for size in (0, 1, 25):
        halo = _random_halo(rng, n_shards, size)
        got = _compute_referrals(spec, plan, trips, outcomes, halo)
        want = compute_referrals_per_row(spec, plan, trips, outcomes, halo)
        assert got == want
        if size == 0:
            assert got == []
    assert _compute_referrals(spec, plan, [], [], _random_halo(rng, n_shards, 5)) == []


def test_one_boundary_call_per_shard_epoch(tmp_path, monkeypatch):
    plan = make_plan(4)
    city = make_city(plan, tmp_path)
    calls = []
    original = ShardPlan.boundary_of_many

    def spy(self, xs, ys):
        calls.append(len(np.atleast_1d(xs)))
        return original(self, xs, ys)

    monkeypatch.setattr(ShardPlan, "boundary_of_many", spy)
    trips = make_trips(600, seed=21)
    referred = 0
    for epoch in range(3):
        chunk = trips[epoch * 200:(epoch + 1) * 200]
        halos = {sid: city._halo_for(sid) for sid in range(plan.n_shards)}
        calls.clear()
        outcome = city.serve(chunk)
        # One call per shard with a halo and a served trip, over every
        # served destination of its epoch.
        expected = []
        for report in outcome.reports:
            served = sum(
                1 for o in report.outcomes
                if isinstance(o, ServiceResponse) and o.served
            )
            if halos[report.shard_id] and served:
                expected.append(served)
        assert calls == expected
        referred += len(outcome.referrals)
    city.close()
    assert referred > 0
