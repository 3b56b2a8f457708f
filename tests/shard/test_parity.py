"""The interior-trip bit-identity contract, pinned at 2/4/8 shards.

Serving a territory as one shard of an N-shard fleet must be
bit-identical — same outcome stream, same journal bytes, same
checkpoint state — to serving that territory alone as a standalone
single-shard deployment built from the same :class:`ShardSpec`.
Referrals are advisory annotations on *boundary* trips only; interior
trips never carry one.
"""

import numpy as np
import pytest

from repro.core.streaming import ServiceResponse
from repro.gauntlet import logical_state
from repro.shard import ShardRouter, ShardedRuntime, build_shard_runtime

from .conftest import make_city, make_plan, make_trips


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_fleet_matches_standalone_oracles(tmp_path, n_shards):
    plan = make_plan(n_shards)
    city = make_city(plan, tmp_path / "city")
    trips = make_trips(700, seed=11)
    outcome = city.serve(trips)

    router = ShardRouter(plan)
    buckets = router.split_trips(trips)
    by_id = {r.shard_id: r for r in outcome.reports}
    for sid in range(n_shards):
        if not buckets[sid]:
            assert sid not in by_id
            continue
        oracle = build_shard_runtime(city.spec(sid), tmp_path / f"oracle-{sid}")
        oracle_outcomes = oracle.serve(buckets[sid])
        report = by_id[sid]
        assert report.outcomes == tuple(oracle_outcomes)
        fleet_journal = (
            tmp_path / "city" / f"shard-{sid:03d}" / "journal.jsonl"
        ).read_bytes()
        oracle_journal = (tmp_path / f"oracle-{sid}" / "journal.jsonl").read_bytes()
        assert fleet_journal == oracle_journal
        recovered = city.open_shard(sid)
        assert logical_state(recovered.inner.service) == logical_state(
            oracle.inner.service
        )
        recovered.close()
        oracle.close()


@pytest.mark.parametrize("n_shards", [2, 4])
def test_referrals_touch_only_boundary_trips(tmp_path, n_shards):
    plan = make_plan(n_shards)
    city = make_city(plan, tmp_path / "city")
    trips = make_trips(600, seed=12)
    outcome = city.serve(trips)
    ends = {t.order_id: t.end for t in trips}
    referred = set()
    for ref in outcome.referrals:
        referred.add(ref.order_id)
        end = ends[ref.order_id]
        assert bool(plan.boundary_of_many([end.x], [end.y])[0])
        assert ref.station_shard != ref.home_shard
        assert ref.saved_m > 0.0
        assert ref.walking_m >= 0.0
    # Interior trips never carry a referral.
    interior = {
        t.order_id
        for t in trips
        if not bool(plan.boundary_of_many([t.end.x], [t.end.y])[0])
    }
    assert not (referred & interior)


def test_single_shard_fleet_equals_plain_runtime(tmp_path):
    # n_shards=1: the fleet wrapper must add nothing to the decisions.
    plan = make_plan(1)
    city = make_city(plan, tmp_path / "city")
    trips = make_trips(300, seed=13)
    outcome = city.serve(trips)
    oracle = build_shard_runtime(city.spec(0), tmp_path / "oracle")
    oracle_outcomes = oracle.serve(trips)
    assert outcome.reports[0].outcomes == tuple(oracle_outcomes)
    assert outcome.referrals == ()
    oracle.close()


def test_multi_epoch_parity(tmp_path):
    plan = make_plan(3)
    city = make_city(plan, tmp_path / "city")
    epoch1 = make_trips(300, seed=14)
    epoch2 = make_trips(300, seed=15)
    # Second epoch continues the clock and uses fresh order ids.
    epoch2 = [
        t.__class__(
            order_id=1000 + t.order_id, user_id=t.user_id, bike_id=t.bike_id,
            bike_type=t.bike_type,
            start_time=epoch1[-1].start_time + (t.start_time - epoch2[0].start_time),
            start=t.start, end=t.end, battery=t.battery,
        )
        for t in epoch2
    ]
    city.serve(epoch1)
    out2 = city.serve(epoch2)

    router = ShardRouter(plan)
    b1 = router.split_trips(epoch1)
    b2 = router.split_trips(epoch2)
    by_id = {r.shard_id: r for r in out2.reports}
    for sid in range(plan.n_shards):
        oracle = build_shard_runtime(city.spec(sid), tmp_path / f"oracle-{sid}")
        oracle.serve(b1[sid])
        second = oracle.serve(b2[sid])
        if b2[sid]:
            assert by_id[sid].outcomes == tuple(second)
        fleet_journal = (
            tmp_path / "city" / f"shard-{sid:03d}" / "journal.jsonl"
        ).read_bytes()
        oracle_journal = (tmp_path / f"oracle-{sid}" / "journal.jsonl").read_bytes()
        assert fleet_journal == oracle_journal
        oracle.close()


def test_every_admitted_trip_served_exactly_once(tmp_path):
    plan = make_plan(3)
    city = make_city(plan, tmp_path / "city")
    trips = make_trips(500, seed=17)
    outcome = city.serve(trips)
    served_ids = [
        o.order_id
        for r in outcome.reports
        for o in r.outcomes
        if isinstance(o, ServiceResponse)
    ]
    assert sorted(served_ids) == [t.order_id for t in trips]
    assert len(set(served_ids)) == len(served_ids)
