"""The touch table and the halo built from cached station cells.

``ShardPlan.touches_shard`` is one lookup in a per-plan table, and
``ShardedRuntime`` locates a station's cell once, when the station joins
a roster.  Both must give exactly what the 9-neighbour scan in
``touch_oracle`` gives: on any point (NaN, infinite, outside the plan's
rectangle), and for every halo of a chaos fleet whose stations retire
and open online, after each epoch and after a cold recovery.
"""

import json

import numpy as np
import pytest

from repro.gauntlet import PLANE
from repro.gauntlet.rows import HOSTILE
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.shard import FleetSupervisor, ShardPlan, ShardedRuntime

from .conftest import make_city, make_plan, make_trips
from .touch_oracle import halo_scan, touches_shard_scan


def _points(rng, n):
    xs = rng.uniform(-0.2 * PLANE, 1.2 * PLANE, n)
    ys = rng.uniform(-0.2 * PLANE, 1.2 * PLANE, n)
    weird = np.array([np.nan, np.inf, -np.inf, -5e4, PLANE + 5e4, 1e12, 0.0, PLANE])
    pick = rng.uniform(size=n) < 0.15
    xs[pick] = rng.choice(weird, int(pick.sum()))
    pick = rng.uniform(size=n) < 0.15
    ys[pick] = rng.choice(weird, int(pick.sum()))
    return xs, ys


@pytest.mark.parametrize("n_shards", range(1, 9))
@pytest.mark.parametrize("precision", [None, 7])
def test_touch_table_matches_neighbour_scan(n_shards, precision):
    plan = make_plan(n_shards, precision=precision)
    xs, ys = _points(np.random.default_rng(n_shards), 2000)
    rows, cols = plan.cell_index_of_many(xs, ys)
    for sid in range(n_shards):
        want = touches_shard_scan(plan, xs, ys, sid)
        np.testing.assert_array_equal(plan.touches_shard(xs, ys, sid), want)
        np.testing.assert_array_equal(plan.cells_touch_shard(rows, cols, sid), want)


def test_touch_table_survives_persistence():
    plan = make_plan(5)
    again = ShardPlan.from_state(plan.state_dict())
    xs, ys = _points(np.random.default_rng(9), 500)
    for sid in range(plan.n_shards):
        np.testing.assert_array_equal(
            again.touches_shard(xs, ys, sid), touches_shard_scan(plan, xs, ys, sid)
        )


@pytest.mark.parametrize("shard", [-1, 3])
def test_unknown_shard_rejected(shard):
    plan = make_plan(3)
    with pytest.raises(ValueError):
        plan.touches_shard([1.0], [1.0], shard)


def _assert_halos_match_scan(city):
    for sid in range(city.plan.n_shards):
        assert city._halo_for(sid) == halo_scan(city.plan, city._stations, sid)
    for sid, roster in city._stations.items():
        # The cell cache holds the current roster and nothing else.
        assert set(city._cells[sid].by_station) == set(roster)


def _halo_bytes(rosters):
    return json.dumps(
        {str(sid): [[i, x, y] for i, x, y in rows] for sid, rows in sorted(rosters.items())},
        sort_keys=True,
    ).encode()


def test_halo_matches_scan_through_epochs_and_recovery(tmp_path):
    injector = FaultInjector(ChaosConfig(seed=2, **HOSTILE))
    stream = injector.mutate_trips(make_trips(1600, seed=2))
    cut = len(stream) // 4
    epochs = [stream[i * cut:(i + 1) * cut] for i in range(4)]
    root = tmp_path / "city"
    city = make_city(make_plan(4), root, seed=2)
    _assert_halos_match_scan(city)
    seen = {sid: set(roster) for sid, roster in city._stations.items()}
    retired = opened = 0
    rosters = {}
    with city:
        for epoch, supervised in zip(epochs[:3], (0, 1, 0)):
            if supervised:
                reports = [s.report for s in FleetSupervisor(city).serve(epoch).reports]
            else:
                reports = city.serve(epoch).reports
            for report in reports:
                now = set(report.stations)
                retired += len(seen[report.shard_id] - now)
                opened += len(now - seen[report.shard_id])
                seen[report.shard_id] = now
                rosters[report.shard_id] = report.stations
            _assert_halos_match_scan(city)
            assert (root / "halo.json").read_bytes() == _halo_bytes(
                {sid: rosters.get(sid, city._stations[sid]) for sid in city._stations}
            )
    # The fleet exercised both roster changes the cache must follow.
    assert retired and opened

    recovered = ShardedRuntime.recover(root)
    _assert_halos_match_scan(recovered)
    assert recovered._halo_for(0) == city._halo_for(0)
    with recovered:
        recovered.serve(epochs[3])
    _assert_halos_match_scan(recovered)


def test_known_stations_are_located_once(tmp_path, monkeypatch):
    city = make_city(make_plan(3), tmp_path / "city", seed=4)
    located = []
    locate = ShardPlan.cell_index_of_many

    def spy(self, xs, ys):
        located.append(len(np.atleast_1d(xs)))
        return locate(self, xs, ys)

    monkeypatch.setattr(ShardPlan, "cell_index_of_many", spy)
    for sid in range(city.plan.n_shards):
        city._halo_for(sid)
    assert located == []

    roster = list(city._stations[1])
    moved = (roster[0][0], roster[0][1] + 1.0, roster[0][2])
    city._set_rosters({
        1: [moved] + roster[2:] + [(999, 10.0, 20.0)],
        2: city._stations[2],
    })
    # One call for both shards, on the new station and the moved one.
    assert located == [2]
    _assert_halos_match_scan(city)
