"""A trip whose ``start`` or ``end`` is not a point is dead-lettered.

Such a row cannot form a columnar block, so it takes the same route as
any other unblockable row: the validator dead-letters it under its
``malformed`` rule at its own position in the offered stream, and every
other row is served exactly as in a stream without it.
"""

from dataclasses import replace

import pytest

from repro.gauntlet import city
from repro.guard import GuardedRuntime
from repro.resilience import CheckpointingService, constant_cost_spec

from .conftest import COST_VALUE, build_service, guard_config, make_trips

#: Positions of the two pointless rows in the 120-trip stream.
BAD_AT = (30, 77)


def with_pointless_rows(trips):
    """``trips`` plus one row with no end and one with no start."""
    out = list(trips)
    no_end = replace(trips[BAD_AT[0]], order_id=10_000, end=None)
    no_start = replace(trips[BAD_AT[1]], order_id=10_001, start=None)
    out.insert(BAD_AT[1], no_start)
    out.insert(BAD_AT[0], no_end)
    return out


def _guarded(directory):
    inner = CheckpointingService(
        build_service(seed=7), directory, checkpoint_every=25, durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )
    return GuardedRuntime(inner, guard_config())


@pytest.mark.parametrize("block_size", [1, 16, None])
def test_guarded_runtime_dead_letters_pointless_rows(tmp_path, block_size):
    clean = make_trips(120, seed=3)
    reference = _guarded(tmp_path / "clean")
    expected = reference.serve(clean, block_size=block_size)
    reference.close()

    runtime = _guarded(tmp_path / "bad")
    outcomes = runtime.serve(with_pointless_rows(clean), block_size=block_size)
    runtime.consistency_check()
    runtime.close()

    assert outcomes == expected
    assert runtime.validator.counters["malformed"] == 2
    assert runtime.sink.total == 2
    assert sorted(row.order_id for row in runtime.sink.rows) == [10_000, 10_001]
    assert all(row.rule == "malformed" for row in runtime.sink.rows)
    assert (tmp_path / "bad" / "journal.jsonl").read_bytes() == (
        tmp_path / "clean" / "journal.jsonl"
    ).read_bytes()


def test_sharded_runtime_dead_letters_pointless_rows(tmp_path):
    clean = city.trips(240, seed=5)
    reference = city.fleet(3, tmp_path / "clean")
    expected = reference.serve(clean)
    reference.close()

    fleet = city.fleet(3, tmp_path / "bad")
    outcome = fleet.serve(with_pointless_rows(clean))
    fleet.close()

    assert outcome.deadlettered == 2
    assert sum(r.offered for r in outcome.reports) == len(clean) + 2
    by_id = {r.shard_id: r for r in expected.reports}
    for report in outcome.reports:
        want = by_id[report.shard_id]
        assert report.outcomes == want.outcomes
        assert report.referrals == want.referrals
        assert report.served == want.served
    assert outcome.referrals == expected.referrals
    assert city.shard_journals(tmp_path / "bad") == city.shard_journals(
        tmp_path / "clean"
    )
