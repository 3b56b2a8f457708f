"""Kill-at-every-block crash recovery on a 3-shard fleet.

The fleet is killed after every block boundary of the input stream —
before any end-of-epoch checkpoint runs, so recovery must rebuild each
shard purely from its genesis snapshot plus journal replay.  After
recovering and serving the remainder, every shard's journal bytes and
service state must match the run that never crashed.
"""

import json

import pytest

from repro.gauntlet import logical_state
from repro.guard import OverloadConfig
from repro.resilience import decode_snapshot, encode_snapshot
from repro.shard import ShardedRuntime
from repro.shard.runtime import PLAN_FILE

from .conftest import make_city, make_plan, make_trips

BLOCK = 32
N_TRIPS = 160


def _shard_journals(directory, n_shards):
    out = {}
    for sid in range(n_shards):
        path = directory / f"shard-{sid:03d}" / "journal.jsonl"
        out[sid] = path.read_bytes() if path.exists() else b""
    return out


def _shard_states(city, n_shards):
    out = {}
    for sid in range(n_shards):
        runtime = city.open_shard(sid)
        out[sid] = logical_state(runtime.inner.service)
        runtime.close()
    return out


@pytest.fixture(scope="module")
def no_fault(tmp_path_factory):
    root = tmp_path_factory.mktemp("no-fault")
    plan = make_plan(3)
    city = make_city(plan, root)
    city.serve(make_trips(N_TRIPS, seed=42))
    return {
        "journals": _shard_journals(root, 3),
        "states": _shard_states(city, 3),
    }


@pytest.mark.parametrize("kill_after", range(1, N_TRIPS // BLOCK))
def test_kill_at_block_boundary_recovers_bit_identically(
    tmp_path, no_fault, kill_after
):
    trips = make_trips(N_TRIPS, seed=42)
    cut = kill_after * BLOCK
    plan = make_plan(3)
    city = make_city(plan, tmp_path)
    # Serve the prefix with checkpointing suppressed, then drop the
    # object on the floor: the journal tail is the only durable record.
    city.serve(trips[:cut], checkpoint=False)
    del city

    recovered = ShardedRuntime.recover(tmp_path)
    recovered.serve(trips[cut:])

    assert _shard_journals(tmp_path, 3) == no_fault["journals"]
    assert _shard_states(recovered, 3) == no_fault["states"]


def test_double_crash_still_recovers(tmp_path):
    # Crash twice at different depths; the final state must still match
    # a straight-through run.
    trips = make_trips(N_TRIPS, seed=43)
    plan = make_plan(3)

    straight_dir = tmp_path / "straight"
    straight = make_city(plan, straight_dir)
    straight.serve(trips)

    crashed_dir = tmp_path / "crashed"
    city = make_city(plan, crashed_dir)
    city.serve(trips[:48], checkpoint=False)
    del city
    city = ShardedRuntime.recover(crashed_dir)
    city.serve(trips[48:112], checkpoint=False)
    del city
    city = ShardedRuntime.recover(crashed_dir)
    city.serve(trips[112:])

    assert _shard_journals(crashed_dir, 3) == _shard_journals(straight_dir, 3)
    assert _shard_states(city, 3) == _shard_states(straight, 3)


def test_recover_refuses_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        ShardedRuntime.recover(tmp_path / "nowhere")


def test_root_in_the_previous_format_recovers(tmp_path):
    """A root whose ``shardplan.json`` still names the retired guard
    options and whose snapshot still says ``"dedup": true`` recovers, and
    its next epoch writes the bytes an untouched twin writes."""
    trips = make_trips(N_TRIPS, seed=44)
    overload = OverloadConfig(rate_per_s=1000.0)
    old, twin = tmp_path / "old", tmp_path / "twin"
    for root in (old, twin):
        with make_city(make_plan(2), root, durable=True, overload=overload) as city:
            city.serve(trips[: N_TRIPS // 2])

    manifest = json.loads((old / PLAN_FILE).read_text())
    guard = manifest["build"]["guard"]
    guard.update(deadletter_keep=10_000, incident_keep=10_000)
    guard["overload"]["shed_policy"] = "synthetic_first"
    guard["overload"]["ladder"].update(high_latency_s=0.0, low_latency_s=0.0)
    (old / PLAN_FILE).write_text(json.dumps(manifest, sort_keys=True))
    newest = sorted((old / "shard-000").glob("snapshot-*.json"))[-1]
    payload = decode_snapshot(newest.read_bytes())
    payload["dedup"] = True
    newest.write_bytes(encode_snapshot(payload))

    guards = []
    for root in (old, twin):
        with ShardedRuntime.recover(root) as city:
            guards.append(city.guard)
            city.serve(trips[N_TRIPS // 2 :])
    assert guards[0] == guards[1]
    names = ["halo.json"] + [
        f"shard-{sid:03d}/{name}"
        for sid in range(2)
        for name in ("journal.jsonl", "responses.jsonl")
    ]
    for name in names:
        assert (old / name).read_bytes() == (twin / name).read_bytes(), name
