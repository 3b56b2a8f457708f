"""A shard's dead-letter log keeps every epoch, each row once.

Every shard-epoch builds a fresh guard layer, so its dead-letter sink
starts empty; ``flush_logs`` appends that epoch's rows to
``deadletter.jsonl`` instead of rewriting the file.  On disk, each
shard's rows must equal the sum of the ``deadlettered`` counts it
reported, through plain and supervised epochs, supervised restarts and
repeated flushes of one runtime.
"""

import json
from dataclasses import replace

import pytest

from repro.gauntlet import city
from repro.gauntlet.rows import HOSTILE
from repro.guard import GuardedRuntime
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.resilience.service import CheckpointingService, constant_cost_spec
from repro.shard import FleetSupervisor, SupervisorConfig

from .conftest import make_city, make_plan


def _hostile(n, seed):
    injector = FaultInjector(ChaosConfig(seed=seed, **HOSTILE))
    return injector.mutate_trips(city.trips(n, seed))


def _epochs(stream, n):
    cut = len(stream) // n
    return [stream[i * cut:(i + 1) * cut if i < n - 1 else None] for i in range(n)]


def _log_lines(root, sid):
    path = root / f"shard-{sid:03d}" / "logs" / "deadletter.jsonl"
    return path.read_text().splitlines() if path.exists() else []


@pytest.mark.parametrize("seed", [0, 1])
def test_every_epoch_is_kept(tmp_path, seed):
    root = tmp_path / "city"
    reported = {}
    with make_city(make_plan(4), root, seed=seed) as fleet:
        supervisor = FleetSupervisor(fleet)
        for part, supervised in zip(_epochs(_hostile(1600, seed), 4), (0, 1, 0, 1)):
            if supervised:
                reports = [s.report for s in supervisor.serve(part).reports]
            else:
                reports = fleet.serve(part).reports
            for report in reports:
                reported[report.shard_id] = (
                    reported.get(report.shard_id, 0) + report.deadlettered
                )
    assert sum(reported.values()) > 0
    for sid, count in reported.items():
        lines = _log_lines(root, sid)
        assert len(lines) == count
        assert len(set(lines)) == len(lines)


def test_supervised_restart_writes_no_row_twice(tmp_path):
    fired = []

    def hook(sid, epoch, generation, block):
        if sid == 1 and epoch == 2 and generation == 0 and not fired:
            fired.append(block)
            raise RuntimeError("injected first-attempt crash")

    root = tmp_path / "sup"
    supervisor = FleetSupervisor(
        make_city(make_plan(3), root, seed=3),
        config=SupervisorConfig(backoff_base_s=0.0),
        sleep=lambda _s: None,
        pre_block_hook=hook,
    )
    reported = {}
    for part in _epochs(_hostile(900, 3), 3):
        outcome = supervisor.serve(part, block_size=32)
        for supervised in outcome.reports:
            report = supervised.report
            reported[report.shard_id] = (
                reported.get(report.shard_id, 0) + report.deadlettered
            )
    assert fired and supervisor.total_restarts == 1
    assert reported[1] > 0
    for sid, count in reported.items():
        lines = _log_lines(root, sid)
        assert len(lines) == count
        assert len(set(lines)) == len(lines)


def _runtime(directory, **guard):
    inner = CheckpointingService(
        city.service(0), directory, checkpoint_every=500, durable=False,
        facility_cost_spec=constant_cost_spec(city.COST_VALUE),
    )
    return GuardedRuntime(inner, replace(city.guard_config(), **guard))


def test_repeated_flushes_write_each_row_once(tmp_path):
    stream = _hostile(600, 5)
    runtime = _runtime(tmp_path / "svc")
    logs = tmp_path / "logs"
    runtime.serve(stream[:300])
    runtime.flush_logs(logs, durable=False)
    runtime.flush_logs(logs, durable=False)
    first = runtime.sink.total
    assert first > 0
    runtime.serve(stream[300:])
    runtime.flush_logs(logs, durable=False)
    runtime.flush_logs(logs, durable=False)
    runtime.close()
    rows = [json.loads(line) for line in (logs / "deadletter.jsonl").read_text().splitlines()]
    assert runtime.sink.total > first
    assert len(rows) == runtime.sink.total
    assert [(r["seq"], r["order_id"]) for r in rows] == [
        (r.seq, r.order_id) for r in runtime.sink.rows
    ]


def test_clean_flush_writes_and_syncs_nothing(tmp_path, monkeypatch):
    import repro.ioutil as ioutil

    synced = []
    fsync = ioutil.fs_fsync
    monkeypatch.setattr(
        ioutil, "fs_fsync", lambda fileno, path: (synced.append(path), fsync(fileno, path))
    )
    runtime = _runtime(tmp_path / "svc")
    runtime.serve(city.trips(50, 0))
    runtime.flush_logs(tmp_path / "logs", durable=True)
    runtime.close()
    assert synced == []
    assert (tmp_path / "logs" / "deadletter.jsonl").read_bytes() == b""
    assert (tmp_path / "logs" / "incidents.jsonl").read_bytes() == b""


def test_dead_letters_rotate_at_the_log_cap(tmp_path):
    runtime = _runtime(tmp_path / "svc", incident_log_max_bytes=2_000)
    logs = tmp_path / "logs"
    stream = _hostile(900, 6)
    for part in _epochs(stream, 6):
        runtime.serve(part)
        runtime.flush_logs(logs, durable=False)
    runtime.close()
    current = logs / "deadletter.jsonl"
    rotated = logs / "deadletter.1.jsonl"
    assert rotated.exists()
    assert current.stat().st_size <= 2_000
    kept = rotated.read_text().splitlines() + current.read_text().splitlines()
    tail = [
        json.dumps({
            "seq": r.seq, "rule": r.rule, "reason": r.reason,
            "order_id": r.order_id, "start_time": r.start_time,
        })
        for r in runtime.sink.rows
    ]
    # The two generations hold the newest rows, in flush order.
    assert kept == tail[len(tail) - len(kept):]
