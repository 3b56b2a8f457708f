"""Resident shards: serial epochs reuse each shard's open service.

A reused shard must serve exactly as one recovered from disk before
every epoch: same reports, referrals, journal, ledger and halo bytes,
same recovered state.  A shard whose epoch failed, or whose directory
someone else wrote to, is recovered instead; ``open_shard`` and
``close`` release every open shard.  Supervised epochs run the same
epoch body on the same resident services: only a faulted shard
recovers.
"""

import numpy as np
import pytest

from repro.errors import StateDriftError
from repro.gauntlet import city
from repro.gauntlet.rows import HOSTILE
from repro.guard import GuardedRuntime
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.resilience.faultfs import FaultFS, FaultFSConfig
from repro.resilience.journal import TripJournal
from repro.shard import (
    FleetSupervisor,
    ShardedRuntime,
    ShardedServeOutcome,
    SupervisorConfig,
    build_shard_runtime,
)
from repro.stats.ks2d import CachedKS2D

N_SHARDS = 3


@pytest.fixture
def journals(monkeypatch):
    """Every journal that appended during the test."""
    seen = []
    append = TripJournal.append_block

    def spy(self, *args, **kwargs):
        seen.append(self)
        return append(self, *args, **kwargs)

    monkeypatch.setattr(TripJournal, "append_block", spy)
    return seen


@pytest.fixture
def recoveries(monkeypatch):
    """Shard ids recovered from disk in this process, in call order."""
    seen = []
    recover = GuardedRuntime.recover.__func__

    def spy(cls, directory, *args, **kwargs):
        seen.append(int(str(directory)[-3:]))
        return recover(cls, directory, *args, **kwargs)

    monkeypatch.setattr(GuardedRuntime, "recover", classmethod(spy))
    return seen


@pytest.fixture
def ks_faults(monkeypatch):
    """Make the planners' KS test fail on about a third of its calls,
    as a function of the live sample alone; counts the failures."""
    failed = []
    test = CachedKS2D.test

    def flaky(self, live):
        if int(abs(float(np.asarray(live).sum()))) % 3 == 0:
            failed.append(1)
            raise RuntimeError("injected KS failure")
        return test(self, live)

    monkeypatch.setattr(CachedKS2D, "test", flaky)
    return failed


def _epochs(stream, n):
    cut = len(stream) // n
    return [stream[i * cut:(i + 1) * cut if i < n - 1 else None] for i in range(n)]


def _chaos_epochs(seed):
    injector = FaultInjector(ChaosConfig(seed=seed, **HOSTILE))
    return _epochs(injector.mutate_trips(city.trips(900, seed)), 4)


def _shard_files(root, name):
    return {
        path.parent.name: path.read_bytes()
        for path in sorted(root.glob(f"shard-*/{name}"))
    }


def _disk(root):
    return (
        _shard_files(root, "journal.jsonl"),
        _shard_files(root, "responses.jsonl"),
        (root / "halo.json").read_bytes(),
    )


#: ``(supervised, checkpoint)`` per epoch.  After an epoch without its
#: checkpoint the next one must recover: replaying the journal tail
#: moves the KS guard's breaker and last good result, which matters
#: once a KS test fails.
SCHEDULES = {
    "mixed": ((False, True), (False, False), (True, True), (False, True)),
    "serial": ((False, True), (False, True), (False, True), (False, True)),
    "crash": ((False, True), (False, False), (False, True), (False, True)),
}


def _serve(fleet, trips, supervised, checkpoint):
    """One epoch, plain or through a supervisor over the same fleet."""
    if not supervised:
        return fleet.serve(trips, checkpoint=checkpoint)
    outcome = FleetSupervisor(fleet).serve(trips, checkpoint=checkpoint)
    reports = tuple(s.report for s in outcome.reports)
    return ShardedServeOutcome(
        reports=reports, referrals=tuple(r for rep in reports for r in rep.referrals)
    )


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("seed", [0, 1])
def test_reused_shards_match_shards_recovered_every_epoch(
    tmp_path, recoveries, ks_faults, schedule, seed
):
    epochs = _chaos_epochs(seed)
    steps = SCHEDULES[schedule]

    ref_root = tmp_path / "recovered"
    reference = city.fleet(N_SHARDS, ref_root, seed)
    expected = []
    for e, (trips, (_, checkpoint)) in enumerate(zip(epochs, steps)):
        if e:
            reference.close()
            reference = ShardedRuntime.recover(ref_root)
        expected.append(reference.serve(trips, checkpoint=checkpoint))
    reference.close()
    recovered_each_epoch = len(recoveries)

    root = tmp_path / "resident"
    recoveries.clear()
    fleet = city.fleet(N_SHARDS, root, seed)
    for trips, (supervised, checkpoint), want in zip(epochs, steps, expected):
        got = _serve(fleet, trips, supervised, checkpoint)
        assert got.reports == want.reports
        assert got.referrals == want.referrals
    fleet.close()

    assert sum(r.deadlettered for o in expected for r in o.reports) > 0
    assert ks_faults
    assert len(recoveries) < recovered_each_epoch
    if schedule == "serial":
        assert recoveries == []
    assert _disk(root) == _disk(ref_root)
    assert city.fleet_image(fleet) == city.fleet_image(reference)


def test_failed_epoch_closes_its_journal_and_is_not_reused(
    tmp_path, monkeypatch, journals, recoveries
):
    trips = city.trips(300, 4)
    fleet = city.fleet(N_SHARDS, tmp_path)
    fleet.serve(trips[:100])
    assert recoveries == []

    def broken(self):
        raise StateDriftError("injected after the epoch was journaled")

    with monkeypatch.context() as patch:
        patch.setattr(GuardedRuntime, "consistency_check", broken)
        journals.clear()
        with pytest.raises(StateDriftError):
            fleet.serve(trips[100:200])
        # The first shard journaled its bucket, then failed.
        assert len({id(j) for j in journals}) == 1
        assert journals[0]._writer._fh is None

    # Shard 0 failed: it comes back from disk.  Shards 1 and 2 are reused.
    recoveries.clear()
    fleet.serve(trips[200:])
    fleet.close()
    assert recoveries == [0]
    assert all(j._writer._fh is None for j in journals)


def test_one_owner_per_shard_directory(tmp_path, journals):
    e1, e2, e3, e4 = _epochs(city.trips(800, 9), 4)

    plain = city.fleet(N_SHARDS, tmp_path / "plain")
    want = [plain.serve(e) for e in (e1, e2, e3, e4)]
    plain.close()

    # A supervised epoch between two fleet epochs.
    root = tmp_path / "supervised"
    fleet = city.fleet(N_SHARDS, root)
    assert fleet.serve(e1).reports == want[0].reports
    supervised = FleetSupervisor(fleet).serve(e2)
    assert tuple(r.report for r in supervised.reports) == want[1].reports
    assert fleet.serve(e3).reports == want[2].reports
    assert fleet.serve(e4).reports == want[3].reports
    fleet.close()
    assert _shard_files(root, "journal.jsonl") == _shard_files(
        tmp_path / "plain", "journal.jsonl"
    )
    assert city.fleet_image(fleet) == city.fleet_image(plain)

    # Another runtime over the same root serves an epoch: the first
    # one's open shards no longer match their directories.
    root = tmp_path / "shared"
    with city.fleet(N_SHARDS, root) as fleet:
        fleet.serve(e1)
        with ShardedRuntime.recover(root) as other:
            other.serve(e2)
        for epoch, expected in ((e3, want[2]), (e4, want[3])):
            for got, report in zip(fleet.serve(epoch).reports, expected.reports):
                assert got.outcomes == report.outcomes
    assert _shard_files(root, "journal.jsonl") == _shard_files(
        tmp_path / "plain", "journal.jsonl"
    )

    # A shard opened and served between two fleet epochs.
    root = tmp_path / "opened"
    fleet = city.fleet(N_SHARDS, root)
    fleet.serve(e1)
    buckets = fleet.router.split_trips(e2)
    opened = fleet.open_shard(1)
    opened.serve(buckets[1])
    opened.inner.checkpoint()
    opened.close()
    ref_root = tmp_path / "opened-ref"
    reference = city.fleet(N_SHARDS, ref_root)
    reference.serve(e1)
    reference.close()
    alone = ShardedRuntime.recover(ref_root).open_shard(1)
    alone.serve(buckets[1])
    alone.inner.checkpoint()
    alone.close()
    reference = ShardedRuntime.recover(ref_root)
    for got, expected in zip(fleet.serve(e3).reports, reference.serve(e3).reports):
        assert got.outcomes == expected.outcomes
    fleet.close()
    reference.close()
    assert _shard_files(root, "journal.jsonl") == _shard_files(
        ref_root, "journal.jsonl"
    )
    assert city.fleet_image(fleet) == city.fleet_image(reference)

    assert journals and all(j._writer._fh is None for j in journals)


def test_serve_takes_one_worker(tmp_path):
    with city.fleet(N_SHARDS, tmp_path) as fleet:
        with pytest.raises(ValueError, match="workers must be 1"):
            fleet.serve(city.trips(50, 2), workers=2)


def _supervisor(fleet, **kwargs):
    return FleetSupervisor(
        fleet, config=SupervisorConfig(backoff_base_s=0.0),
        sleep=lambda _s: None, **kwargs,
    )


def test_clean_supervised_epochs_stay_resident(tmp_path, recoveries):
    epochs = _epochs(city.trips(1200, 5), 6)
    plain = city.fleet(N_SHARDS, tmp_path / "plain", 5, durable=True)
    fleet = city.fleet(N_SHARDS, tmp_path / "supervised", 5, durable=True)
    supervisor = _supervisor(fleet)
    assert supervisor.config.scrub_after_epoch
    with plain, fleet:
        for trips in epochs:
            want = plain.serve(trips)
            got = supervisor.serve(trips)
            assert not got.restarts and got.scrub.clean
            assert tuple(s.report for s in got.reports) == want.reports
            # Journal, ledger and halo bytes after every epoch.
            assert _disk(fleet.directory) == _disk(plain.directory)
    # Genesis builds each shard; no later epoch recovers one.
    assert recoveries == []


def test_a_faulted_shard_alone_recovers(tmp_path, recoveries):
    e1, e2, e3, e4 = _epochs(city.trips(800, 6), 4)
    plain = city.fleet(N_SHARDS, tmp_path / "plain", 6, durable=True)
    fleet = city.fleet(N_SHARDS, tmp_path / "supervised", 6, durable=True)
    supervisor = _supervisor(fleet)
    with plain, fleet:
        plain.serve(e1)
        supervisor.serve(e1)
        plain.serve(e2)
        fs = FaultFS(FaultFSConfig(
            p_fsync=1.0, match="supervised/shard-001/journal.jsonl", max_faults=1
        ))
        with fs.inject():
            outcome = supervisor.serve(e2)
        assert fs.counters.fsync == 1
        assert [r.restarts for r in outcome.reports] == [0, 1, 0]
        assert recoveries == [1]
        # The healed shard ended its epoch with its checkpoint, so it
        # stays resident like the others: no later epoch recovers.
        recoveries.clear()
        for trips in (e3, e4):
            want = plain.serve(trips)
            got = supervisor.serve(trips)
            assert tuple(s.report for s in got.reports) == want.reports
            assert recoveries == []
            assert _disk(fleet.directory) == _disk(plain.directory)


def test_hook_fault_releases_the_resident_journal(tmp_path, monkeypatch, journals):
    e1, e2 = _epochs(city.trips(400, 7), 2)
    released = []

    def hook(sid, epoch, generation, block):
        if (sid, epoch, generation, block) == (1, 2, 0, 0):
            raise RuntimeError("injected before the first chunk")

    def build(spec, directory):
        released.append(resident._writer._fh is None)
        return build_shard_runtime(spec, directory)

    fleet = city.fleet(N_SHARDS, tmp_path)
    supervisor = _supervisor(fleet, pre_block_hook=hook)
    supervisor.serve(e1)
    resident = fleet._resident[1].service.journal
    assert resident._writer._fh is not None
    monkeypatch.setattr("repro.shard.runtime.build_shard_runtime", build)
    outcome = supervisor.serve(e2)
    fleet.close()
    assert [r.restarts for r in outcome.reports] == [0, 1, 0]
    assert released == [True]
    assert journals and all(j._writer._fh is None for j in journals)
