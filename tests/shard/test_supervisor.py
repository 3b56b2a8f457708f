"""Tests for repro.shard.supervisor (the self-healing fleet layer)."""

import json

import pytest

from repro.guard.runtime import DEGRADED, HALTED, HEALTHY
from repro.shard import (
    QUARANTINED,
    FleetSupervisor,
    QuarantinedBlock,
    ShardRouter,
    SupervisorConfig,
)
from repro.resilience import FaultFS, FaultFSConfig, TripJournal
from repro.shard import runtime as runtime_module

from .conftest import make_city, make_plan, make_trips

BLOCK = 8


def _no_sleep(_s):
    pass


def _supervised(city, hook=None, **overrides):
    config = SupervisorConfig(backoff_base_s=0.0, **overrides)
    return FleetSupervisor(
        city, config=config, sleep=_no_sleep, pre_block_hook=hook
    )


def _journal_ids(path):
    return {e.trip.order_id for e in TripJournal(path, durable=False).scan()}


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": 0},
            {"poison_retries": 0},
            {"backoff_base_s": -1.0},
            {"backoff_cap_s": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


class TestFaultFreeParity:
    def test_bit_identical_to_plain_fleet(self, tmp_path):
        trips = make_trips(60, seed=3)
        plan = make_plan(3)
        plain = make_city(plan, tmp_path / "plain", seed=3)
        expected = plain.serve(trips, block_size=BLOCK)
        city = make_city(make_plan(3), tmp_path / "sup", seed=3)
        supervisor = _supervised(city)
        outcome = supervisor.serve(trips, block_size=BLOCK)

        assert outcome.health == HEALTHY
        assert outcome.restarts == 0 and not outcome.quarantined
        assert supervisor.incidents.total == 0
        by_id = {r.shard_id: r for r in outcome.reports}
        for report in expected.reports:
            supervised = by_id[report.shard_id]
            assert supervised.state == HEALTHY and supervised.restarts == 0
            assert supervised.report.outcomes == report.outcomes
            assert supervised.report.applied_seq == report.applied_seq
            plain_journal = (
                tmp_path / "plain" / f"shard-{report.shard_id:03d}" / "journal.jsonl"
            )
            sup_journal = (
                tmp_path / "sup" / f"shard-{report.shard_id:03d}" / "journal.jsonl"
            )
            assert sup_journal.read_bytes() == plain_journal.read_bytes()

    def test_post_epoch_scrub_runs_clean(self, tmp_path):
        city = make_city(make_plan(2), tmp_path / "c", seed=1)
        outcome = _supervised(city).serve(make_trips(30, seed=1), block_size=BLOCK)
        assert outcome.scrub is not None and outcome.scrub.clean

    def test_scrub_can_be_disabled(self, tmp_path):
        city = make_city(make_plan(2), tmp_path / "c", seed=1)
        supervisor = _supervised(city, scrub_after_epoch=False)
        outcome = supervisor.serve(make_trips(30, seed=1), block_size=BLOCK)
        assert outcome.scrub is None

    def test_clean_epochs_write_no_scrub_log(self, tmp_path):
        city = make_city(make_plan(2), tmp_path / "c", seed=1)
        supervisor = _supervised(city)
        trips = make_trips(90, seed=1)
        for lo in range(0, len(trips), 30):
            outcome = supervisor.serve(trips[lo : lo + 30], block_size=BLOCK)
            assert outcome.scrub is not None and outcome.scrub.clean
        city.close()
        assert not list((tmp_path / "c").rglob("scrub.jsonl"))

    def test_failed_post_epoch_scrub_is_an_incident(self, tmp_path):
        city = make_city(make_plan(2), tmp_path / "c", seed=1)
        supervisor = _supervised(city)
        trips = make_trips(60, seed=1)
        supervisor.serve(trips[:30], block_size=BLOCK)
        # An orphan tmp gives the next post-epoch scrub a finding to log;
        # that log append is the only write this schedule hits.
        (tmp_path / "c" / "shard-000" / "planted.tmp-1").write_text("orphan")
        fs = FaultFS(FaultFSConfig(p_enospc=1.0, match="scrub.jsonl"))
        with fs.inject():
            outcome = supervisor.serve(trips[30:], block_size=BLOCK)
        city.close()
        assert fs.counters.enospc == 1
        assert outcome.health == HEALTHY and outcome.scrub is None
        assert [(i.kind, "ENOSPC" in i.detail) for i in supervisor.incidents] == [
            ("scrub", True)
        ]


class TestTransientFault:
    def test_restart_heals_and_degrades(self, tmp_path):
        trips = make_trips(60, seed=3)
        plain = make_city(make_plan(3), tmp_path / "plain", seed=3)
        plain.serve(trips, block_size=BLOCK)

        def hook(sid, epoch, generation, block):
            if sid == 1 and generation == 0:
                raise RuntimeError("injected first-attempt crash")

        city = make_city(make_plan(3), tmp_path / "sup", seed=3)
        supervisor = _supervised(city, hook=hook)
        outcome = supervisor.serve(trips, block_size=BLOCK)

        by_id = {r.shard_id: r for r in outcome.reports}
        assert by_id[1].state == DEGRADED and by_id[1].restarts == 1
        assert outcome.health == DEGRADED
        assert all(r.restarts == 0 for r in outcome.reports if r.shard_id != 1)
        assert supervisor.incidents.total > 0
        # The healed shard's journal is byte-identical to the plain run:
        # restart-from-start re-served the whole bucket through the
        # duplicate screen.
        assert (
            (tmp_path / "sup" / "shard-001" / "journal.jsonl").read_bytes()
            == (tmp_path / "plain" / "shard-001" / "journal.jsonl").read_bytes()
        )
        assert (tmp_path / "sup" / "logs" / "incidents.jsonl").exists()

    def test_mid_generation_fault_resumes_with_dedup(self, tmp_path):
        trips = make_trips(60, seed=3)
        fired = []

        def hook(sid, epoch, generation, block):
            if sid == 1 and generation <= 1 and block == 1:
                fired.append((generation, block))
                raise RuntimeError("injected")

        city = make_city(make_plan(3), tmp_path / "c", seed=3)
        supervisor = _supervised(city, hook=hook)
        outcome = supervisor.serve(trips, block_size=BLOCK)
        by_id = {r.shard_id: r for r in outcome.reports}
        assert fired == [(0, 1), (1, 1)]
        assert by_id[1].restarts == 2 and by_id[1].state == DEGRADED
        bucket = ShardRouter(city.plan).split_trips(trips)[1]
        journal = tmp_path / "c" / "shard-001" / "journal.jsonl"
        assert _journal_ids(journal) == {t.order_id for t in bucket}


class TestPoisonQuarantine:
    def _run(self, tmp_path, trips_n=60, poison_block=1, **overrides):
        trips = make_trips(trips_n, seed=3)

        def hook(sid, epoch, generation, block):
            if sid == 1 and (generation == 0 or block == poison_block):
                raise RuntimeError("poisoned planner input")

        city = make_city(make_plan(3), tmp_path / "c", seed=3)
        supervisor = _supervised(city, hook=hook, **overrides)
        outcome = supervisor.serve(trips, block_size=BLOCK)
        return trips, city, supervisor, outcome

    def test_block_quarantined_with_provenance(self, tmp_path):
        trips, city, supervisor, outcome = self._run(tmp_path, poison_retries=2)
        by_id = {r.shard_id: r for r in outcome.reports}
        report = by_id[1]
        assert report.state == QUARANTINED
        assert outcome.health == QUARANTINED
        assert len(report.quarantined) == 1
        row = report.quarantined[0]
        bucket = ShardRouter(city.plan).split_trips(trips)[1]
        expected_ids = tuple(
            t.order_id for t in bucket[1 * BLOCK : 2 * BLOCK]
        )
        assert row.order_ids == expected_ids
        assert row.shard_id == 1 and row.epoch == 1 and row.block_index == 1
        assert row.attempts == 2
        assert "poisoned" in row.error
        # Everything else in the bucket is journaled; the poison block is
        # exactly absent (it never reached the WAL in any generation).
        journal = tmp_path / "c" / "shard-001" / "journal.jsonl"
        assert _journal_ids(journal) == (
            {t.order_id for t in bucket} - set(expected_ids)
        )
        assert row.journaled == 0

    def test_ledger_persisted_and_reloaded(self, tmp_path):
        _, city, supervisor, outcome = self._run(tmp_path, poison_retries=2)
        ledger = tmp_path / "c" / "quarantine.jsonl"
        rows = [
            QuarantinedBlock.from_json(json.loads(l))
            for l in ledger.read_text().splitlines()
        ]
        assert rows == list(supervisor.quarantine)

        recovered = FleetSupervisor.recover(
            tmp_path / "c", config=SupervisorConfig(backoff_base_s=0.0),
            sleep=_no_sleep,
        )
        assert recovered.quarantine == rows
        assert recovered.epoch == 1  # epoch counter resumes past the ledger
        assert "quarantined block" in recovered.health_summary()

    def test_epoch_counter_survives_clean_epochs_and_recovery(self, tmp_path):
        # Clean epochs leave no ledger row, so the counter must be
        # recorded on its own or a recovered supervisor restarts at 1.
        trips = make_trips(160, seed=3)
        city = make_city(make_plan(2), tmp_path / "c", seed=3)
        supervisor = _supervised(city)
        for epoch in range(3):
            outcome = supervisor.serve(
                trips[40 * epoch : 40 * (epoch + 1)], block_size=BLOCK
            )
            assert outcome.restarts == 0 and not outcome.quarantined

        def hook(sid, epoch, generation, block):
            if sid == 1 and (generation == 0 or block == 1):
                raise RuntimeError("poisoned planner input")

        recovered = FleetSupervisor.recover(
            tmp_path / "c", config=SupervisorConfig(backoff_base_s=0.0),
            sleep=_no_sleep, pre_block_hook=hook,
        )
        assert recovered.epoch == 3
        outcome = recovered.serve(trips[120:], block_size=BLOCK)
        assert [row.epoch for row in outcome.quarantined] == [4]
        incidents = [
            json.loads(line)
            for line in (tmp_path / "c" / "logs" / "incidents.jsonl")
            .read_text()
            .splitlines()
        ]
        assert incidents and {row["seq"] for row in incidents} == {4}

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("size", [1, 7])
    def test_poison_anywhere_in_the_bucket(self, tmp_path, where, size):
        trips = make_trips(60, seed=3)
        city = make_city(make_plan(3), tmp_path / "c", seed=3)
        bucket = ShardRouter(city.plan).split_trips(trips)[1]
        n_chunks = -(-len(bucket) // size)
        poison = {"first": 0, "middle": n_chunks // 2, "last": n_chunks - 1}[where]

        def hook(sid, epoch, generation, block):
            if sid == 1 and (generation == 0 or block == poison):
                raise RuntimeError("poisoned planner input")

        supervisor = _supervised(city, hook=hook, poison_retries=2)
        outcome = supervisor.serve(trips, block_size=size)
        report = {r.shard_id: r for r in outcome.reports}[1]
        chunk = tuple(t.order_id for t in bucket[poison * size : (poison + 1) * size])
        assert [(q.block_index, q.order_ids) for q in report.quarantined] == [
            (poison, chunk)
        ]
        assert report.quarantined[0].attempts == 2
        assert report.quarantined[0].journaled == 0
        # The first attempt, then two failed generations, then the one
        # that skips the poison chunk.
        assert report.restarts == 3 and report.state == QUARANTINED
        journal = tmp_path / "c" / "shard-001" / "journal.jsonl"
        ids = [e.trip.order_id for e in TripJournal(journal, durable=False).scan()]
        assert len(ids) == len(set(ids))
        assert set(ids) == {t.order_id for t in bucket} - set(chunk)

    def test_unaffected_shards_keep_serving(self, tmp_path):
        trips, city, _, outcome = self._run(tmp_path, poison_retries=2)
        buckets = ShardRouter(city.plan).split_trips(trips)
        for report in outcome.reports:
            if report.shard_id == 1:
                continue
            assert report.state == HEALTHY and report.restarts == 0
            assert report.report.served + report.report.duplicates == len(
                buckets[report.shard_id]
            )


class TestHaltPath:
    def test_budget_exhaustion_halts_only_that_shard(self, tmp_path, monkeypatch):
        trips = make_trips(60, seed=3)
        build = runtime_module.build_shard_runtime

        def broken(spec, directory):
            if spec.shard_id == 1:
                raise RuntimeError("recovery permanently broken")
            return build(spec, directory)

        monkeypatch.setattr(runtime_module, "build_shard_runtime", broken)
        city = make_city(make_plan(3), tmp_path / "c", seed=3)
        supervisor = FleetSupervisor(
            city,
            config=SupervisorConfig(backoff_base_s=0.0, max_restarts=2),
            sleep=_no_sleep,
        )
        outcome = supervisor.serve(trips, block_size=BLOCK)
        by_id = {r.shard_id: r for r in outcome.reports}
        assert by_id[1].state == HALTED and by_id[1].report is None
        assert by_id[1].restarts == 2
        assert "permanently broken" in by_id[1].error
        assert outcome.health == HALTED
        for sid, report in by_id.items():
            if sid != 1:
                assert report.state == HEALTHY
        assert supervisor.health[1] == HALTED
        assert "shard 001: halted" in supervisor.health_summary()

    def test_backoff_sleeps_only_on_failures(self, tmp_path):
        sleeps = []

        def hook(sid, epoch, generation, block):
            if sid == 1 and generation == 0:
                raise RuntimeError("one crash")

        city = make_city(make_plan(3), tmp_path / "c", seed=3)
        supervisor = FleetSupervisor(
            city,
            config=SupervisorConfig(backoff_base_s=0.5, seed=9),
            sleep=sleeps.append,
            pre_block_hook=hook,
        )
        supervisor.serve(make_trips(60, seed=3), block_size=BLOCK)
        assert len(sleeps) == 1
        assert 0.5 <= sleeps[0] < 1.0  # base * jitter in [1, 2)
