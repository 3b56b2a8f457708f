"""Tests for repro.resilience.scrub (the storage integrity scrubber)."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.resilience import (
    CheckpointingService,
    FaultFS,
    FaultFSConfig,
    TripJournal,
    constant_cost_spec,
    decode_snapshot,
    encode_snapshot,
    logical_state,
    repair_journal_tail,
    scrub_checkpoint_dir,
    scrub_journal,
    scrub_ledger,
    scrub_snapshots,
    scrub_tree,
)

from .conftest import COST_VALUE, build_service, make_trips


def _checkpoint_dir(tmp_path, n=40, seed=7, checkpoint_every=15):
    """A real checkpoint directory: genesis + periodic snapshots + WAL."""
    service = CheckpointingService(
        build_service(seed=seed), tmp_path / "ckpt",
        checkpoint_every=checkpoint_every, durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )
    for trip in make_trips(n, seed=seed):
        service.handle_trip(trip)
    service.checkpoint()
    service.close()
    return tmp_path / "ckpt"


def _recovered_state(directory):
    service = CheckpointingService.recover(directory, durable=False)
    state = logical_state(service.service)
    service.close()
    return state


class TestScrubJournal:
    def test_clean_journal_untouched(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        journal = directory / "journal.jsonl"
        before = journal.read_bytes()
        assert scrub_journal(journal) == []
        assert journal.read_bytes() == before

    def test_missing_journal_is_fine(self, tmp_path):
        assert scrub_journal(tmp_path / "absent.jsonl") == []

    def test_torn_tail_repaired_to_replayable_prefix(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        journal = directory / "journal.jsonl"
        intact = journal.read_bytes()
        with open(journal, "ab") as f:
            f.write(b"0123456789abcdef {torn mid-append")
        findings = scrub_journal(journal, repair=True, durable=False)
        assert [(f.kind, f.action) for f in findings] == [
            ("journal_torn_tail", "repaired")
        ]
        assert journal.read_bytes() == intact
        TripJournal(journal, durable=False).scan()  # replayable again

    def test_check_mode_reports_without_writing(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        journal = directory / "journal.jsonl"
        with open(journal, "ab") as f:
            f.write(b"torn")
        damaged = journal.read_bytes()
        findings = scrub_journal(journal, repair=False)
        assert [(f.kind, f.action) for f in findings] == [
            ("journal_torn_tail", "found")
        ]
        assert journal.read_bytes() == damaged

    def test_midfile_damage_refused(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        journal = directory / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[1] = b"0123456789abcdef {damaged}\n"
        journal.write_bytes(b"".join(lines))
        before = journal.read_bytes()
        findings = scrub_journal(journal, repair=True, durable=False)
        assert [(f.kind, f.action) for f in findings] == [
            ("journal_midfile", "refused")
        ]
        assert journal.read_bytes() == before  # refusals never write

    def test_seq_jump_refused(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        journal = directory / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        del lines[1]  # drop a mid-file record: seqs jump
        journal.write_bytes(b"".join(lines))
        findings = scrub_journal(journal, repair=True, durable=False)
        assert [(f.kind, f.action) for f in findings] == [
            ("journal_seq_jump", "refused")
        ]

    def test_repair_journal_tail_alias(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        journal = directory / "journal.jsonl"
        with open(journal, "ab") as f:
            f.write(b"torn")
        findings = repair_journal_tail(journal, durable=False)
        assert findings and findings[0].action == "repaired"


class TestScrubFaultSeam:
    def _torn(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        with open(directory / "journal.jsonl", "ab") as f:
            f.write(b"0123456789abcdef {torn mid-append")
        return directory

    def test_durable_repair_writes_through_the_seam(self, tmp_path):
        directory = self._torn(tmp_path)
        fs = FaultFS()
        with fs.inject():
            report = scrub_checkpoint_dir(directory, repair=True, durable=True)
        assert [(f.kind, f.action) for f in report.findings] == [
            ("journal_torn_tail", "repaired")
        ]
        # The truncated journal's fsync, then logs/scrub.jsonl's append.
        assert (fs.counters.writes, fs.counters.fsyncs) == (1, 2)

    def test_failed_fsync_is_not_reported_repaired(self, tmp_path):
        directory = self._torn(tmp_path)
        fs = FaultFS(FaultFSConfig(p_fsync=1.0, match="journal.jsonl"))
        with fs.inject(), pytest.raises(OSError, match="injected fsync"):
            scrub_checkpoint_dir(directory, repair=True, durable=True)
        assert fs.counters.fsync == 1
        assert not (directory / "logs" / "scrub.jsonl").exists()


class TestScrubLedger:
    def test_torn_tail_repaired_and_recovery_unchanged(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        ledger = directory / "responses.jsonl"
        intact = ledger.read_bytes()
        expected = _recovered_state(directory)
        with open(ledger, "ab") as f:
            f.write(b"0123456789abcdef {torn mid-append")
        report = scrub_checkpoint_dir(directory, repair=True, durable=False)
        assert report.ledgers_checked == 1
        assert [(f.kind, f.action) for f in report.findings] == [
            ("ledger_torn_tail", "repaired")
        ]
        assert ledger.read_bytes() == intact
        assert _recovered_state(directory) == expected

    def test_midfile_damage_and_seq_jump_refused(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        ledger = directory / "responses.jsonl"
        lines = ledger.read_bytes().splitlines(keepends=True)
        for damaged, kind in (
            (lines[:1] + [b"0123456789abcdef {damaged}\n"] + lines[2:], "ledger_midfile"),
            (lines[:1] + lines[2:], "ledger_seq_jump"),
        ):
            ledger.write_bytes(b"".join(damaged))
            findings = scrub_ledger(ledger, repair=True, durable=False)
            assert [(f.kind, f.action) for f in findings] == [(kind, "refused")]
            assert ledger.read_bytes() == b"".join(damaged)  # refusals never write


class TestScrubSnapshots:
    def test_bitrot_snapshot_demoted_and_recovery_falls_back(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        expected = _recovered_state(directory)
        snapshots = sorted(directory.glob("snapshot-*.json"))
        assert len(snapshots) >= 2
        FaultFS.bitrot(snapshots[-1], seed=3)
        findings = scrub_snapshots(directory, repair=True, durable=False)
        assert [(f.kind, f.action) for f in findings] == [
            ("snapshot_corrupt", "demoted")
        ]
        demoted = snapshots[-1].with_name(snapshots[-1].name + ".corrupt")
        assert demoted.exists() and not snapshots[-1].exists()
        # Previous good snapshot + journal tail reproduce the exact state.
        assert _recovered_state(directory) == expected

    def test_check_mode_leaves_corrupt_snapshot(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        snapshots = sorted(directory.glob("snapshot-*.json"))
        FaultFS.bitrot(snapshots[-1], seed=3)
        findings = scrub_snapshots(directory, repair=False)
        assert [(f.kind, f.action) for f in findings] == [
            ("snapshot_corrupt", "found")
        ]
        assert snapshots[-1].exists()

    def test_all_snapshots_corrupt_refused(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        for path in directory.glob("snapshot-*.json"):
            FaultFS.bitrot(path, seed=3)
        findings = scrub_snapshots(directory, repair=True, durable=False)
        kinds = [f.kind for f in findings]
        assert "no_usable_snapshot" in kinds
        assert findings[-1].action == "refused"


class TestScrubJournalLink:
    """Recovery reads the journal only from each snapshot's link; the
    scrubber checks that every link holds."""

    def _rewrite_newest(self, directory, edit):
        newest = sorted(directory.glob("snapshot-*.json"))[-1]
        payload = decode_snapshot(newest.read_bytes())
        edit(payload)
        newest.write_bytes(encode_snapshot(payload))
        return newest

    def test_broken_link_refused(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        newest = self._rewrite_newest(
            directory, lambda p: p["journal"].update(checksum="0" * 16)
        )
        before = newest.read_bytes()
        for repair in (False, True):
            report = scrub_tree(directory, repair=repair, durable=False)
            assert [(f.path, f.kind, f.action) for f in report.findings] == [
                (newest.name, "journal_link", "refused")
            ]
        assert newest.read_bytes() == before  # the snapshot is not demoted
        assert main(["scrub", "--dir", str(directory), "--check"]) == 4

    def test_journal_cut_behind_its_snapshots(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        journal = directory / "journal.jsonl"
        journal.write_bytes(b"".join(journal.read_bytes().splitlines(keepends=True)[:20]))
        findings = scrub_snapshots(directory, repair=False)
        assert [(f.path, f.kind) for f in findings] == [
            ("snapshot-0000000030.json", "journal_link"),
            ("snapshot-0000000040.json", "journal_link"),
        ]

    def test_snapshot_without_a_link_passes(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        self._rewrite_newest(directory, lambda p: p.pop("journal"))
        assert scrub_tree(directory, repair=False).clean


class TestScrubCheckpointDir:
    def test_clean_directory_clean_report(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        report = scrub_checkpoint_dir(directory, durable=False, record=False)
        assert report.clean
        assert report.snapshots_checked >= 2
        assert report.journals_checked == 1

    def test_orphan_tmp_removed(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        orphan = directory / "snapshot-0000000099.json.tmp-abc123"
        orphan.write_text("half written")
        report = scrub_checkpoint_dir(directory, durable=False, record=False)
        assert not orphan.exists()
        assert [(f.kind, f.action) for f in report.findings] == [
            ("orphan_tmp", "removed")
        ]

    def test_damaged_log_lines_dropped(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        logs = directory / "logs"
        logs.mkdir()
        log = logs / "incidents.jsonl"
        log.write_text('{"seq": 1}\nnot json at all\n{"seq": 2}\n{"torn')
        report = scrub_checkpoint_dir(directory, durable=False, record=False)
        assert any(
            f.kind == "log_damaged_lines" and f.action == "repaired"
            for f in report.findings
        )
        rows = [json.loads(l) for l in log.read_text().splitlines()]
        assert rows == [{"seq": 1}, {"seq": 2}]

    def test_record_appends_scrub_log(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        (directory / "x.tmp-1").write_text("orphan")
        scrub_checkpoint_dir(directory, durable=False, record=True)
        rows = [
            json.loads(l)
            for l in (directory / "logs" / "scrub.jsonl").read_text().splitlines()
        ]
        assert rows[0]["repaired"] == 1
        assert rows[1]["kind"] == "orphan_tmp"

    def test_check_mode_writes_nothing(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        (directory / "x.tmp-1").write_text("orphan")
        report = scrub_checkpoint_dir(directory, repair=False, record=True)
        assert report.found == 1
        assert (directory / "x.tmp-1").exists()
        assert not (directory / "logs" / "scrub.jsonl").exists()


class TestScrubTree:
    def _fleet_root(self, tmp_path):
        root = tmp_path / "fleet"
        root.mkdir()
        (root / "shardplan.json").write_text('{"plan": {}, "build": {}}')
        for sid in range(2):
            sdir = root / f"shard-{sid:03d}"
            sdir.mkdir()
            src = _checkpoint_dir(tmp_path / f"seed-{sid}", seed=sid)
            for path in src.iterdir():
                (sdir / path.name).write_bytes(path.read_bytes())
        return root

    def test_plain_directory_delegates(self, tmp_path):
        directory = _checkpoint_dir(tmp_path)
        report = scrub_tree(directory, durable=False, record=False)
        assert report.clean and report.journals_checked == 1

    def test_fleet_root_scrubs_every_shard(self, tmp_path):
        root = self._fleet_root(tmp_path)
        with open(root / "shard-001" / "journal.jsonl", "ab") as f:
            f.write(b"torn tail bytes")
        report = scrub_tree(root, durable=False, record=False)
        assert report.journals_checked == 2
        assert [(f.kind, f.action) for f in report.findings] == [
            ("journal_torn_tail", "repaired")
        ]
        assert report.findings[0].path.startswith("shard-001")

    def test_unreadable_manifest_refused(self, tmp_path):
        root = self._fleet_root(tmp_path)
        (root / "shardplan.json").write_text("{torn manifes")
        report = scrub_tree(root, durable=False, record=False)
        assert any(
            f.kind == "manifest_unreadable" and f.action == "refused"
            for f in report.findings
        )

    def test_committed_fixture_round_trips(self, tmp_path):
        """The CI fixture tree stays valid: check finds all three planted
        damages, repair fixes them, and every shard recovers."""
        fixture = Path(__file__).parents[1] / "fixtures" / "scrub-fleet"
        root = tmp_path / "scrub-fleet"
        shutil.copytree(fixture, root)
        found = scrub_tree(root, repair=False, durable=False, record=False)
        assert {f.kind for f in found.findings} == {
            "snapshot_corrupt", "journal_torn_tail", "orphan_tmp"
        }
        repaired = scrub_tree(root, repair=True, durable=False, record=False)
        assert repaired.repaired == 3 and not repaired.refused
        assert scrub_tree(root, repair=False, durable=False, record=False).clean
        for sdir in sorted(root.glob("shard-*")):
            CheckpointingService.recover(sdir, durable=False).close()

    def test_unreadable_halo_removed(self, tmp_path):
        root = self._fleet_root(tmp_path)
        (root / "halo.json").write_text("{torn halo")
        report = scrub_tree(root, durable=False, record=False)
        assert any(
            f.kind == "halo_unreadable" and f.action == "removed"
            for f in report.findings
        )
        assert not (root / "halo.json").exists()
