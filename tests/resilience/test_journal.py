"""Tests for the write-ahead trip journal."""

import pytest

from repro.core.tripblock import TripBlock
from repro.resilience import (
    CheckpointingService,
    FaultFS,
    FaultFSConfig,
    JournalCorruptError,
    TripJournal,
    constant_cost_spec,
    logical_state,
    scrub_journal,
)
from repro.resilience.service import JOURNAL_NAME

from .conftest import COST_VALUE, build_service, make_trips


@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "journal.jsonl"


class TestAppendReplay:
    def test_roundtrip_exact_trips(self, journal_path):
        trips = make_trips(10, seed=3)
        journal = TripJournal(journal_path, durable=False)
        seqs = [journal.append(t) for t in trips]
        journal.close()
        assert seqs == list(range(1, 11))
        entries = TripJournal(journal_path, durable=False).scan()
        assert [e.seq for e in entries] == seqs
        # TripRecord is a dataclass: full-field equality, datetimes and
        # float coordinates included.
        assert [e.trip for e in entries] == trips

    def test_replay_after_seq(self, journal_path):
        trips = make_trips(6, seed=4)
        journal = TripJournal(journal_path, durable=False)
        for t in trips:
            journal.append(t)
        tail = journal.replay(after_seq=4)
        assert [e.seq for e in tail] == [5, 6]
        assert [e.trip for e in tail] == trips[4:]

    def test_sequence_continues_after_reopen(self, journal_path):
        trips = make_trips(5, seed=5)
        first = TripJournal(journal_path, durable=False)
        for t in trips[:3]:
            first.append(t)
        first.close()
        second = TripJournal(journal_path, durable=False)
        assert second.next_seq == 4
        assert [second.append(t) for t in trips[3:]] == [4, 5]
        assert [e.seq for e in second.scan()] == [1, 2, 3, 4, 5]

    def test_missing_file_is_empty(self, journal_path):
        journal = TripJournal(journal_path, durable=False)
        assert journal.scan() == []
        assert journal.next_seq == 1

    def test_durable_appends(self, journal_path):
        journal = TripJournal(journal_path, durable=True)
        journal.append(make_trips(1)[0])
        journal.close()
        assert len(TripJournal(journal_path).scan()) == 1


class TestDamage:
    def _write(self, path, n):
        journal = TripJournal(path, durable=False)
        for t in make_trips(n, seed=6):
            journal.append(t)
        journal.close()

    def test_torn_tail_dropped_silently(self, journal_path):
        self._write(journal_path, 4)
        lines = journal_path.read_text().splitlines(keepends=True)
        torn = lines[-1][: len(lines[-1]) // 2]
        journal_path.write_text("".join(lines[:-1]) + torn)
        entries = TripJournal(journal_path, durable=False).scan()
        assert [e.seq for e in entries] == [1, 2, 3]

    def test_append_resumes_past_torn_tail(self, journal_path):
        self._write(journal_path, 4)
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text("".join(lines[:-1]) + lines[-1][:10])
        journal = TripJournal(journal_path, durable=False)
        # The torn record 4 is gone; the next append re-uses its seq.
        assert journal.next_seq == 4
        trips = make_trips(6, seed=6)
        assert journal.append_block(TripBlock.from_trips(trips[3:])) == [4, 5, 6]
        journal.close()
        entries = TripJournal(journal_path, durable=False).scan()
        assert [e.seq for e in entries] == [1, 2, 3, 4, 5, 6]
        assert [e.trip for e in entries] == trips
        assert scrub_journal(journal_path, repair=False) == []

    @pytest.mark.parametrize("fault", ["p_torn", "p_fsync"])
    def test_retry_after_torn_commit_leaves_no_midfile_damage(self, journal_path, fault):
        trips = make_trips(20, seed=34)
        block = TripBlock.from_trips(trips)
        journal = TripJournal(journal_path, durable=True)
        journal.append_block(block[:10])
        fs = FaultFS(FaultFSConfig(seed=1, max_faults=1, match=JOURNAL_NAME, **{fault: 1.0}))
        with fs.inject():
            with pytest.raises(OSError):
                journal.append_block(block[10:])
            assert journal.next_seq == 11
            # The budget is spent: the retry lands whole.
            assert journal.append_block(block[10:]) == list(range(11, 21))
        journal.close()
        assert fs.counters.faults == 1
        assert scrub_journal(journal_path, repair=False) == []
        assert [e.trip for e in TripJournal(journal_path).scan()] == trips

    def test_service_retries_a_torn_group_commit(self, tmp_path):
        """A bare CheckpointingService: a torn write fails the block's
        commit, the same block is handed in again, and recovery
        reproduces the fault-free run."""
        trips = make_trips(60, seed=35)
        block = TripBlock.from_trips(trips)
        reference = build_service(seed=35)
        reference.serve(trips)
        service = CheckpointingService(
            build_service(seed=35), tmp_path, checkpoint_every=25,
            durable=True, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        service.handle_block(block[:30])
        fs = FaultFS(FaultFSConfig(seed=3, p_torn=1.0, max_faults=1, match=JOURNAL_NAME))
        with fs.inject():
            with pytest.raises(OSError):
                service.handle_block(block[30:])
            service.handle_block(block[30:])
        service.close()
        assert fs.counters.torn == 1
        recovered = CheckpointingService.recover(tmp_path, durable=False)
        assert recovered.applied_seq == 60
        assert logical_state(recovered.service) == logical_state(reference)
        recovered.close()

    def test_midfile_damage_raises(self, journal_path):
        self._write(journal_path, 5)
        lines = journal_path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        journal_path.write_text("".join(lines))
        with pytest.raises(JournalCorruptError):
            TripJournal(journal_path, durable=False)

    def test_sequence_jump_raises(self, journal_path):
        self._write(journal_path, 4)
        lines = journal_path.read_text().splitlines(keepends=True)
        del lines[1]  # a whole intact record vanished: seq 1 -> 3
        journal_path.write_text("".join(lines))
        with pytest.raises(JournalCorruptError):
            TripJournal(journal_path, durable=False)

    def test_blank_lines_tolerated(self, journal_path):
        self._write(journal_path, 2)
        journal_path.write_text(journal_path.read_text() + "\n\n")
        assert len(TripJournal(journal_path, durable=False).scan()) == 2
