"""The journal and the ledger share one record-log rule.

A log torn at any byte offset reopens to its intact prefix, takes the
next append after that prefix, and rescans to the prefix plus the new
records; the scrubber repairs the same tear to the same byte.  A crash
in the middle of a journal commit, resumed twice, leaves a clean
directory.
"""

import shutil

from repro.core.tripblock import TripBlock
from repro.resilience import (
    CheckpointingService,
    ResponseLedger,
    TripJournal,
    constant_cost_spec,
    logical_state,
    scrub_checkpoint_dir,
    scrub_journal,
    scrub_ledger,
)
from repro.resilience.service import JOURNAL_NAME

from .conftest import COST_VALUE, build_service, make_trips


def intact_end(raw, cut):
    """Byte offset past the last whole line of ``raw[:cut]``."""
    return raw.rfind(b"\n", 0, cut) + 1


def assert_scrub_repairs_to(scrub, path, tmp_path, end):
    copy = tmp_path / ("copy-" + path.name)
    shutil.copyfile(path, copy)
    scrub(copy, repair=True, durable=False)
    assert copy.stat().st_size == end
    assert scrub(copy, repair=False) == []


class TestJournalCutPoints:
    def test_torn_at_every_byte(self, tmp_path):
        trips = make_trips(6, seed=11)
        block = TripBlock.from_trips(trips)
        path = tmp_path / JOURNAL_NAME
        journal = TripJournal(path, durable=False)
        journal.append_block(block[:4])
        journal.close()
        raw = path.read_bytes()
        for cut in range(len(raw) + 1):
            path.write_bytes(raw[:cut])
            end = intact_end(raw, cut)
            kept = raw[:end].count(b"\n")
            assert_scrub_repairs_to(scrub_journal, path, tmp_path, end)
            journal = TripJournal(path, durable=False)
            assert journal.next_seq == kept + 1, cut
            assert journal.append_block(block[4:]) == [kept + 1, kept + 2]
            journal.close()
            entries = TripJournal(path, durable=False).scan()
            assert [e.seq for e in entries] == list(range(1, kept + 3)), cut
            assert [e.trip for e in entries] == trips[:kept] + trips[4:]
            assert path.read_bytes()[:end] == raw[:end]


class TestLedgerCutPoints:
    def test_torn_at_every_byte(self, tmp_path):
        service = build_service(seed=12)
        responses = service.serve(make_trips(6, seed=12))
        path = tmp_path / "responses.jsonl"
        ResponseLedger(path, durable=False).append(responses[:4], segment=2)
        raw = path.read_bytes()
        assert raw.count(b"\n") == 2  # two blocks of two responses
        for cut in range(len(raw) + 1):
            path.write_bytes(raw[:cut])
            end = intact_end(raw, cut)
            kept = 2 * raw[:end].count(b"\n")
            assert_scrub_repairs_to(scrub_ledger, path, tmp_path, end)
            ledger, back = ResponseLedger.open(path, kept, durable=False)
            assert back == responses[:kept]
            ledger.append(responses[4:])
            ledger.close()
            assert ResponseLedger.open(path, kept + 2)[1] == (
                responses[:kept] + responses[4:]
            ), cut
            assert path.read_bytes()[:end] == raw[:end]


class TestCrashMidCommit:
    def test_resume_twice_after_a_torn_commit(self, tmp_path):
        """A crash in the middle of a journal commit, then two resumes:
        both recover, and the directory scrubs clean."""
        trips = make_trips(400, seed=13)
        reference = build_service(seed=13)
        for trip in trips:
            reference.handle_trip(trip.order_id, trip.start, trip.end)

        def resume():
            service = CheckpointingService.recover(tmp_path, durable=False)
            for trip in trips:
                service.handle_trip(trip)  # duplicates are screened
            service.close()
            return service

        victim = CheckpointingService(
            build_service(seed=13), tmp_path, checkpoint_every=100,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        for trip in trips[:150]:
            victim.handle_trip(trip)
        victim.close()
        journal = tmp_path / JOURNAL_NAME
        with open(journal, "r+b") as f:
            f.truncate(journal.stat().st_size - 30)
        first = resume()
        assert first.last_recovery.replayed == 49
        second = resume()
        assert second.applied_seq == 400
        assert logical_state(second.service) == logical_state(reference)
        assert scrub_checkpoint_dir(tmp_path, repair=False).clean


def test_final_record_without_newline_is_torn(tmp_path):
    """A final record whose checksum holds but whose newline is missing
    is a torn tail: dropped on read, cut off before the next append."""
    trips = make_trips(4, seed=14)
    path = tmp_path / JOURNAL_NAME
    journal = TripJournal(path, durable=False)
    journal.append_block(TripBlock.from_trips(trips[:3]))
    journal.close()
    path.write_bytes(path.read_bytes()[:-1])
    journal = TripJournal(path, durable=False)
    assert journal.next_seq == 3
    assert journal.append(trips[3]) == 3
    journal.close()
    assert [e.trip for e in TripJournal(path).scan()] == trips[:2] + trips[3:]
