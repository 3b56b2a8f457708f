"""The journal link: each snapshot records where its last journaled
record starts, so recovery reads only that record and the tail after it.

Recovery trusts the journal prefix before the link and the scrubber
verifies it; a link the journal does not hold is refused, never
recovered from, and a snapshot without one (the older format) falls back
to a full scan.
"""

import pytest

from repro.core.tripblock import TripBlock
from repro.errors import JournalCorruptError
from repro.resilience import (
    CheckpointingService,
    constant_cost_spec,
    decode_snapshot,
    encode_snapshot,
    logical_state,
    scrub_journal,
)
from repro.resilience import records as records_module
from repro.resilience.journal import JOURNAL_NAME, link_problem
from repro.resilience.records import CHECKSUM_PREFIX_LEN, read_records

from .conftest import COST_VALUE, build_service, make_trips

SPEC = constant_cost_spec(COST_VALUE)
EVERY = 25
TRIPS = make_trips(140, seed=41, shift_at=70)


def wrap(directory, seed=41, every=EVERY):
    return CheckpointingService(
        build_service(seed=seed), directory, checkpoint_every=every,
        durable=False, facility_cost_spec=SPEC,
    )


def serve(service, trips, block=16):
    for lo in range(0, len(trips), block):
        service.handle_block(TripBlock.from_trips(trips[lo : lo + block]))


def recover(directory):
    return CheckpointingService.recover(directory, durable=False)


def newest(service):
    """The newest snapshot's path and decoded payload."""
    path = service.store.list()[-1][1]
    return path, decode_snapshot(path.read_bytes())


def rewrite(path, payload):
    path.write_bytes(encode_snapshot(payload))


def journal_lines(directory):
    return (directory / JOURNAL_NAME).read_bytes().splitlines(keepends=True)


@pytest.fixture
def crashed(tmp_path):
    """A directory left by a crash 15 trips past the checkpoint at seq
    125, the newest snapshot's payload, and the uninterrupted twin's
    logical state at the same point."""
    service = wrap(tmp_path / "run")
    serve(service, TRIPS)
    path, payload = newest(service)
    service.close()
    twin = build_service(seed=41)
    twin.serve(TRIPS)
    return tmp_path / "run", path, payload, logical_state(twin)


class TestLink:
    def test_link_is_the_record_the_snapshot_is_current_through(self, crashed):
        directory, _, payload, _ = crashed
        link = payload["journal"]
        assert link["seq"] == payload["applied"] == 125
        lines = journal_lines(directory)
        assert link["offset"] == sum(map(len, lines[:124]))
        assert link["checksum"] == lines[124][:CHECKSUM_PREFIX_LEN].decode()

    def test_genesis_snapshot_has_no_link(self, tmp_path):
        service = wrap(tmp_path / "run")
        _, payload = newest(service)
        service.close()
        assert payload["applied"] == 0 and "journal" not in payload

    def test_recovery_reads_only_the_tail(self, crashed):
        directory, _, payload, expected = crashed
        recovered = recover(directory)
        size = (directory / JOURNAL_NAME).stat().st_size
        assert recovered.last_recovery.replayed == 15
        assert recovered.last_recovery.journal_bytes_read == (
            size - payload["journal"]["offset"]
        )
        assert logical_state(recovered.service) == expected
        recovered.close()

    def test_damage_before_the_link_is_left_to_the_scrubber(self, crashed):
        directory, _, _, expected = crashed
        path = directory / JOURNAL_NAME
        lines = journal_lines(directory)
        flipped = bytearray(lines[9])
        flipped[CHECKSUM_PREFIX_LEN + 4] ^= 1
        lines[9] = bytes(flipped)
        path.write_bytes(b"".join(lines))
        recovered = recover(directory)
        assert logical_state(recovered.service) == expected
        recovered.close()
        findings = scrub_journal(path, repair=False)
        assert [(f.kind, f.action) for f in findings] == [("journal_midfile", "refused")]

    @pytest.mark.parametrize("broken", ["short", "other_record", "checksum", "past_eof"])
    def test_a_link_the_journal_does_not_hold_is_refused(self, crashed, broken):
        directory, path, payload, _ = crashed
        link = payload["journal"]
        lines = journal_lines(directory)
        if broken == "short":
            link["offset"] -= 5
        elif broken == "other_record":
            link["offset"] -= len(lines[123])
        elif broken == "checksum":
            link["checksum"] = "0" * CHECKSUM_PREFIX_LEN
        else:
            link["offset"] = sum(map(len, lines)) + 100
        rewrite(path, payload)
        with pytest.raises(JournalCorruptError):
            recover(directory)

    def test_snapshot_without_a_link_recovers_through_the_full_scan(self, crashed):
        directory, path, payload, expected = crashed
        del payload["journal"]
        rewrite(path, payload)
        recovered = recover(directory)
        size = (directory / JOURNAL_NAME).stat().st_size
        assert recovered.last_recovery.journal_bytes_read == size
        assert logical_state(recovered.service) == expected
        recovered.close()


class TestLinkIsAFunctionOfTheJournal:
    @pytest.mark.parametrize("block", [7, 128])
    def test_snapshot_bytes_do_not_depend_on_the_block_size(self, tmp_path, block):
        def snapshots(directory, size):
            service = wrap(directory)
            serve(service, TRIPS, size)
            service.close()
            return {p.name: p.read_bytes() for _, p in service.store.list()}

        one = snapshots(tmp_path / "one", 1)
        assert b'"journal"' in one[max(one)]
        assert snapshots(tmp_path / "blocked", block) == one

    @pytest.mark.parametrize("crash_at", [125, 131])
    def test_checkpoint_after_a_recovery_writes_the_uninterrupted_link(
        self, tmp_path, crash_at
    ):
        """A resume with no new trips, checkpointed at once (from the last
        record its recovery read), writes the snapshot the uninterrupted
        run writes at that seq."""
        victim = wrap(tmp_path / "run")
        serve(victim, TRIPS[:crash_at])
        victim.close()
        resumed = recover(tmp_path / "run")
        resumed.checkpoint()
        path, payload = newest(resumed)
        resumed.close()
        twin = wrap(tmp_path / "twin")
        serve(twin, TRIPS[:crash_at])
        twin.checkpoint()
        twin_path, _ = newest(twin)
        twin.close()
        assert payload["journal"]["seq"] == crash_at
        assert path.read_bytes() == twin_path.read_bytes()


def test_recovery_reads_the_same_bytes_at_any_history(tmp_path):
    """Recoveries after 2k and 8k trips, each 137 trips past its newest
    snapshot, read the same journal bytes up to one line's length."""
    trips = make_trips(8137, seed=43)
    read = []
    for n in (2137, 8137):
        service = wrap(tmp_path / f"run-{n}", seed=43, every=500)
        serve(service, trips[:n], 250)
        service.close()
        recovered = recover(tmp_path / f"run-{n}")
        assert recovered.last_recovery.replayed == 137
        read.append(recovered.last_recovery.journal_bytes_read)
        recovered.close()
    longest = max(map(len, journal_lines(tmp_path / "run-8137")))
    assert abs(read[0] - read[1]) <= longest
    assert read[1] < (tmp_path / "run-8137" / JOURNAL_NAME).stat().st_size / 20


def test_reader_reports_where_its_last_record_begins(tmp_path):
    service = wrap(tmp_path / "run")
    serve(service, TRIPS[:30])
    service.close()
    path = tmp_path / "run" / JOURNAL_NAME
    lines = journal_lines(tmp_path / "run")
    start = sum(map(len, lines[:10]))
    scan = read_records(path, 0, start=start)
    assert [r["seq"] for r in scan.records] == list(range(11, 31))
    assert scan.last_start == sum(map(len, lines[:29]))
    assert scan.end == path.stat().st_size



def test_link_check_checksums_one_line(crashed, monkeypatch):
    """``read_records(limit=1)`` cuts its batch to one line, so checking a
    link checksums only the linked record, however long the tail; a
    blank line before the record costs one more line, not a batch."""
    directory, _, payload, _ = crashed
    path, link = directory / JOURNAL_NAME, payload["journal"]
    lines = journal_lines(directory)
    record = lines[link["seq"] - 1]
    checked = []
    body = records_module._body

    def counting(line):
        checked.append(line)
        return body(line)

    monkeypatch.setattr(records_module, "_body", counting)
    assert link_problem(path, link) is None
    assert checked == [record]

    lines.insert(link["seq"] - 1, b"\n")
    path.write_bytes(b"".join(lines))
    del checked[:]
    scan = read_records(path, link["seq"] - 1, limit=1, start=link["offset"])
    assert checked == [b"\n", record]
    assert [r["seq"] for r in scan.records] == [link["seq"]]
    assert scan.end == link["offset"] + 1 + len(record)
