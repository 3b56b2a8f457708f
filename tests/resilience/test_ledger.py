"""The response ledger and the bounded snapshot it makes possible.

Every crash window the ledger opens is recovered from disk and compared
with an uninterrupted twin: state, responses, journal bytes, then the
continuation to the end of the stream (ledger bytes and newest snapshot
included).  A ledger that cannot back its snapshot is refused, never
recovered with a short history.  A ledger written one line per response,
before block records, recovers and takes blocks after its lines.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import constant_facility_cost
from repro.core.streaming import ServiceResponse
from repro.guard import GuardConfig, GuardedRuntime
from repro.resilience import (
    LEDGER_NAME,
    CheckpointingService,
    FaultFS,
    FaultFSConfig,
    FaultInjector,
    InjectedCrash,
    LedgerCorruptError,
    ResponseLedger,
    SnapshotVersionError,
    constant_cost_spec,
    decode_snapshot,
    encode_snapshot,
    logical_state,
    scrub_checkpoint_dir,
    scrub_ledger,
    scrub_tree,
)
from repro.ioutil import install_fs_seam
from repro.resilience import records as records_module
from repro.resilience.records import frame
from repro.resilience.service import JOURNAL_NAME

from .conftest import COST_VALUE, build_service, make_trips
from .journal_oracle import encode_ledger_block

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

SPEC = constant_cost_spec(COST_VALUE)
EVERY = 20
N = 150
TRIPS = make_trips(N, seed=31, shift_at=N // 2)


def wrap(directory, **kwargs):
    return CheckpointingService(
        build_service(seed=31), directory, checkpoint_every=EVERY,
        durable=False, facility_cost_spec=SPEC, **kwargs,
    )


def recover(directory):
    return CheckpointingService.recover(
        directory, checkpoint_every=EVERY, durable=False
    )


def ledger_seqs(directory):
    """The last seq the intact records of ``directory``'s ledger cover."""
    return records_module.read_records(directory / LEDGER_NAME).last_seq


def newest_payload(service):
    payload = decode_snapshot(service.store.list()[-1][1].read_bytes())
    payload["service"]["planner"]["ks_seconds"] = 0.0
    return payload


@pytest.fixture(scope="module")
def twin(tmp_path_factory):
    """The uninterrupted run: after every trip, the journal bytes and the
    logical state a recovery at that point must reproduce; at the end,
    the directory a continued victim must match byte for byte."""
    directory = tmp_path_factory.mktemp("twin") / "run"
    service = wrap(directory)
    journals, states = [b""], [logical_state(service.service)]
    for trip in TRIPS:
        service.handle_trip(trip)
        journals.append((directory / JOURNAL_NAME).read_bytes())
        states.append(logical_state(service.service))
    service.checkpoint()
    final = {
        "journal": (directory / JOURNAL_NAME).read_bytes(),
        "ledger": (directory / LEDGER_NAME).read_bytes(),
        "snapshot": newest_payload(service),
        "state": logical_state(service.service),
    }
    service.close()
    return journals, states, final


def assert_matches_twin(twin, directory, recovered):
    """Recovered == the twin at the same seq; then both finish equal."""
    journals, states, final = twin
    k = recovered.applied_seq
    assert (directory / JOURNAL_NAME).read_bytes() == journals[k]
    assert recovered.service.responses == states[k]["responses"]
    assert logical_state(recovered.service) == states[k]
    recovered.consistency_check()
    for trip in TRIPS[k:]:
        recovered.handle_trip(trip)
    recovered.checkpoint()
    assert (directory / JOURNAL_NAME).read_bytes() == final["journal"]
    assert (directory / LEDGER_NAME).read_bytes() == final["ledger"]
    assert newest_payload(recovered) == final["snapshot"]
    assert logical_state(recovered.service) == final["state"]
    recovered.close()


# ----------------------------------------------------------------------
class TestLedger:
    def test_append_then_open_round_trips(self, tmp_path):
        service = build_service(seed=32)
        responses = service.serve(make_trips(30, seed=32))
        ledger = ResponseLedger(tmp_path / LEDGER_NAME, durable=False)
        ledger.append(responses[:10])
        ledger.append(responses[10:])
        reopened, back = ResponseLedger.open(tmp_path / LEDGER_NAME, 30)
        assert back == responses
        assert reopened.count == 30
        lines = (tmp_path / LEDGER_NAME).read_bytes().splitlines()
        assert len(lines) == 2  # one block record per append
        digest, body = lines[0].split(b" ", 1)
        assert len(digest) == 16
        assert json.loads(body) == {
            "count": 10,
            "responses": {
                name: [vars(r)[name] for r in responses[:10]]
                for name in vars(responses[0])
            },
            "seq": 1,
        }

    def test_empty_append_writes_nothing(self, tmp_path):
        ResponseLedger(tmp_path / LEDGER_NAME).append([])
        assert not (tmp_path / LEDGER_NAME).exists()

    def test_open_reads_only_the_snapshot_prefix(self, tmp_path):
        service = build_service(seed=33)
        responses = service.serve(make_trips(12, seed=33))
        path = tmp_path / LEDGER_NAME
        ResponseLedger(path, durable=False).append(responses, segment=5)
        assert len(path.read_bytes().splitlines()) == 3  # seqs 1-5, 6-10, 11-12
        ledger, back = ResponseLedger.open(path, 5, durable=False)
        assert back == responses[:5]
        assert len(path.read_bytes().splitlines()) == 3  # opening is read-only
        ledger.append(responses[5:8])  # the next append cuts seqs 6..12
        assert ResponseLedger.open(path, 8)[1] == responses[:8]
        assert len(path.read_bytes().splitlines()) == 2

    def test_retry_after_torn_append_leaves_no_midfile_damage(self, tmp_path):
        service = build_service(seed=34)
        responses = service.serve(make_trips(20, seed=34))
        path = tmp_path / LEDGER_NAME
        ledger = ResponseLedger(path, durable=True)
        ledger.append(responses[:10])
        fs = FaultFS(FaultFSConfig(seed=1, p_torn=1.0, max_faults=1, match=LEDGER_NAME))
        with fs.inject():
            with pytest.raises(OSError):
                ledger.append(responses[10:])
            assert ledger.count == 10
            ledger.append(responses[10:])  # the budget is spent: lands whole
        assert fs.counters.torn == 1
        assert scrub_ledger(path, repair=False) == []
        assert ResponseLedger.open(path, 20)[1] == responses


class TestBoundedSnapshot:
    def test_genesis_writes_no_ledger(self, tmp_path):
        service = wrap(tmp_path / "run")
        assert not (tmp_path / "run" / LEDGER_NAME).exists()
        service.close()
        recovered = recover(tmp_path / "run")
        assert recovered.service.responses == []
        recovered.close()

    def test_snapshot_carries_no_history(self, tmp_path):
        service = wrap(tmp_path / "run")
        for trip in TRIPS[:60]:
            service.handle_trip(trip)
        payload = decode_snapshot(service.store.list()[-1][1].read_bytes())
        assert set(payload) == {"applied", "facility_cost_spec", "journal", "service"}
        assert "responses" not in payload["service"]
        assert payload["service"]["planner"]["decisions"] is None
        assert payload["service"]["planner"]["similarity_history"] is None
        service.close()

    def test_snapshot_size_independent_of_trips_served(self, tmp_path):
        """Newest snapshot at 8k trips <= 1.1x its size at 1k, and no list
        in its payload grows with the applied seq."""
        trips = make_trips(8000, seed=35)
        service = CheckpointingService(
            build_service(seed=35, beta=8.0), tmp_path / "run", checkpoint_every=1000,
            keep=10, durable=False, facility_cost_spec=SPEC,
        )
        for trip in trips:
            service.handle_trip(trip)
        snapshots = dict(service.store.list())
        small, large = snapshots[1000], snapshots[8000]
        assert large.stat().st_size <= 1.1 * small.stat().st_size
        lengths = [list_lengths(decode_snapshot(p.read_bytes())) for p in (small, large)]
        assert lengths[0].keys() == lengths[1].keys()
        grown = {
            path: (lengths[0][path], n)
            for path, n in lengths[1].items()
            if n - lengths[0][path] > 70  # 1% of the 7,000 trips between them
        }
        assert not grown, f"lists growing with trips served: {grown}"
        service.close()


def list_lengths(node, path="", out=None):
    """Longest list at every key path of a JSON payload (indices elided)."""
    out = {} if out is None else out
    if isinstance(node, dict):
        for key, value in node.items():
            list_lengths(value, f"{path}.{key}", out)
    elif isinstance(node, list):
        out[path] = max(out.get(path, 0), len(node))
        for value in node:
            list_lengths(value, f"{path}[]", out)
    return out


# ----------------------------------------------------------------------
CRASH_SETTINGS = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestCrashWindows:
    @CRASH_SETTINGS
    @given(crash_at=st.integers(min_value=1, max_value=N // EVERY))
    def test_crash_between_ledger_append_and_snapshot(self, tmp_path_factory, twin, crash_at):
        """The ledger append landed, the snapshot rename did not: the
        ledger runs past the newest snapshot by one checkpoint."""
        directory = tmp_path_factory.mktemp("window") / "run"

        class CrashOnSave:
            """Seam that dies writing the ``crash_at``-th snapshot after
            genesis, before its tmp file is renamed into place."""

            saves = 0

            def write(self, fh, data, path):
                if path.name.startswith("snapshot-"):
                    self.saves += 1
                    if self.saves == crash_at + 1:  # save 1 is genesis
                        raise InjectedCrash(f"crash before renaming {path.name}")
                fh.write(data)

            def fsync(self, fileno, path):
                os.fsync(fileno)

        previous = install_fs_seam(CrashOnSave())
        try:
            victim = wrap(directory)
            with pytest.raises(InjectedCrash):
                for trip in TRIPS:
                    victim.handle_trip(trip)
        finally:
            install_fs_seam(previous)
        victim.close()
        assert not list(directory.glob("*.tmp-*"))
        seq = crash_at * EVERY
        assert ledger_seqs(directory) == seq
        recovered = recover(directory)
        assert recovered.last_recovery.snapshot_seq == seq - EVERY
        assert recovered.applied_seq == seq
        assert_matches_twin(twin, directory, recovered)

    @CRASH_SETTINGS
    @given(served=st.integers(min_value=2 * EVERY + 1, max_value=N))
    def test_torn_newest_snapshot_falls_back_past_the_ledger(
        self, tmp_path_factory, twin, served
    ):
        """The newest snapshot is torn: recovery restores the one before
        it, whose seq the ledger already runs past."""
        directory = tmp_path_factory.mktemp("torn") / "run"
        victim = wrap(directory)
        for trip in TRIPS[:served]:
            victim.handle_trip(trip)
        victim.close()
        (_, older), (newest_seq, newest) = victim.store.list()[-2:]
        FaultInjector.corrupt_file(newest, mode="truncate")
        recovered = recover(directory)
        assert recovered.last_recovery.snapshot_path == older
        assert ledger_seqs(directory) == newest_seq > recovered.last_recovery.snapshot_seq
        assert recovered.applied_seq == served
        assert_matches_twin(twin, directory, recovered)

    @CRASH_SETTINGS
    @given(
        checkpoints=st.integers(min_value=2, max_value=N // EVERY),
        cut=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_torn_ledger_tail(self, tmp_path_factory, twin, checkpoints, cut):
        """A crash mid-append: the last checkpoint's block is cut at a
        byte inside it and its snapshot was never written."""
        directory = tmp_path_factory.mktemp("tornledger") / "run"
        seq = checkpoints * EVERY
        victim = wrap(directory)
        for trip in TRIPS[:seq]:
            victim.handle_trip(trip)
        victim.close()
        victim.store.path_for(seq).unlink()
        path = directory / LEDGER_NAME
        raw = path.read_bytes()
        start = sum(len(line) for line in raw.splitlines(keepends=True)[: checkpoints - 1])
        path.write_bytes(raw[: start + int(cut * (len(raw) - start))])
        recovered = recover(directory)
        assert recovered.last_recovery.snapshot_seq == seq - EVERY
        assert_matches_twin(twin, directory, recovered)

    def test_torn_ledger_write_through_the_fs_seam(self, tmp_path, twin):
        """The same window, produced by a torn write on the ledger."""
        directory = tmp_path / "run"
        victim = wrap(directory)
        for trip in TRIPS[: 3 * EVERY - 1]:
            victim.handle_trip(trip)
        fs = FaultFS(FaultFSConfig(seed=5, p_torn=1.0, match=LEDGER_NAME))
        with fs.inject(), pytest.raises(OSError):
            victim.handle_trip(TRIPS[3 * EVERY - 1])
        victim.close()
        assert fs.counters.torn == 1
        assert scrub_ledger(directory / LEDGER_NAME, repair=False)[0].kind == (
            "ledger_torn_tail"
        )
        recovered = recover(directory)
        assert recovered.last_recovery.snapshot_seq == 2 * EVERY
        assert_matches_twin(twin, directory, recovered)

    @pytest.mark.parametrize("damage", ["short", "missing", "midfile", "seq_jump"])
    def test_ledger_that_cannot_back_its_snapshot_is_refused(self, tmp_path, damage):
        directory = tmp_path / "run"
        victim = wrap(directory)
        for trip in TRIPS[: 3 * EVERY + 5]:
            victim.handle_trip(trip)
        victim.close()
        path = directory / LEDGER_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        if damage == "short":
            path.write_bytes(b"".join(lines[:-1]))
        elif damage == "missing":
            path.unlink()
        elif damage == "midfile":
            lines[1] = lines[1][:20] + b"\n"
            path.write_bytes(b"".join(lines))
        else:
            del lines[1]
            path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerCorruptError):
            recover(directory)

    def test_pre_change_directory_is_refused(self, tmp_path):
        """A version-1 directory kept its history inside the snapshot and
        has no ledger: refuse it rather than recover a short history."""
        directory = tmp_path / "run"
        victim = wrap(directory)
        for trip in TRIPS[:EVERY]:
            victim.handle_trip(trip)
        victim.close()
        for _, path in victim.store.list():
            payload = decode_snapshot(path.read_bytes())
            payload["service"]["responses"] = [
                vars(r) for r in victim.service.responses[: payload["applied"]]
            ]
            payload["seen_orders"] = [t.order_id for t in TRIPS[: payload["applied"]]]
            path.write_bytes(encode_snapshot(payload, version=1))
        (directory / LEDGER_NAME).unlink()
        with pytest.raises(SnapshotVersionError):
            recover(directory)
        kinds = {f.kind for f in scrub_checkpoint_dir(directory, repair=False).findings}
        assert kinds == {"snapshot_version", "no_usable_snapshot"}


class TestSingleJournalPass:
    def test_recovery_decodes_each_journal_record_once(self, tmp_path, monkeypatch):
        from repro.resilience import journal as journal_module

        victim = wrap(tmp_path / "run")
        for trip in TRIPS[: 2 * EVERY + 7]:
            victim.handle_trip(trip)
        victim.close()
        calls = {"record": 0, "trip": 0}
        body, trip_from_state = records_module._body, journal_module.trip_from_state

        def counting_record(line):
            calls["record"] += 1
            return body(line)

        def counting_entry(state):
            calls["trip"] += 1
            return trip_from_state(state)

        monkeypatch.setattr(records_module, "_body", counting_record)
        monkeypatch.setattr(journal_module, "trip_from_state", counting_entry)
        recovered = recover(tmp_path / "run")
        # The journal is read from the snapshot's link: its record and
        # the tail after it are checksummed once, and so is each ledger
        # block behind the snapshot (one per checkpoint); only the tail's
        # trips are decoded.
        assert calls == {"record": (1 + 7) + 2, "trip": 7}
        assert recovered.last_recovery.replayed == 7
        assert recovered.journal.next_seq == 2 * EVERY + 8
        recovered.close()


class TestDedupAfterRecovery:
    def test_screen_rebuilt_from_the_ledger(self, tmp_path, twin):
        """Trips behind the snapshot are known only through the ledger:
        an at-least-once redelivery of the whole stream is screened."""
        victim = wrap(tmp_path / "run")
        for trip in TRIPS[: 3 * EVERY + 5]:
            victim.handle_trip(trip)
        victim.close()
        recovered = recover(tmp_path / "run")
        assert recovered.last_recovery.snapshot_seq == 3 * EVERY
        outcomes = [recovered.handle_trip(t) for t in TRIPS]
        assert outcomes[: 3 * EVERY + 5] == [None] * (3 * EVERY + 5)
        assert None not in outcomes[3 * EVERY + 5 :]
        assert recovered.service.responses == twin[1][N]["responses"]
        recovered.close()


class TestConstruction:
    def test_directory_holding_a_ledger_refused(self, tmp_path):
        (tmp_path / LEDGER_NAME).write_bytes(b"")
        with pytest.raises(ValueError, match="ledger"):
            wrap(tmp_path)

    def test_logical_state_compares_the_history(self):
        a, b = build_service(seed=36), build_service(seed=36)
        trips = make_trips(10, seed=36)
        a.serve(trips)
        b.serve(trips)
        assert logical_state(a) == logical_state(b)
        b.responses[3] = b.responses[4]
        left, right = logical_state(a), logical_state(b)
        assert left.pop("responses") != right.pop("responses")
        assert left == right


class TestGuardedCheckpointRetry:
    def test_torn_ledger_writes_retried_to_the_oracle(self, tmp_path):
        """A guarded checkpoint retries a torn ledger append in place;
        the directory recovers to the fault-free state."""
        trips = make_trips(120, seed=37)
        reference = build_service(seed=37)
        for t in trips:
            reference.handle_trip(t.order_id, t.start, t.end)
        inner = CheckpointingService(
            build_service(seed=37), tmp_path / "run", checkpoint_every=EVERY,
            durable=True, facility_cost_spec=SPEC,
        )
        runtime = GuardedRuntime(inner, GuardConfig(), sleep=lambda s: None)
        fs = FaultFS(FaultFSConfig(seed=2, p_torn=1.0, max_faults=2, match=LEDGER_NAME))
        with fs.inject():
            runtime.serve(trips)
        runtime.close()
        assert fs.counters.torn == 2
        assert scrub_ledger(tmp_path / "run" / LEDGER_NAME, repair=False) == []
        recovered = CheckpointingService.recover(
            tmp_path / "run", facility_cost=constant_facility_cost(COST_VALUE),
            durable=False,
        )
        assert logical_state(recovered.service) == logical_state(reference)
        recovered.close()


# ----------------------------------------------------------------------
def json_line(seq, response):
    """A ledger line as builds before block records wrote it: one
    response, through the sort-keys ``json`` encoder."""
    body = json.dumps(
        {"response": vars(response), "seq": seq},
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    )
    return frame(body).encode("utf-8")


def block_bytes(first, responses):
    """What ``ResponseLedger.append`` writes for one block at ``first``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / LEDGER_NAME
        ResponseLedger(path, durable=False, count=first - 1).append(responses)
        return path.read_bytes()


def same_outcome(encode, reference):
    """Both calls return the same value or raise the same error."""
    try:
        want = reference()
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            encode()
        assert str(got.value) == str(exc)
        return None
    assert encode() == want
    return want


_ids = st.one_of(
    st.sampled_from([0, 1, -(2**63), 2**63 - 1, 2**63]),
    st.integers(min_value=-(2**63), max_value=2**63),
)
_stations = st.one_of(st.sampled_from([-1, 0]), _ids)
_walking = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e16, 1e-7, 1e22, 0.1 + 0.2]),
)
_responses = st.builds(
    ServiceResponse,
    order_id=_ids,
    served=st.booleans(),
    origin_station=_stations,
    destination_station=_stations,
    opened_new=st.booleans(),
    removed_station=st.one_of(st.none(), _stations),
    walking_m=_walking,
)

_FIELDS = dict(
    order_id=4, served=True, origin_station=2, destination_station=3,
    opened_new=False, removed_station=None, walking_m=12.5,
)


class TestLineEncoding:
    """A ledger record is the ``json`` encoder's bytes for its block, and
    reads back to the responses it was written from."""

    @given(
        first=st.integers(min_value=1, max_value=2**63),
        responses=st.lists(_responses, min_size=1, max_size=12),
        segment=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_block_round_trips_through_the_reader(self, first, responses, segment):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / LEDGER_NAME
            ResponseLedger(path, durable=False, count=first - 1).append(
                responses, segment=segment
            )
            raw = path.read_bytes()
            scan = records_module.read_records(path, keep_after=0)
        assert (scan.problem, scan.end) == (None, len(raw))
        assert scan.last_seq == first + len(responses) - 1
        back, expected, seq = [], b"", first
        for record in scan.records:
            # Every block but the last ends at a multiple of the segment.
            end = record["seq"] + record["count"] - 1
            assert segment is None or end % segment == 0 or record is scan.records[-1]
            block = responses[seq - first : seq - first + record["count"]]
            expected += encode_ledger_block(seq, block)
            back += map(ServiceResponse, *(record["responses"][k] for k in _FIELDS))
            seq += record["count"]
        assert raw == expected
        assert back == responses

    @pytest.mark.parametrize("walking", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_walking_raises_like_json(self, walking):
        response = ServiceResponse(1, True, 2, 3, False, None, walking)
        with pytest.raises(ValueError):
            encode_ledger_block(1, [response])
        same_outcome(
            lambda: block_bytes(1, [response]), lambda: encode_ledger_block(1, [response])
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("order_id", np.int64(4)),
            ("served", np.bool_(True)),
            ("origin_station", np.int32(2)),
            ("destination_station", np.int64(-1)),
            ("opened_new", np.bool_(False)),
            ("removed_station", np.int64(7)),
        ],
    )
    def test_numpy_scalar_raises_like_json(self, field, value):
        response = ServiceResponse(**{**_FIELDS, field: value})
        with pytest.raises(TypeError):
            encode_ledger_block(1, [response])
        same_outcome(
            lambda: block_bytes(1, [response]), lambda: encode_ledger_block(1, [response])
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("walking_m", np.float64(12.5)),  # a float subclass: json encodes it
            ("order_id", True),  # bools in int fields: json writes true/false
            ("origin_station", False),
            ("destination_station", True),
            ("removed_station", False),
            ("served", 1),  # an int in a bool field: json writes 1
        ],
    )
    def test_other_types_fall_back_to_json_bytes(self, field, value):
        response = ServiceResponse(**{**_FIELDS, field: value})
        line = same_outcome(
            lambda: block_bytes(9, [response]), lambda: encode_ledger_block(9, [response])
        )
        assert line is not None


# ----------------------------------------------------------------------
def rewrite_per_line(path):
    """Rewrite a block ledger as builds before block records wrote it,
    one line per response."""
    scan = records_module.read_records(path, keep_after=0)
    assert scan.problem is None
    lines, seq = [], 1
    for record in scan.records:
        columns = (record["responses"][k] for k in _FIELDS)
        for response in map(ServiceResponse, *columns):
            lines.append(json_line(seq, response))
            seq += 1
    path.write_bytes(b"".join(lines))
    return len(lines)


class TestPerLineLedger:
    """A ledger written one line per response still recovers, takes block
    records after its lines, and scrubs clean."""

    def test_per_line_directory_recovers_and_grows(self, tmp_path, twin):
        """Recovered bit-identically; the next checkpoint appends one
        block after the lines, and the mixed file recovers, scrubs clean
        and finishes the stream with the twin's blocks after the lines."""
        directory, _ = served_dir(tmp_path)
        path = directory / LEDGER_NAME
        assert rewrite_per_line(path) == 3 * EVERY
        old = path.read_bytes()
        recovered = recover(directory)
        assert logical_state(recovered.service) == twin[1][3 * EVERY + 5]
        for trip in TRIPS[3 * EVERY + 5 : 4 * EVERY + 3]:
            recovered.handle_trip(trip)
        recovered.close()
        raw = path.read_bytes()
        assert raw.startswith(old)
        assert raw[len(old):].count(b"\n") == 1  # one block: seqs 61..80
        assert ledger_seqs(directory) == 4 * EVERY
        assert scrub_tree(directory, repair=False, durable=False, record=False).clean
        again = recover(directory)
        assert logical_state(again.service) == twin[1][4 * EVERY + 3]
        for trip in TRIPS[4 * EVERY + 3 :]:
            again.handle_trip(trip)
        again.checkpoint()
        again.close()
        final = twin[2]
        assert logical_state(again.service) == final["state"]
        assert newest_payload(again) == final["snapshot"]
        twin_blocks = final["ledger"].splitlines(keepends=True)
        assert path.read_bytes() == old + b"".join(twin_blocks[3:])

    def test_committed_fixture_appends_a_block(self, tmp_path):
        """The committed fleet fixture, written one line per response:
        repaired, every shard recovers; a shard that replayed a journal
        tail checkpoints it as one block after the lines its snapshot
        covers, recovers again to the same state, and the fleet scrubs
        clean."""
        fixture = Path(__file__).parents[1] / "fixtures" / "scrub-fleet"
        root = tmp_path / "scrub-fleet"
        shutil.copytree(fixture, root)
        assert not scrub_tree(root, repair=True, durable=False, record=False).refused
        blocks = 0
        for sdir in sorted(root.glob("shard-*")):
            lines = (sdir / LEDGER_NAME).read_bytes().splitlines(keepends=True)
            assert all(b'"response":' in line for line in lines)
            service = CheckpointingService.recover(sdir, durable=False)
            kept, replayed = service.ledger.count, service.last_recovery.replayed
            state = logical_state(service.service)
            service.checkpoint()
            service.close()
            raw = (sdir / LEDGER_NAME).read_bytes()
            assert raw.startswith(b"".join(lines[:kept]))
            assert raw[len(b"".join(lines[:kept])):].count(b"\n") == (replayed > 0)
            blocks += replayed > 0
            again = CheckpointingService.recover(sdir, durable=False)
            assert again.last_recovery.replayed == 0
            assert logical_state(again.service) == state
            again.close()
        assert blocks >= 1
        assert scrub_tree(root, repair=False, durable=False, record=False).clean


# ----------------------------------------------------------------------
def served_dir(tmp_path):
    """A closed directory that served ``3 * EVERY + 5`` trips: its ledger
    holds one block per checkpoint, the newest snapshot ends the last."""
    directory = tmp_path / "run"
    victim = wrap(directory)
    for trip in TRIPS[: 3 * EVERY + 5]:
        victim.handle_trip(trip)
    victim.close()
    return directory, victim.service.responses


def forge(record):
    """A checksummed ledger line holding ``record`` as its body."""
    return frame(json.dumps(record, sort_keys=True, separators=(",", ":"))).encode()


class TestBlockRefusals:
    """A block recovery cannot trust inside the snapshot's seqs raises
    ``LedgerCorruptError``; none is recovered around."""

    @pytest.mark.parametrize("line", [0, 1, 2])
    def test_flipped_byte_inside_a_block(self, tmp_path, line):
        directory, _ = served_dir(tmp_path)
        path = directory / LEDGER_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3
        at = len(lines[line]) // 2
        lines[line] = lines[line][:at] + bytes([lines[line][at] ^ 1]) + lines[line][at + 1:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerCorruptError):
            recover(directory)

    def test_block_straddling_the_snapshot_seq(self, tmp_path):
        """Snapshot 60 is gone, so recovery restores snapshot 40, inside
        a block that runs over seqs 21..60."""
        directory, responses = served_dir(tmp_path)
        path = directory / LEDGER_NAME
        path.unlink()
        ledger = ResponseLedger(path, durable=False)
        ledger.append(responses[:EVERY])
        ledger.append(responses[EVERY : 3 * EVERY])
        ledger.close()
        (directory / "snapshot-0000000060.json").unlink()
        with pytest.raises(LedgerCorruptError, match="past seq 40"):
            recover(directory)

    def test_open_refuses_a_block_past_the_count(self, tmp_path):
        responses = build_service(seed=38).serve(make_trips(12, seed=38))
        path = tmp_path / LEDGER_NAME
        ResponseLedger(path, durable=False).append(responses)
        with pytest.raises(LedgerCorruptError, match="runs to seq 12"):
            ResponseLedger.open(path, 5)
        assert ResponseLedger.open(path, 12)[1] == responses

    @pytest.mark.parametrize("count", [0, -3, 1.5, True, "20", None])
    @pytest.mark.parametrize("last", [False, True])
    def test_block_with_a_bad_count(self, tmp_path, count, last):
        """Not intact by the reader rule: mid-file damage before the
        last block, a short history as the last."""
        directory, _ = served_dir(tmp_path)
        path = directory / LEDGER_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        k = 2 if last else 1
        record = json.loads(lines[k].split(b" ", 1)[1])
        record["count"] = count
        lines[k] = forge(record)
        path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerCorruptError):
            recover(directory)
        assert scrub_ledger(path, repair=False)[0].kind == (
            "ledger_torn_tail" if last else "ledger_midfile"
        )

    @pytest.mark.parametrize("change", ["short_column", "long_column", "count", "field"])
    def test_block_with_mismatched_columns(self, tmp_path, change):
        """Checksummed and in sequence, so the reader keeps it; decoding
        refuses it."""
        directory, _ = served_dir(tmp_path)
        path = directory / LEDGER_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1].split(b" ", 1)[1])
        columns = record["responses"]
        if change == "short_column":
            columns["walking_m"].pop()
        elif change == "long_column":
            columns["order_id"].append(10_000)
        elif change == "count":  # every column one short of the count
            for column in columns.values():
                column.pop()
        else:
            columns["walking"] = columns.pop("walking_m")
        lines[1] = forge(record)
        path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerCorruptError, match="malformed record"):
            recover(directory)
