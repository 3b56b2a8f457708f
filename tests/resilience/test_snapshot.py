"""Tests for the snapshot file format and the rotating store."""

import json
import math

import pytest

from repro.core import EsharingPlanner, constant_facility_cost
from repro.resilience import (
    SNAPSHOT_VERSION,
    CheckpointingService,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotStore,
    SnapshotVersionError,
    constant_cost_spec,
    decode_snapshot,
    encode_snapshot,
)
from repro.resilience.chaos import FaultInjector

from .conftest import COST_VALUE, build_service, make_trips


class TestEncodeDecode:
    def test_roundtrip(self):
        payload = {"a": [1, 2.5, "x"], "b": {"nested": None}}
        assert decode_snapshot(encode_snapshot(payload)) == payload

    def test_float_bits_survive(self):
        value = 0.1 + 0.2  # not representable exactly; repr round-trips
        out = decode_snapshot(encode_snapshot({"v": value}))
        assert out["v"] == value

    def test_nan_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_snapshot({"v": math.nan})
        with pytest.raises(ValueError):
            encode_snapshot({"v": math.inf})

    def test_truncation_is_corrupt(self):
        data = encode_snapshot({"k": list(range(50))})
        for cut in (0, 5, len(data) // 2, len(data) - 2):
            with pytest.raises(SnapshotCorruptError):
                decode_snapshot(data[:cut])

    def test_bitflip_is_corrupt(self):
        data = bytearray(encode_snapshot({"k": "0123456789"}))
        mid = len(data) - 5  # inside the payload line
        data[mid] ^= 0xFF
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(bytes(data))

    def test_foreign_file_is_corrupt(self):
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(b'{"some": "json"}\n{"other": 1}\n')

    def test_version_mismatch_refused(self):
        data = encode_snapshot({"k": 1}, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotVersionError) as err:
            decode_snapshot(data)
        # The message must tell the operator what to do.
        assert "refusing" in str(err.value)

    def test_header_is_plain_json(self):
        head = encode_snapshot({}).split(b"\n")[0]
        header = json.loads(head)
        assert header["format"] == "esharing-snapshot"
        assert header["version"] == SNAPSHOT_VERSION


class TestSnapshotStore:
    def test_save_load(self, tmp_path):
        store = SnapshotStore(tmp_path, durable=False)
        store.save({"state": 1}, seq=10)
        snap = store.load_latest()
        assert snap.seq == 10
        assert snap.payload == {"state": 1}
        assert snap.path is not None

    def test_keeps_only_last_generations(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2, durable=False)
        for seq in (1, 2, 3, 4):
            store.save({"seq": seq}, seq=seq)
        assert [seq for seq, _ in store.list()] == [3, 4]

    def test_prune_counts_good_generations(self, tmp_path):
        """A torn file never pushes a good generation out of the store."""
        store = SnapshotStore(tmp_path, keep=2, durable=False)
        store.save({"seq": 1}, seq=1)
        store.save({"seq": 2}, seq=2)
        FaultInjector.corrupt_file(store.path_for(2))
        store.save({"seq": 3}, seq=3)
        assert [seq for seq, _ in store.list()] == [1, 2, 3]
        FaultInjector.corrupt_file(store.path_for(3), mode="flip")
        snap = store.load_latest()
        assert (snap.seq, snap.payload) == (1, {"seq": 1})
        store.save({"seq": 4}, seq=4)  # good: 4 and 1; nothing older to drop
        assert [seq for seq, _ in store.list()] == [1, 2, 3, 4]
        store.save({"seq": 5}, seq=5)  # good: 5 and 4
        assert [seq for seq, _ in store.list()] == [4, 5]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, keep=0)

    def test_negative_seq_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path, durable=False)
        with pytest.raises(ValueError):
            store.save({}, seq=-1)

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotStore(tmp_path, durable=False).load_latest()

    def test_torn_newest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path, durable=False)
        store.save({"gen": "old"}, seq=1)
        path = store.save({"gen": "new"}, seq=2)
        FaultInjector.corrupt_file(path, mode="truncate")
        snap = store.load_latest()
        assert snap.seq == 1
        assert snap.payload == {"gen": "old"}

    def test_all_torn_raises_with_detail(self, tmp_path):
        store = SnapshotStore(tmp_path, durable=False)
        for seq in (1, 2):
            FaultInjector.corrupt_file(store.save({"s": seq}, seq=seq))
        with pytest.raises(SnapshotError) as err:
            store.load_latest()
        assert "skipped corrupt" in str(err.value)

    def test_version_mismatch_not_skipped(self, tmp_path):
        """A valid-but-newer snapshot must refuse, not fall back."""
        store = SnapshotStore(tmp_path, durable=False)
        store.save({"gen": "old"}, seq=1)
        newer = store.path_for(2)
        newer.write_bytes(encode_snapshot({"gen": "future"}, version=SNAPSHOT_VERSION + 1))
        with pytest.raises(SnapshotVersionError):
            store.load_latest()

    def test_unrelated_files_ignored(self, tmp_path):
        store = SnapshotStore(tmp_path, durable=False)
        (tmp_path / "journal.jsonl").write_text("not a snapshot\n")
        (tmp_path / "snapshot-0000000001.json.tmp-ab").write_text("partial")
        store.save({"ok": True}, seq=1)
        assert store.load_latest().payload == {"ok": True}


class TestDeterministicBytes:
    def _run(self, directory):
        service = CheckpointingService(
            build_service(seed=15), directory, checkpoint_every=50, keep=10,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        for trip in make_trips(300, seed=15, shift_at=150):
            service.handle_trip(trip)
        service.close()
        assert service.service.planner.ks_seconds > 0.0  # the KS tests ran
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_identical_runs_write_identical_files(self, tmp_path):
        """No wall-clock time reaches a snapshot: two identical runs
        leave byte-identical snapshot, journal and ledger files."""
        first, second = self._run(tmp_path / "a"), self._run(tmp_path / "b")
        assert len([n for n in first if n.startswith("snapshot-")]) == 7
        assert first == second

    def test_old_ks_seconds_field_is_ignored(self):
        planner = build_service(seed=16).planner
        state = planner.state_dict()
        assert "ks_seconds" not in state
        restored = EsharingPlanner.from_state(
            dict(state, ks_seconds=1.5), constant_facility_cost(COST_VALUE)
        )
        assert restored.ks_seconds == 0.0
        assert restored.state_dict() == state
