"""Group-commit WAL: one fsync per block, scalar semantics preserved.

``TripJournal.append_block`` and ``CheckpointingService.handle_block``
must be byte- and state-identical to the per-trip oracle
(``journal_oracle.py``: the ``json`` record encoder plus the planner
step row by row with scalar draws) — batching the WAL write
changes *when* durability is paid for, never *what* is recorded.  The
one semantic shift (a mid-block apply failure leaves the block's tail
already journaled) is pinned down here via ``BlockApplyError`` and the
recovery replay.
"""

import tempfile
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.tripblock import TripBlock
from repro.datasets.trips import TripRecord
from repro.errors import BlockApplyError
from repro.geo.points import Point
from repro.resilience import (
    CheckpointingService,
    constant_cost_spec,
    logical_state,
)
from repro.resilience.journal import TripJournal

from .conftest import COST_VALUE, build_service, make_trips
from .journal_oracle import encode_line, serve_per_trip

CHECKPOINT_EVERY = 10


def build(tmp_path, name, seed=7, n_bikes=80):
    return CheckpointingService(
        build_service(seed=seed, n_bikes=n_bikes),
        tmp_path / name,
        checkpoint_every=CHECKPOINT_EVERY,
        durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )


class TestAppendBlock:
    def test_byte_identical_to_per_trip_appends(self, tmp_path):
        trips = make_trips(37, seed=3)
        block = TripBlock.from_trips(trips)
        scalar = TripJournal(tmp_path / "scalar.jsonl", durable=False)
        scalar_seqs = [scalar.append(t) for t in trips]
        scalar.close()

        blocked = TripJournal(tmp_path / "blocked.jsonl", durable=False)
        blocked_seqs = []
        for lo in range(0, len(trips), 8):
            blocked_seqs.extend(blocked.append_block(block[lo : lo + 8]))
        blocked.close()

        assert blocked_seqs == scalar_seqs
        oracle = "".join(encode_line(s, t) for s, t in zip(scalar_seqs, trips))
        assert (tmp_path / "blocked.jsonl").read_bytes() == oracle.encode()
        assert (tmp_path / "scalar.jsonl").read_bytes() == oracle.encode()

    def test_empty_block_is_a_no_op(self, tmp_path):
        journal = TripJournal(tmp_path / "j.jsonl", durable=False)
        assert journal.append_block(TripBlock.empty()) == []
        assert journal.next_seq == 1
        journal.append_block(TripBlock.from_trips(make_trips(2, seed=1)))
        assert journal.next_seq == 3
        journal.close()

    def test_sequence_continues_across_block_and_scalar(self, tmp_path):
        trips = make_trips(7, seed=2)
        journal = TripJournal(tmp_path / "j.jsonl", durable=False)
        assert journal.append(trips[0]) == 1
        assert journal.append_block(TripBlock.from_trips(trips[1:4])) == [2, 3, 4]
        assert journal.append(trips[4]) == 5
        journal.close()
        reopened = TripJournal(tmp_path / "j.jsonl", durable=False)
        assert reopened.next_seq == 6
        assert [e.seq for e in reopened.scan()] == [1, 2, 3, 4, 5]

    def test_torn_tail_of_a_group_commit_is_tolerated(self, tmp_path):
        """A crash mid-group-write leaves an intact prefix plus at most
        one torn final line — exactly the scalar torn-tail contract."""
        trips = make_trips(12, seed=4)
        path = tmp_path / "j.jsonl"
        journal = TripJournal(path, durable=False)
        journal.append_block(TripBlock.from_trips(trips))
        journal.close()
        blob = path.read_bytes()
        lines = blob.splitlines(keepends=True)
        # tear the last record in half, as an interrupted write would
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        survivor = TripJournal(path, durable=False)
        entries = survivor.scan()
        assert [e.seq for e in entries] == list(range(1, len(trips)))
        assert survivor.next_seq == len(trips)  # torn seq 12 is reusable
        survivor.close()


def adversarial_trips(start_us_offsets):
    """Trips whose floats stress ``repr`` round-tripping: shortest-repr
    decimals, denormals, negative zero, huge/tiny magnitudes, and every
    None/value combination of the optional fields."""
    values = [
        (0.1 + 0.2, 1e-17),
        (-0.0, 123456789.123456789),
        (5e-324, 1e307),
        (1.0 / 3.0, 1e-300),
        (2.0, 7.0),
    ]
    trips = []
    for i, offset_us in enumerate(start_us_offsets):
        x, y = values[i % len(values)]
        trips.append(
            TripRecord(
                order_id=i,
                user_id=100 + i,
                bike_id=200 + i,
                bike_type=i % 2,
                start_time=datetime(2017, 5, 10) + timedelta(microseconds=offset_us),
                start=Point(x, y),
                end=Point(y, x),
                geodesic_m=None if i % 3 == 0 else x * 7.0,
                battery=None if i % 2 == 0 else 0.1 + 0.2,
            )
        )
    return trips


class TestBlockNativeEncoding:
    @pytest.mark.parametrize(
        "offsets",
        [
            list(range(0, 10_000_000, 1_000_000)),  # whole seconds
            list(range(0, 10_000_000, 999_999)),  # sub-second components
        ],
        ids=["vectorized-iso", "per-row-iso"],
    )
    def test_columnar_bytes_match_record_path(self, tmp_path, offsets):
        trips = adversarial_trips(offsets)
        block = TripBlock.from_trips(trips)
        blocked = TripJournal(tmp_path / "blocked.jsonl", durable=False)
        assert blocked.append_block(block) == list(range(1, len(trips) + 1))
        blocked.close()
        oracle = "".join(encode_line(s, t) for s, t in enumerate(trips, start=1))
        assert (tmp_path / "blocked.jsonl").read_bytes() == oracle.encode()
        # and the journal replays to the identical trips
        assert [e.trip for e in TripJournal(
            tmp_path / "blocked.jsonl", durable=False
        ).scan()] == trips

    def test_non_finite_raises_like_scalar(self, tmp_path):
        trips = adversarial_trips([0, 1_000_000])
        nan = float("nan")
        for i, bad in enumerate([
            trips[1].with_end(Point(float("inf"), 0.0)),
            replace(trips[1], geodesic_m=nan),
            replace(trips[1], battery=nan),
        ]):
            with pytest.raises(ValueError):
                encode_line(2, bad)
            scalar = TripJournal(tmp_path / f"scalar-{i}.jsonl", durable=False)
            scalar.append(trips[0])
            with pytest.raises(ValueError):
                scalar.append(bad)
            scalar.close()
            blocked = TripJournal(tmp_path / f"blocked-{i}.jsonl", durable=False)
            with pytest.raises(ValueError, match="order 1"):
                blocked.append_block(TripBlock.from_trips([trips[0], bad]))
            blocked.close()
            assert not (tmp_path / f"blocked-{i}.jsonl").exists()  # nothing written


def cut(stream, sizes):
    """``stream`` as consecutive blocks of the given sizes; the last
    size repeats until the stream runs out."""
    block, lo, blocks = TripBlock.from_trips(stream), 0, []
    sizes, size = iter(sizes), None
    while lo < len(block):
        size = next(sizes, size)
        blocks.append(block[lo : lo + size])
        lo += size
    return blocks


class TestHandleBlock:
    @given(
        seed=st.integers(min_value=0, max_value=3),
        redeliveries=st.lists(
            st.tuples(st.integers(0, 159), st.integers(0, 159)), max_size=24
        ),
        sizes=st.lists(st.integers(min_value=1, max_value=256), min_size=1, max_size=12),
    )
    @example(seed=1, redeliveries=[(5, 7), (7, 7), (90, 3)], sizes=[256])
    @settings(max_examples=30, deadline=None)
    def test_parity_with_scalar_service(self, seed, redeliveries, sizes):
        """Any cut of a stream into blocks of 1-256 rows, with
        redelivered order ids inside and across blocks, serves, journals
        and checkpoints as the per-trip oracle does.  The stream retires
        emptied stations and opens new ones (its destinations jump away
        from the anchors at trip 60), mid-block whenever a block holds
        more than one row."""
        trips = make_trips(160, seed=seed, shift_at=60)
        stream = list(trips)
        for src, dst in redeliveries:
            stream.insert(dst, trips[src])
        oracle = build_service(seed=seed, n_bikes=30)
        want, journal, ledger = serve_per_trip(oracle, stream, CHECKPOINT_EVERY)
        assert any(r and r.opened_new for r in want)
        assert any(r and r.removed_station is not None for r in want)

        with tempfile.TemporaryDirectory() as tmp:
            blocked = build(Path(tmp), "blocked", seed=seed, n_bikes=30)
            got = []
            for block in cut(stream, sizes):
                got.extend(blocked.handle_block(block))
            blocked.close()
            assert got == want  # None markers for duplicates line up too
            assert blocked.applied_seq == len(oracle.responses)
            assert logical_state(blocked.service) == logical_state(oracle)
            assert (blocked.directory / "journal.jsonl").read_bytes() == journal
            assert (blocked.directory / "responses.jsonl").read_bytes() == ledger

    def test_intra_block_duplicate_journaled_once(self, tmp_path):
        trips = make_trips(4, seed=8)
        block = TripBlock.from_trips([trips[0], trips[1], trips[1], trips[2]])
        service = build(tmp_path, "dup")
        responses = service.handle_block(block)
        assert responses[2] is None
        assert [r is not None for r in responses] == [True, True, False, True]
        assert service.journal.next_seq == 4  # three fresh trips journaled
        service.close()

    def test_mid_block_failure_surfaces_block_apply_error(self, tmp_path):
        trips = make_trips(30, seed=9)
        service = build(tmp_path, "faulty")
        service.handle_block(TripBlock.from_trips(trips[:10]))

        # The planner step's per-row nearest-station query is the seam:
        # it fails on the 6th trip of the block.
        store = service.service.planner.station_set
        real_nearest = store.nearest
        failing = trips[15].end

        def poisoned_nearest(point):
            if point == failing:
                raise RuntimeError("injected planner corruption")
            return real_nearest(point)

        store.nearest = poisoned_nearest
        # two trailing duplicates
        block = TripBlock.from_trips(trips[10:25] + trips[20:22])
        with pytest.raises(BlockApplyError) as excinfo:
            service.handle_block(block)
        err = excinfo.value
        assert err.index == 5
        assert len(err.outcomes) == 5
        assert all(r is not None for r in err.outcomes)
        assert isinstance(err.cause, RuntimeError)
        # remainder classification: positions 5..16 of the block; the
        # two tail entries are duplicates of already-fresh positions
        assert len(err.remaining_fresh) == len(block) - err.index
        assert err.remaining_fresh[:1] == [True]  # the failing trip itself
        assert err.remaining_fresh[-2:] == [False, False]
        # group commit journaled the whole fresh chunk before applying
        assert service.journal.next_seq == 26
        service.close()

        # ...so recovery replays the journaled tail with a healed
        # planner and converges on the scalar no-fault state.
        healed = CheckpointingService.recover(
            tmp_path / "faulty",
            facility_cost=None,
            checkpoint_every=CHECKPOINT_EVERY,
            durable=False,
        )
        reference = build(tmp_path, "reference")
        reference.serve(trips[:25])
        assert healed.service.responses == reference.service.responses
        assert logical_state(healed.service) == logical_state(reference.service)
        healed.close()
        reference.close()
