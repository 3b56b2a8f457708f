"""The columnar planner step against the per-row oracle.

``PlacementService.handle_block`` draws each segment's coin flips and
ride noise in one call each and fills the KS window before each
periodic check; ``handle_trip_per_row`` (``journal_oracle.py``) is the
step one trip at a time with scalar draws.  Served through a
``CheckpointingService`` at any block cut and checkpoint cadence, the
two must agree on responses, state, journal and ledger bytes, and the
exact positions of both generators — also when a row or a checkpoint
raises partway through a block.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import PlacementService
from repro.core.tripblock import TripBlock
from repro.energy import Fleet
from repro.errors import BlockApplyError
from repro.resilience import CheckpointingService, constant_cost_spec, logical_state

from .conftest import COST_VALUE, build_service, make_trips
from .journal_oracle import handle_trip_per_row, serve_per_trip
from .test_block_commit import cut

def variant_service(seed, variant):
    """A 30-bike service; ``variant`` reshapes its fleet or plan.

    * ``plain``: every bike on the default battery;
    * ``mixed``: every third bike has no ride noise (its rides draw
      nothing) and every third a loud one;
    * ``no_bikes``: an empty fleet, so every trip is refused;
    * ``retired``: every anchor retired, so every trip is refused.
    """
    service = build_service(seed=seed, n_bikes=30)
    if variant in ("mixed", "no_bikes"):
        state = service.fleet.state_dict()
        if variant == "no_bikes":
            state["bikes"] = []
        for b in state["bikes"][::3]:
            b["config"]["consumption_noise"] = 0.0
        for b in state["bikes"][1::3]:
            b["config"]["consumption_noise"] = 1.0
        service = PlacementService(service.planner, Fleet.from_state(state))
    if variant == "retired":
        for sid in service.active_station_ids:
            service.planner.remove_station(sid)
    return service


def generator_states(service):
    return (
        service.planner.rng.bit_generator.state,
        service.fleet.rng.bit_generator.state,
    )


def wrap(service, directory, every):
    return CheckpointingService(
        service, directory, checkpoint_every=every, durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )


class TestParityWithPerRowOracle:
    @given(
        seed=st.integers(min_value=0, max_value=3),
        variant=st.sampled_from(["plain", "mixed", "no_bikes", "retired"]),
        every=st.integers(min_value=1, max_value=7),
        redeliveries=st.lists(
            st.tuples(st.integers(0, 119), st.integers(0, 119)), max_size=16
        ),
        sizes=st.lists(st.integers(min_value=1, max_value=256), min_size=1, max_size=10),
    )
    @example(seed=0, variant="plain", every=7, redeliveries=[(3, 4)], sizes=[256])
    @example(seed=2, variant="mixed", every=1, redeliveries=[], sizes=[5, 1])
    @example(seed=1, variant="no_bikes", every=3, redeliveries=[(0, 0)], sizes=[9])
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_rows(self, seed, variant, every, redeliveries, sizes):
        """Any cut of a stream into blocks of 1-256 rows, any checkpoint
        cadence of 1-7, redelivered order ids, openings, retirements and
        refusals: the blocked step serves, journals and checkpoints as
        the per-row oracle does, and leaves both generators where the
        oracle's scalar draws leave them."""
        trips = make_trips(120, seed=seed, shift_at=50)
        stream = list(trips)
        for src, dst in redeliveries:
            stream.insert(dst, trips[src])
        oracle = variant_service(seed, variant)
        want, journal, ledger = serve_per_trip(oracle, stream, every)
        if variant in ("plain", "mixed"):
            assert any(r and r.opened_new for r in want)
            assert any(r and r.removed_station is not None for r in want)
        else:
            assert not any(r and r.served for r in want)

        with tempfile.TemporaryDirectory() as tmp:
            blocked = wrap(variant_service(seed, variant), Path(tmp) / "run", every)
            got = []
            for block in cut(stream, sizes):
                got.extend(blocked.handle_block(block))
            blocked.close()
            assert got == want
            assert logical_state(blocked.service) == logical_state(oracle)
            assert generator_states(blocked.service) == generator_states(oracle)
            assert (blocked.directory / "journal.jsonl").read_bytes() == journal
            ledger_path = blocked.directory / "responses.jsonl"
            assert (ledger_path.read_bytes() if ledger_path.exists() else b"") == ledger

    def test_handle_trip_is_a_block_of_one(self):
        trips = make_trips(40, seed=5, shift_at=20)
        oracle, single = build_service(seed=5), build_service(seed=5)
        for t in trips:
            handle_trip_per_row(oracle, t.order_id, t.start, t.end)
            single.handle_trip(t.order_id, t.start, t.end)
        assert single.responses == oracle.responses
        assert logical_state(single) == logical_state(oracle)
        assert generator_states(single) == generator_states(oracle)

    def test_shared_generator_keeps_the_per_row_interleaving(self):
        trips = make_trips(60, seed=6, shift_at=30)

        def shared():
            service = build_service(seed=6)
            service.fleet._rng = service.planner.rng
            return service

        oracle, blocked = shared(), shared()
        for t in trips:
            handle_trip_per_row(oracle, t.order_id, t.start, t.end)
        blocked.handle_block(TripBlock.from_trips(trips))
        assert blocked.responses == oracle.responses
        assert logical_state(blocked) == logical_state(oracle)


# ----------------------------------------------------------------------
EVERY = 4


def poison(service, point):
    """Make the planner step raise when it queries ``point``."""
    store = service.planner.station_set
    real = store.nearest

    def nearest(query):
        if query == point:
            raise RuntimeError("injected planner fault")
        return real(query)

    store.nearest = nearest


def per_row_until_raise(service, rows):
    """Apply ``rows`` with the per-row step; returns the responses
    before the first raise."""
    out = []
    for t in rows:
        try:
            out.append(handle_trip_per_row(service, t.order_id, t.start, t.end))
        except RuntimeError:
            break
    return out


class TestFaultsMidBlock:
    def stream(self):
        trips = make_trips(40, seed=11, shift_at=20)
        # 30 rows, two redeliveries: fresh rows span several segments.
        return trips, trips[:6] + trips[6:26] + [trips[8], trips[12]] + trips[26:30]

    def test_fault_at_row_k_of_a_multi_segment_block(self, tmp_path):
        trips, rows = self.stream()
        head, block_rows = rows[:6], rows[6:]
        failing = trips[17]
        k = block_rows.index(failing)

        oracle = build_service(seed=11)
        for t in head:
            handle_trip_per_row(oracle, t.order_id, t.start, t.end)
        poison(oracle, failing.end)
        want = per_row_until_raise(oracle, block_rows)
        assert len(want) == k

        wrapped = wrap(build_service(seed=11), tmp_path / "run", EVERY)
        wrapped.handle_block(TripBlock.from_trips(head))
        poison(wrapped.service, failing.end)
        with pytest.raises(BlockApplyError) as excinfo:
            wrapped.handle_block(TripBlock.from_trips(block_rows))
        err = excinfo.value
        assert err.index == k
        assert err.outcomes == want
        seen = {t.order_id for t in head + block_rows[:k]}
        fresh = []
        for t in block_rows[k:]:
            fresh.append(t.order_id not in seen)
            seen.add(t.order_id)
        assert err.remaining_fresh == fresh
        assert isinstance(err.cause, RuntimeError)
        assert logical_state(wrapped.service) == logical_state(oracle)
        assert generator_states(wrapped.service) == generator_states(oracle)
        assert wrapped.applied_seq == len(head) + k
        wrapped.close()

    def test_fault_at_a_checkpoint(self, tmp_path):
        trips, rows = self.stream()
        wrapped = wrap(build_service(seed=11), tmp_path / "run", EVERY)
        calls = {"n": 0}

        def failing_runner(write):
            calls["n"] += 1
            if calls["n"] == 2:  # the second periodic checkpoint
                raise OSError("injected checkpoint fault")
            return write()

        wrapped.checkpoint_runner = failing_runner
        with pytest.raises(BlockApplyError) as excinfo:
            wrapped.handle_block(TripBlock.from_trips(rows))
        err = excinfo.value
        # Fresh row 8 (seq 8) is applied, then its checkpoint raises.
        pos = 2 * EVERY - 1
        oracle = build_service(seed=11)
        want = [handle_trip_per_row(oracle, t.order_id, t.start, t.end) for t in rows[:pos + 1]]
        assert err.index == pos
        assert err.outcomes == want[:pos]
        assert err.remaining_fresh == [True] * 19 + [False, False] + [True] * 4
        assert isinstance(err.cause, OSError)
        assert wrapped.applied_seq == pos + 1
        assert wrapped.service.responses == want
        assert logical_state(wrapped.service) == logical_state(oracle)
        assert generator_states(wrapped.service) == generator_states(oracle)
        wrapped.close()
