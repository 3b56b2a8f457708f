"""The columnar stream path is bit-identical to per-trip oracles.

Every test here pits the blocked pipeline (``admit_block`` →
``push_block`` → ``handle_block`` group commits) against the per-trip
oracles of ``reference.py`` — ``ReferenceValidator.admit`` →
``ReferenceBuffer.push`` → the service's ``handle_trip``:

* validator + buffer accounting — decisions, per-rule counters,
  dead-letter rows, release order — matches for *any* block size and
  any chaos-mutated stream (hypothesis property, satellite of the
  columnar refactor);
* the full guarded runtime produces identical responses, state, and
  journal bytes at every block size, clean or hostile;
* self-healing after a mid-block planner fault converges on the state
  of the per-trip reference run;
* kill-at-every-block crash recovery is bit-identical to an
  uninterrupted blocked run.
"""

import time

import numpy as np
import pytest

from repro.core.tripblock import TripBlock
from repro.guard import (
    DeadLetterSink,
    GuardedRuntime,
    TripValidator,
    ValidationConfig,
    WatermarkBuffer,
)
from repro.resilience import CheckpointingService, constant_cost_spec
from repro.resilience.chaos import ChaosConfig, FaultInjector

from .conftest import (
    COST_VALUE, build_service, guard_config, make_trip, make_trips, scrub,
)
from .reference import ReferenceBuffer, ReferenceValidator, serve_reference

CHECKPOINT_EVERY = 25
BLOCK_SIZES = (2, 7, 64, 256)


def checkpointing(directory, seed=7):
    return CheckpointingService(
        build_service(seed=seed),
        directory,
        checkpoint_every=CHECKPOINT_EVERY,
        durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )


def wrap(directory, seed=7, config=None, **kwargs):
    return GuardedRuntime(
        checkpointing(directory, seed=seed), config or guard_config(), **kwargs
    )


def reference_run(directory, trips, seed=7):
    """The per-trip oracle run of ``trips`` (see ``reference.py``)."""
    return serve_reference(checkpointing(directory, seed=seed), guard_config(), trips)


def hostile_stream(n=80, seed=21):
    return FaultInjector(ChaosConfig(
        seed=seed,
        p_duplicate=0.06, p_drop=0.05, p_swap=0.08,
        p_clock_skew=0.04, skew_max_s=300.0,
        p_garbage=0.04,
        p_late=0.03, late_max_positions=6,
    )).mutate_trips(make_trips(n, seed=seed))


def journal_bytes(runtime):
    return (runtime.inner.directory / "journal.jsonl").read_bytes()


# ----------------------------------------------------------------------
# Validator + buffer: the accounting oracle (scalar vs blocked).
# ----------------------------------------------------------------------

def run_scalar(stream, lateness_s, max_pending, max_bike_speed_mps=0.0):
    """The per-trip oracle: reference admit + push, one trip at a time."""
    v_sink, b_sink = DeadLetterSink(), DeadLetterSink()
    validator = ReferenceValidator(
        ValidationConfig(
            max_backwards_s=600.0, max_bike_speed_mps=max_bike_speed_mps
        ),
        sink=v_sink,
    )
    buffer = ReferenceBuffer(
        lateness_s=lateness_s, sink=b_sink, max_pending=max_pending
    )
    decisions, released = [], []
    for trip in stream:
        ok = validator.admit(trip)
        decisions.append(ok)
        if ok:
            released.extend(buffer.push(trip))
    flushed = list(buffer.flush())
    return validator, buffer, decisions, released, flushed


def run_blocked(stream, block_size, lateness_s, max_pending, max_bike_speed_mps=0.0):
    """Same stream through the columnar path, one block at a time."""
    v_sink, b_sink = DeadLetterSink(), DeadLetterSink()
    validator = TripValidator(
        ValidationConfig(
            max_backwards_s=600.0, max_bike_speed_mps=max_bike_speed_mps
        ),
        sink=v_sink,
    )
    buffer = WatermarkBuffer(
        lateness_s=lateness_s, sink=b_sink, max_pending=max_pending
    )
    decisions, released = [], []
    for lo in range(0, len(stream), block_size):
        block = TripBlock.from_trips(stream[lo : lo + block_size])
        mask = validator.admit_block(block)
        decisions.extend(bool(b) for b in mask)
        accepted = block.take(np.flatnonzero(mask))
        released.extend(buffer.push_block(accepted).to_trips())
    flushed = list(buffer.flush())
    return validator, buffer, decisions, released, flushed


def key(trip):
    return (trip.order_id, trip.start_time, trip.bike_id)


def assert_oracle_parity(
    stream, block_size, lateness_s=120.0, max_pending=16, max_bike_speed_mps=0.0
):
    sv, sb, sd, srel, sfl = run_scalar(
        stream, lateness_s, max_pending, max_bike_speed_mps
    )
    bv, bb, bd, brel, bfl = run_blocked(
        stream, block_size, lateness_s, max_pending, max_bike_speed_mps
    )
    assert bd == sd, "accept/reject decisions diverged"
    assert [key(t) for t in brel] == [key(t) for t in srel], "release order"
    assert [key(t) for t in bfl] == [key(t) for t in sfl], "flush order"
    assert bv.counters == sv.counters
    assert (bv.offered, bv.accepted, bv.rejected) == (
        sv.offered, sv.accepted, sv.rejected
    )
    assert bv.sink.by_rule == sv.sink.by_rule
    assert bv.sink.rows == sv.sink.rows, "validator dead-letter rows"
    assert bv._latest == sv._latest
    if max_bike_speed_mps > 0:  # the table's only reader
        assert bv._bike_last == sv._bike_last
    assert (bb.admitted, bb.emitted, bb.too_late, bb.shed) == (
        sb.admitted, sb.emitted, sb.too_late, sb.shed
    )
    assert bb.sink.rows == sb.sink.rows, "buffer dead-letter rows"
    bv.consistency_check()
    bb.consistency_check()


class TestAccountingOracle:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_chaos_stream_matches_scalar(self, block_size):
        assert_oracle_parity(hostile_stream(n=120, seed=11), block_size)

    def test_sorted_stream_takes_fast_path_with_same_answer(self):
        stream = make_trips(90, seed=4)
        assert_oracle_parity(stream, block_size=30)
        # and the fast path really is zero-copy: a fully releasable
        # sorted block comes back as a slice of the input block
        buffer = WatermarkBuffer(lateness_s=0.0, max_pending=64)
        block = TripBlock.from_trips(stream[:30])
        out = buffer.push_block(block)
        assert np.shares_memory(out.start_us, block.start_us)

    def test_overflow_shedding_matches_scalar(self):
        # max_pending=4 with generous lateness forces the shed path
        stream = hostile_stream(n=60, seed=5)
        assert_oracle_parity(
            stream, block_size=13, lateness_s=3600.0, max_pending=4
        )

    @pytest.mark.parametrize("block_size", (1, 5, 64))
    def test_teleport_rule_matches_scalar(self, block_size):
        # 60 bikes, 30 s apart, random endpoints on a 2 km plane: at
        # 0.5 m/s a good share of the hops are too fast
        stream = hostile_stream(n=200, seed=13)
        sv, *_ = run_scalar(stream, 120.0, 16, max_bike_speed_mps=0.5)
        assert 0 < sv.counters["teleport"] < len(stream) // 2
        assert_oracle_parity(stream, block_size, max_bike_speed_mps=0.5)

    @staticmethod
    def alternating_chain(n):
        # One bike; every trip starts at H and ends at F, 30 s apart, and
        # F-H is 450 m: too far for one gap at 10 m/s, near enough for
        # two.  So every other trip is accepted, and each rejection moves
        # the origin the next hop is measured from.
        return [
            make_trip(i, start=(550.0, 100.0), end=(100.0, 100.0),
                      at_s=30.0 * i, bike_id=0)
            for i in range(n)
        ]

    @pytest.mark.parametrize("block_size", (1, 7, 256))
    def test_alternating_teleport_chain_matches_scalar(self, block_size):
        stream = self.alternating_chain(600)
        *_, decisions, _, _ = run_blocked(
            stream, block_size, 120.0, 16, max_bike_speed_mps=10.0
        )
        assert decisions == [i % 2 == 0 for i in range(len(stream))]
        assert_oracle_parity(stream, block_size, max_bike_speed_mps=10.0)

    def test_teleport_block_is_linear_in_its_rows(self):
        # A judgement that settled one row per pass over the whole block
        # is quadratic on this chain: ~2000 passes for one 4096-row block,
        # some 50x the per-trip reference.  Both forms spend most of
        # their time dead-lettering half the rows, so the blocked one
        # runs about as fast as the reference; 4x leaves room for noise.
        stream = self.alternating_chain(4096)
        block = TripBlock.from_trips(stream)
        config = ValidationConfig(max_bike_speed_mps=10.0)

        def best_of_three(run):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            return best

        def reference():
            validator = ReferenceValidator(config)
            for trip in stream:
                validator.admit(trip)

        blocked_s = best_of_three(lambda: TripValidator(config).admit_block(block))
        assert blocked_s < 4.0 * best_of_three(reference)

    @pytest.mark.parametrize("jitter", (0.0, 16.0))
    def test_buffer_held_near_capacity_matches_scalar(self, jitter):
        # Lateness keeps ~56 of 64 slots held; the shuffled stream takes
        # the general route next to the cap, the sorted one the fast path
        # until it would overflow.
        trips = make_trips(400, seed=9)
        rng = np.random.default_rng(9)
        order = np.argsort(np.arange(400) + rng.uniform(0.0, jitter, 400))
        stream = [trips[i] for i in order]
        for block_size in (1, 13, 64):
            assert_oracle_parity(
                stream, block_size, lateness_s=30.0 * 56, max_pending=64
            )
            assert_oracle_parity(
                stream, block_size, lateness_s=30.0 * 70, max_pending=64
            )


# ----------------------------------------------------------------------
# Full runtime: serve() at any block size == the per-trip reference.
# ----------------------------------------------------------------------

class TestRuntimeBlockParity:
    def test_clean_stream_bit_identical(self, tmp_path):
        trips = make_trips(120, seed=7)
        oracle = reference_run(tmp_path / "oracle", trips)
        oracle_out = oracle.outcomes
        for size in BLOCK_SIZES:
            runtime = wrap(tmp_path / f"bs{size}")
            out = runtime.serve(trips, block_size=size)
            runtime.consistency_check()
            assert out == oracle_out, f"outcomes diverged at block_size={size}"
            assert (
                runtime.inner.service.responses
                == oracle.inner.service.responses
            )
            assert scrub(runtime.inner.service.state_dict()) == scrub(
                oracle.inner.service.state_dict()
            )
            assert journal_bytes(runtime) == journal_bytes(oracle)
            runtime.close()
        oracle.close()

    def test_hostile_stream_bit_identical(self, tmp_path):
        hostile = hostile_stream(n=100, seed=21)
        oracle = reference_run(tmp_path / "oracle", hostile, seed=21)
        oracle.inner.consistency_check()
        oracle.validator.consistency_check()
        oracle.buffer.consistency_check()
        assert oracle.sink.total > 0, "chaos produced no rejections"
        for size in BLOCK_SIZES:
            runtime = wrap(tmp_path / f"bs{size}", seed=21)
            runtime.serve(hostile, block_size=size)
            runtime.consistency_check()
            assert (
                runtime.inner.service.responses
                == oracle.inner.service.responses
            )
            assert runtime.validator.counters == oracle.validator.counters
            assert runtime.sink.by_rule == oracle.sink.by_rule
            assert (runtime.served, runtime.duplicates) == (
                oracle.served, oracle.duplicates
            )
            assert (runtime.buffer.too_late, runtime.buffer.shed) == (
                oracle.buffer.too_late, oracle.buffer.shed
            )
            assert scrub(runtime.inner.service.state_dict()) == scrub(
                oracle.inner.service.state_dict()
            )
            assert journal_bytes(runtime) == journal_bytes(oracle)
            runtime.close()
        oracle.close()

    def test_default_config_block_size_used(self, tmp_path):
        trips = make_trips(30, seed=7)
        runtime = wrap(tmp_path / "default")
        runtime.serve(trips)  # config default (256): one block
        runtime.consistency_check()
        assert runtime.served == len(trips)
        runtime.close()

    def test_bad_block_size_rejected(self, tmp_path):
        runtime = wrap(tmp_path / "bad")
        with pytest.raises(ValueError):
            runtime.serve(make_trips(3), block_size=0)
        runtime.close()


class TestBlockedSelfHeal:
    def test_mid_block_planner_fault_heals_to_oracle_state(self, tmp_path):
        trips = make_trips(60, seed=7)
        oracle = reference_run(tmp_path / "ref", trips)

        runtime = wrap(tmp_path / "faulty")
        runtime.ingest_block(TripBlock.from_trips(trips[:30]))
        planner = runtime.inner.service.planner

        def poisoned_offer(point):
            raise RuntimeError("injected planner corruption")

        planner.offer = poisoned_offer
        # The fault fires mid-block; the group commit already journaled
        # the chunk, so recovery replays it with the healed planner.
        runtime.ingest_block(TripBlock.from_trips(trips[30:]))
        runtime.finish()
        runtime.consistency_check()
        assert runtime.healed >= 1
        assert runtime.incidents.by_kind["planner_error"] >= 1
        assert (
            runtime.inner.service.responses
            == oracle.inner.service.responses
        )
        assert scrub(runtime.inner.service.state_dict()) == scrub(
            oracle.inner.service.state_dict()
        )
        runtime.close()
        oracle.close()


class TestKillAtEveryBlock:
    def test_bit_identical_recovery_from_every_block_boundary(self, tmp_path):
        size = 7
        hostile = hostile_stream(n=45, seed=21)
        reference = wrap(tmp_path / "ref", seed=21)
        reference.serve(hostile, block_size=size)
        reference.consistency_check()

        boundaries = list(range(size, len(hostile) + size, size))
        for k in boundaries:
            victim = wrap(tmp_path / f"kill-{k}", seed=21)
            for lo in range(0, min(k, len(hostile)), size):
                victim.ingest_block(
                    TripBlock.from_trips(hostile[lo : lo + size])
                )
            victim.close()  # the crash: buffered arrivals are lost

            resumed = GuardedRuntime.recover(
                tmp_path / f"kill-{k}", config=guard_config(),
                checkpoint_every=CHECKPOINT_EVERY, durable=False,
            )
            resumed.serve(hostile, block_size=size)  # full redelivery
            resumed.consistency_check()
            assert (
                resumed.inner.service.responses
                == reference.inner.service.responses
            ), f"responses diverged after crash at block boundary {k}"
            assert scrub(resumed.inner.service.state_dict()) == scrub(
                reference.inner.service.state_dict()
            ), f"state diverged after crash at block boundary {k}"
            resumed.close()
        reference.close()
