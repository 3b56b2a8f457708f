"""Property-based invariants of the overload controller (hypothesis).

Two conservation laws must hold for *any* arrival pattern and any
shedder/ladder configuration:

* controller: ``offered == admitted + shed + deferred + depth`` at all
  times, and after a drain every offered row is accounted to exactly
  one of the three terminal outcomes;
* runtime: ``offered == journaled + dead-lettered + deferred``
  (journaled = served + duplicates), and a controller that never has
  to act leaves the runtime bit-identical to an uncontrolled one.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.tripblock import TripBlock, datetime_to_us  # noqa: E402
from repro.guard import (  # noqa: E402
    GuardedRuntime,
    OverloadConfig,
    OverloadController,
)
from repro.guard.validation import DeadLetterSink  # noqa: E402
from repro.resilience import (  # noqa: E402
    CheckpointingService,
    constant_cost_spec,
    logical_state,
)

from .conftest import (  # noqa: E402
    COST_VALUE,
    T0,
    build_service,
    guard_config,
    make_trips,
)

T0_US = datetime_to_us(T0)

# Arrival bursts of wildly varying size and pacing: quiet trickles,
# dead-band idling, and spikes far beyond any plausible queue limit.
offer_shapes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # rows in the burst
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),  # gap (s)
        st.integers(min_value=0, max_value=40),  # synthetic rows (capped at n)
    ),
    min_size=1,
    max_size=12,
)

overload_configs = st.builds(
    OverloadConfig,
    rate_per_s=st.floats(min_value=0.05, max_value=50.0, allow_nan=False),
    burst=st.integers(min_value=1, max_value=64),
    queue_limit=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


def _burst(n, at_s, synthetic, order_base):
    idx = np.arange(n, dtype=np.int64)
    user = np.where(idx < synthetic, -1 - idx, idx % 40)
    return TripBlock(
        order_id=order_base + idx,
        user_id=user,
        bike_id=idx % 60,
        bike_type=np.ones(n, dtype=np.int64),
        start_us=T0_US + int(at_s * 1e6) + idx * 1000,
        start_x=np.full(n, 100.0),
        start_y=np.full(n, 100.0),
        end_x=np.full(n, 900.0),
        end_y=np.full(n, 900.0),
    )


def _run_offers(config, shapes):
    """Drive a fresh controller through ``shapes``; return it + outcomes."""
    sink = DeadLetterSink()
    ctrl = OverloadController(config, sink)
    granted_ids, deferred_ids = [], []
    offered = 0
    at_s = 0.0
    for n, gap_s, synthetic in shapes:
        at_s += gap_s
        block = _burst(n, at_s, min(synthetic, n), order_base=offered)
        seqs = np.arange(offered, offered + n, dtype=np.int64)
        offered += n
        granted, deferred = ctrl.offer(block, seqs)
        granted_ids.extend(granted.order_id.tolist())
        deferred_ids.extend(deferred.order_id.tolist())
        ctrl.consistency_check()
        assert ctrl.offered == ctrl.admitted + ctrl.shed + ctrl.deferred + ctrl.depth
    tail_granted, tail_deferred = ctrl.drain()
    granted_ids.extend(tail_granted.order_id.tolist())
    deferred_ids.extend(tail_deferred.order_id.tolist())
    return ctrl, sink, offered, granted_ids, deferred_ids


class TestControllerProperties:
    @given(config=overload_configs, shapes=offer_shapes)
    @settings(max_examples=60, deadline=None)
    def test_every_row_reaches_exactly_one_outcome(self, config, shapes):
        ctrl, sink, offered, granted_ids, deferred_ids = _run_offers(
            config, shapes
        )
        ctrl.consistency_check()
        assert ctrl.depth == 0  # drain always empties the queue
        assert ctrl.offered == offered
        assert ctrl.admitted == len(granted_ids)
        assert ctrl.deferred == len(deferred_ids)
        assert ctrl.shed == sink.total
        # conservation: admitted + shed + deferred partitions the stream
        assert len(granted_ids) + sink.total + len(deferred_ids) == offered
        shed_ids = {row.order_id for row in sink.rows}
        outcomes = set(granted_ids) | set(deferred_ids) | shed_ids
        assert len(granted_ids) + len(deferred_ids) + len(shed_ids) == offered
        assert outcomes == set(range(offered))  # no row lost, none duplicated

    @given(config=overload_configs, shapes=offer_shapes)
    @settings(max_examples=30, deadline=None)
    def test_decisions_are_replayable(self, config, shapes):
        first = _run_offers(config, shapes)
        second = _run_offers(config, shapes)
        assert first[3] == second[3]  # granted ids, in order
        assert first[4] == second[4]  # deferred ids, in order
        assert [r.order_id for r in first[1].rows] == [
            r.order_id for r in second[1].rows
        ]

    @given(config=overload_configs, shapes=offer_shapes)
    @settings(max_examples=30, deadline=None)
    def test_granted_rows_keep_arrival_order(self, config, shapes):
        _, _, _, granted_ids, _ = _run_offers(config, shapes)
        assert granted_ids == sorted(granted_ids)  # FIFO queue, in-order ids


def _serve(tmp, name, trips, overload, block_size):
    runtime = GuardedRuntime(
        CheckpointingService(
            build_service(seed=11),
            Path(tmp) / name,
            checkpoint_every=25,
            durable=False,
            facility_cost_spec=constant_cost_spec(COST_VALUE),
        ),
        guard_config(overload=overload),
    )
    responses = runtime.serve(trips, block_size=block_size)
    runtime.consistency_check()
    return runtime, responses


class TestRuntimeProperties:
    @given(
        n=st.integers(min_value=10, max_value=90),
        stream_seed=st.integers(min_value=0, max_value=50),
        spacing_s=st.floats(min_value=0.5, max_value=30.0, allow_nan=False),
        config=overload_configs,
        block_size=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=15, deadline=None)
    def test_offered_rows_are_conserved(
        self, n, stream_seed, spacing_s, config, block_size
    ):
        trips = make_trips(n, seed=stream_seed, spacing_s=spacing_s)
        with tempfile.TemporaryDirectory() as tmp:
            runtime, _ = _serve(tmp, "prop", trips, config, block_size)
            accounted = (
                runtime.served
                + runtime.duplicates
                + runtime.sink.total
                + len(runtime.deferred_decisions)
                + len(runtime.degraded_decisions)
            )
            assert runtime.validator.offered == len(trips) == accounted
            runtime.close()

    @given(
        n=st.integers(min_value=10, max_value=60),
        stream_seed=st.integers(min_value=0, max_value=50),
        block_size=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=8, deadline=None)
    def test_zero_overload_is_bit_identical_to_the_oracle(
        self, n, stream_seed, block_size
    ):
        trips = make_trips(n, seed=stream_seed, spacing_s=10.0)
        generous = OverloadConfig(
            rate_per_s=1000.0, burst=100_000, queue_limit=100_000
        )
        with tempfile.TemporaryDirectory() as tmp:
            controlled, got = _serve(tmp, "on", trips, generous, block_size)
            oracle, want = _serve(tmp, "off", trips, None, block_size)
            assert controlled.overload.shed == 0
            assert controlled.overload.deferred == 0
            assert controlled.overload.transitions == []
            assert got == want
            assert logical_state(controlled.inner.service) == logical_state(
                oracle.inner.service
            )
            controlled.close()
            oracle.close()
            on = (Path(tmp) / "on" / "journal.jsonl").read_bytes()
            off = (Path(tmp) / "off" / "journal.jsonl").read_bytes()
            assert on == off
