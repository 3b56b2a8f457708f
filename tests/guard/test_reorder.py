"""WatermarkBuffer: ordered release, bounded lateness, load shedding."""

import numpy as np
import pytest

from repro.core.tripblock import TripBlock
from repro.guard import DeadLetterSink, WatermarkBuffer

from .conftest import make_trip, make_trips


def drain(buffer, stream):
    """Push a whole stream then flush; returns the emitted sequence."""
    out = []
    for trip in stream:
        out.extend(buffer.push(trip))
    out.extend(buffer.flush())
    return out


class TestOrderedRelease:
    def test_sorted_stream_is_identity(self):
        stream = make_trips(50, seed=3)
        assert drain(WatermarkBuffer(lateness_s=120.0), stream) == stream

    def test_bounded_disorder_is_restored(self):
        stream = make_trips(40, seed=3, spacing_s=30.0)
        shuffled = list(stream)
        # adjacent swaps: 60 s of disorder, well inside the bound
        for i in range(0, len(shuffled) - 1, 2):
            shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        buffer = WatermarkBuffer(lateness_s=120.0)
        assert drain(buffer, shuffled) == stream
        assert buffer.too_late == 0 and buffer.shed == 0

    def test_output_timestamps_never_decrease(self):
        rng = np.random.default_rng(11)
        stream = make_trips(80, seed=5, spacing_s=20.0)
        perm = list(stream)
        # random bounded displacement
        for i in range(len(perm)):
            j = min(len(perm) - 1, i + int(rng.integers(0, 4)))
            perm.insert(j, perm.pop(i))
        out = drain(WatermarkBuffer(lateness_s=300.0), perm)
        times = [t.start_time for t in out]
        assert times == sorted(times)

    def test_timestamp_ties_break_by_arrival(self):
        a = make_trip(0, at_s=100.0)
        b = make_trip(1, at_s=100.0)
        out = drain(WatermarkBuffer(lateness_s=10.0), [a, b])
        assert out == [a, b]


class TestLateAndShed:
    def test_too_late_event_is_dead_lettered(self):
        sink = DeadLetterSink()
        buffer = WatermarkBuffer(lateness_s=60.0, sink=sink)
        buffer.push(make_trip(0, at_s=1000.0))
        released = buffer.push(make_trip(1, at_s=100.0))  # 840 s late
        assert released == []
        assert buffer.too_late == 1 and sink.by_rule["too_late"] == 1

    def test_late_but_within_bound_is_reordered(self):
        buffer = WatermarkBuffer(lateness_s=60.0)
        buffer.push(make_trip(0, at_s=1000.0))
        assert buffer.push(make_trip(1, at_s=950.0)) == []
        out = buffer.flush()
        assert [t.order_id for t in out] == [1, 0]
        assert buffer.too_late == 0

    def test_overflow_sheds_to_sink(self):
        sink = DeadLetterSink()
        buffer = WatermarkBuffer(lateness_s=1e6, sink=sink, max_pending=3)
        for i in range(5):
            buffer.push(make_trip(i, at_s=float(i)))
        assert len(buffer) == 3
        assert buffer.shed == 2 and sink.by_rule["shed"] == 2

    @pytest.mark.parametrize("blocked", [False, True])
    def test_full_buffer_latches_until_flush(self, blocked):
        # Once full, nothing is admitted, so the watermark cannot move:
        # every later arrival is too late (behind the frozen watermark)
        # or shed, and nothing is released until flush.
        sink = DeadLetterSink()
        buffer = WatermarkBuffer(lateness_s=60.0, sink=sink, max_pending=3)
        held = [make_trip(i, at_s=1000.0 + i) for i in range(3)]
        later = [make_trip(3 + i, at_s=2000.0 + 100.0 * i) for i in range(5)]
        later.append(make_trip(8, at_s=100.0))  # behind the watermark
        if blocked:
            assert len(buffer.push_block(TripBlock.from_trips(held + later))) == 0
        else:
            for trip in held + later:
                assert buffer.push(trip) == []
        assert len(buffer) == 3
        assert (buffer.shed, buffer.too_late) == (5, 1)
        assert [(r.rule, r.seq) for r in sink.rows] == [
            ("shed", 3), ("shed", 4), ("shed", 5), ("shed", 6), ("shed", 7),
            ("too_late", 8),
        ]
        assert buffer.flush() == held
        buffer.consistency_check()

    def test_flush_empties_the_buffer(self):
        buffer = WatermarkBuffer(lateness_s=1e6)
        for i in range(4):
            buffer.push(make_trip(i, at_s=float(100 - i)))
        out = buffer.flush()
        assert len(out) == 4 and len(buffer) == 0
        assert [t.order_id for t in out] == [3, 2, 1, 0]


class TestAccounting:
    def test_every_event_accounted_once(self):
        sink = DeadLetterSink()
        buffer = WatermarkBuffer(lateness_s=60.0, sink=sink, max_pending=10)
        stream = make_trips(30, seed=9, spacing_s=30.0)
        # sprinkle in hopeless stragglers
        stream[10] = make_trip(100, at_s=-5000.0)
        stream[20] = make_trip(101, at_s=-9000.0)
        emitted = drain(buffer, stream)
        buffer.consistency_check()
        assert len(emitted) + sink.total == len(stream)

    def test_zero_lateness_requires_exact_order(self):
        buffer = WatermarkBuffer(lateness_s=0.0)
        buffer.push(make_trip(0, at_s=100.0))
        assert buffer.push(make_trip(1, at_s=50.0)) == []
        assert buffer.too_late == 1

    @pytest.mark.parametrize("kwargs", [
        {"lateness_s": -1.0},
        {"max_pending": 0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WatermarkBuffer(**kwargs)
