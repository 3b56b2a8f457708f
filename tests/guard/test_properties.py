"""Property-based invariants of the guard layer (hypothesis).

Two accounting laws must hold for *any* input stream, however hostile:

* validator: ``accepted + dead-lettered == offered`` and the per-rule
  counters sum exactly to the rejections;
* reorder buffer: the emission is timestamp-sorted, and every offered
  event is either emitted once or dead-lettered once — never both,
  never neither.
"""

from datetime import timedelta

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.datasets import TripRecord  # noqa: E402
from repro.geo import BoundingBox, Point  # noqa: E402
from repro.guard import (  # noqa: E402
    DeadLetterSink,
    TripValidator,
    ValidationConfig,
    WatermarkBuffer,
)

from .conftest import T0  # noqa: E402

BOX = BoundingBox(0.0, 0.0, 2000.0, 2000.0)

# Coordinates that wander beyond the plane (and occasionally go NaN),
# timestamps that jump both ways, batteries and route lengths that lie:
# the hostile mix.
coord = st.one_of(
    st.floats(min_value=-500.0, max_value=2500.0),
    st.just(float("nan")),
)
battery = st.one_of(
    st.none(),
    st.floats(min_value=-1.0, max_value=5.0, allow_nan=False),
)
geodesic = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=5000.0),
    st.sampled_from([float("nan"), float("inf")]),
)
offset_s = st.floats(min_value=-7200.0, max_value=7200.0, allow_nan=False)


@st.composite
def trip_records(draw, index=0):
    return TripRecord(
        order_id=draw(st.integers(min_value=0, max_value=50)),
        user_id=0,
        bike_id=draw(st.integers(min_value=0, max_value=5)),
        bike_type=1,
        start_time=T0 + timedelta(seconds=draw(offset_s)),
        start=Point(draw(coord), draw(coord)),
        end=Point(draw(coord), draw(coord)),
        geodesic_m=draw(geodesic),
        battery=draw(battery),
    )


streams = st.lists(trip_records(), max_size=60)


class TestValidatorProperties:
    @given(stream=streams)
    @settings(max_examples=60, deadline=None)
    def test_accounting_is_exact(self, stream):
        sink = DeadLetterSink()
        validator = TripValidator(
            ValidationConfig(bounds=BOX, max_backwards_s=600.0), sink=sink
        )
        accepted = sum(1 for trip in stream if validator.admit(trip))
        assert accepted + sink.total == len(stream)
        assert sum(validator.counters.values()) == sink.total
        validator.consistency_check()

    @given(stream=streams)
    @settings(max_examples=30, deadline=None)
    def test_decisions_are_replayable(self, stream):
        def run():
            v = TripValidator(ValidationConfig(bounds=BOX))
            return [v.admit(t) for t in stream]

        assert run() == run()


class TestBufferProperties:
    @given(stream=streams, lateness=st.floats(min_value=0.0, max_value=3600.0))
    @settings(max_examples=60, deadline=None)
    def test_emission_is_sorted_and_exactly_once(self, stream, lateness):
        sink = DeadLetterSink()
        buffer = WatermarkBuffer(lateness_s=lateness, sink=sink, max_pending=16)
        emitted = []
        for trip in stream:
            emitted.extend(buffer.push(trip))
        times = [t.start_time for t in emitted]
        assert times == sorted(times)  # sorted even before the flush
        emitted.extend(buffer.flush())
        buffer.consistency_check()
        # exactly-once: emitted + dead-lettered partitions the stream
        assert len(emitted) + sink.total == len(stream)
        assert buffer.emitted == len(emitted)
        assert sink.total == buffer.too_late + buffer.shed

    @given(stream=streams)
    @settings(max_examples=30, deadline=None)
    def test_unbounded_lateness_emits_everything(self, stream):
        buffer = WatermarkBuffer(
            lateness_s=10**7, max_pending=len(stream) + 1
        )
        emitted = []
        for trip in stream:
            emitted.extend(buffer.push(trip))
        emitted.extend(buffer.flush())
        # records compared by repr: a NaN coordinate equals itself there
        # (released records are rebuilt from the buffer's columns)
        assert sorted(map(repr, emitted)) == sorted(map(repr, stream))
