"""TripBlock: exact scalar↔columnar round trips and slicing semantics."""

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from repro.core.tripblock import EPOCH, TripBlock, datetime_to_us, us_to_datetime
from repro.datasets import TripRecord
from repro.geo import Point

T0 = datetime(2017, 5, 10)


def make_trips(n, seed=0):
    rng = np.random.default_rng(seed)
    trips = []
    for i in range(n):
        battery = None
        if i % 3 == 1:
            battery = float(rng.uniform(0.0, 1.0))
        elif i % 3 == 2:
            battery = float("nan")  # present-but-garbage: distinct from None
        trips.append(
            TripRecord(
                order_id=i,
                user_id=i % 7,
                bike_id=i % 5,
                bike_type=1 + i % 2,
                start_time=T0 + timedelta(seconds=30.0 * i, microseconds=i % 997),
                start=Point(*rng.uniform(0.0, 2000.0, 2)),
                end=Point(*rng.uniform(0.0, 2000.0, 2)),
                geodesic_m=float(rng.uniform(0.0, 5000.0)) if i % 2 else None,
                battery=battery,
            )
        )
    return trips


class TestTimeline:
    def test_datetime_us_bijection_microsecond_resolution(self):
        moments = [
            EPOCH,
            datetime(2017, 5, 10, 23, 59, 59, 999999),
            datetime(1969, 12, 31, 23, 59, 59, 1),  # pre-epoch: negative µs
            datetime(2262, 1, 1, 0, 0, 0, 123456),
        ]
        for m in moments:
            assert us_to_datetime(datetime_to_us(m)) == m

    def test_timezone_aware_refused(self):
        aware = datetime(2017, 5, 10, tzinfo=timezone.utc)
        with pytest.raises(ValueError, match="timezone-aware"):
            datetime_to_us(aware)
        trip = make_trips(1)[0]
        bad = TripRecord(
            order_id=trip.order_id, user_id=trip.user_id, bike_id=trip.bike_id,
            bike_type=trip.bike_type, start_time=aware,
            start=trip.start, end=trip.end,
        )
        with pytest.raises(ValueError, match="timezone-aware"):
            TripBlock.from_trips([bad])

    def test_integer_diff_equals_timedelta_seconds(self):
        a = datetime(2017, 5, 10, 8, 0, 0, 250000)
        b = datetime(2017, 5, 10, 9, 30, 59, 750001)
        us = datetime_to_us(b) - datetime_to_us(a)
        assert us / 1e6 == (b - a).total_seconds()


class TestRoundTrip:
    def test_from_trips_to_trips_is_exact(self):
        trips = make_trips(31, seed=3)
        block = TripBlock.from_trips(trips)
        back = block.to_trips()
        assert len(back) == len(trips)
        for orig, got in zip(trips, back):
            # NaN battery breaks dataclass ==; compare field by field.
            assert got.order_id == orig.order_id
            assert got.user_id == orig.user_id
            assert got.bike_id == orig.bike_id
            assert got.bike_type == orig.bike_type
            assert got.start_time == orig.start_time
            assert (got.start.x, got.start.y) == (orig.start.x, orig.start.y)
            assert (got.end.x, got.end.y) == (orig.end.x, orig.end.y)
            assert got.geodesic_m == orig.geodesic_m
            if orig.battery is None:
                assert got.battery is None
            elif np.isnan(orig.battery):
                assert got.battery is not None and np.isnan(got.battery)
            else:
                assert got.battery == orig.battery

    def test_none_and_nan_battery_stay_distinct(self):
        trips = make_trips(9, seed=1)
        block = TripBlock.from_trips(trips)
        for i, trip in enumerate(trips):
            assert bool(block.has_battery[i]) == (trip.battery is not None)
        back = block.to_trips()
        absent = [i for i, t in enumerate(trips) if t.battery is None]
        present_nan = [
            i for i, t in enumerate(trips)
            if t.battery is not None and np.isnan(t.battery)
        ]
        assert absent and present_nan  # the fixture covers both cases
        for i in absent:
            assert back[i].battery is None
        for i in present_nan:
            assert back[i].battery is not None and np.isnan(back[i].battery)

    def test_single_trip_accessor_matches_to_trips(self):
        trips = make_trips(7, seed=2)
        block = TripBlock.from_trips(trips)
        materialised = block.to_trips()
        for i in range(len(trips)):
            assert block.trip(i) == materialised[i] or (
                # NaN battery rows: compare everything except the NaN
                materialised[i].order_id == block.trip(i).order_id
                and np.isnan(block.trip(i).battery)
            )

    def test_iteration_yields_records(self):
        trips = make_trips(4, seed=5)
        block = TripBlock.from_trips(trips)
        assert [t.order_id for t in block] == [t.order_id for t in trips]

    def test_empty(self):
        block = TripBlock.empty()
        assert len(block) == 0
        assert block.to_trips() == []
        assert TripBlock.from_trips([]).start_us.dtype == np.int64


class TestSlicing:
    def test_slice_is_zero_copy_view(self):
        block = TripBlock.from_trips(make_trips(12, seed=4))
        view = block[2:8]
        assert len(view) == 6
        assert view.start_us.base is block.start_us or (
            view.start_us.base is block.start_us.base
        )
        assert np.shares_memory(view.end_x, block.end_x)
        assert view.trip(0) == block.trip(2) or view.order_id[0] == block.order_id[2]

    def test_int_index_materialises_one_trip(self):
        block = TripBlock.from_trips(make_trips(5, seed=6))
        assert block[3].order_id == int(block.order_id[3])

    def test_take_copies_in_given_order(self):
        block = TripBlock.from_trips(make_trips(10, seed=7))
        sub = block.take([4, 1, 9])
        assert list(sub.order_id) == [4, 1, 9]
        assert not np.shares_memory(sub.start_x, block.start_x)

    def test_concat_preserves_order_and_masks(self):
        trips = make_trips(15, seed=8)
        parts = [
            TripBlock.from_trips(trips[:5]),
            TripBlock.empty(),
            TripBlock.from_trips(trips[5:]),
        ]
        merged = TripBlock.concat(parts)
        assert list(merged.order_id) == [t.order_id for t in trips]
        ref = TripBlock.from_trips(trips)
        for name in TripBlock.__slots__:
            assert np.array_equal(
                getattr(merged, name), getattr(ref, name), equal_nan=True
            ), name

    def test_sorted_by_time_matches_stable_record_sort(self):
        trips = make_trips(20, seed=9)
        # Shuffle, with deliberate timestamp ties to exercise stability.
        rng = np.random.default_rng(0)
        shuffled = [trips[i] for i in rng.permutation(len(trips))]
        tied = shuffled + shuffled[:5]
        block = TripBlock.from_trips(tied).sorted_by_time()
        want = sorted(tied, key=lambda r: r.start_time)
        assert [t.order_id for t in block.to_trips()] == [t.order_id for t in want]

    def test_length_mismatch_rejected(self):
        block = TripBlock.from_trips(make_trips(3, seed=10))
        with pytest.raises(ValueError, match="column"):
            TripBlock(
                block.order_id, block.user_id, block.bike_id, block.bike_type,
                block.start_us[:2],  # wrong length
                block.start_x, block.start_y, block.end_x, block.end_y,
            )


class TestTypedColumns:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("order_id", 3.7),
            ("order_id", 2**70),
            ("bike_id", "7"),
            ("start", Point("x", 1.0)),
            ("battery", "x"),
            ("start_time", "2017-05-10"),
        ],
    )
    def test_untyped_field_refused_not_coerced(self, field, value):
        trips = make_trips(4, seed=11)
        trips[2] = replace(trips[2], **{field: value})
        with pytest.raises(TypeError):
            TripBlock.from_trips(trips)
