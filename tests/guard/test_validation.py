"""TripValidator: per-rule rejection, counters, and the dead-letter sink."""

import math
from dataclasses import replace

import pytest

from repro.geo import BoundingBox
from repro.guard import DeadLetterSink, TripValidator, ValidationConfig

from .conftest import make_trip

BOX = BoundingBox(0.0, 0.0, 2000.0, 2000.0)


def make_validator(**overrides):
    defaults = dict(bounds=BOX, max_backwards_s=300.0)
    defaults.update(overrides)
    return TripValidator(ValidationConfig(**defaults))


class TestRules:
    def test_clean_trip_is_admitted(self):
        v = make_validator()
        assert v.admit(make_trip(0))
        assert v.accepted == 1 and v.rejected == 0

    @pytest.mark.parametrize("coord", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinate_rejected(self, coord):
        v = make_validator()
        assert not v.admit(make_trip(0, end=(coord, 500.0)))
        assert v.counters["finite"] == 1

    @pytest.mark.parametrize("geodesic_m", [float("nan"), float("inf")])
    def test_non_finite_geodesic_rejected(self, geodesic_m):
        v = make_validator()
        assert not v.admit(replace(make_trip(0), geodesic_m=geodesic_m))
        assert v.counters["finite"] == 1
        assert v.admit(replace(make_trip(1), geodesic_m=1000.0))

    def test_out_of_bounds_endpoint_rejected(self):
        v = make_validator()
        assert not v.admit(make_trip(0, start=(-50.0, 100.0)))
        assert not v.admit(make_trip(1, end=(100.0, 99999.0)))
        assert v.counters["bounds"] == 2

    def test_no_bounds_config_skips_the_rule(self):
        v = make_validator(bounds=None)
        assert v.admit(make_trip(0, start=(-1e7, 0.0), end=(-1e7 + 500.0, 0.0)))

    def test_backwards_clock_beyond_limit_rejected(self):
        v = make_validator()
        assert v.admit(make_trip(0, at_s=1000.0))
        # within the tolerance: benign jitter, admitted
        assert v.admit(make_trip(1, at_s=800.0))
        # a device clock reset: far behind the stream
        assert not v.admit(make_trip(2, at_s=100.0))
        assert v.counters["clock"] == 1

    def test_monotonic_clock_only_advances(self):
        v = make_validator()
        assert v.admit(make_trip(0, at_s=1000.0))
        assert v.admit(make_trip(1, at_s=900.0))  # jitter does not move the clock
        # still judged against t=1000, not t=900
        assert not v.admit(make_trip(2, at_s=650.0))

    def test_excessive_distance_rejected(self):
        v = make_validator(bounds=None, max_trip_m=1000.0)
        assert not v.admit(make_trip(0, start=(0.0, 0.0), end=(0.0, 5000.0)))
        assert v.counters["distance"] == 1

    @pytest.mark.parametrize("battery", [-0.1, 4.7, float("nan")])
    def test_battery_out_of_range_rejected(self, battery):
        v = make_validator()
        assert not v.admit(make_trip(0, battery=battery))
        assert v.counters["battery"] == 1

    def test_absent_battery_passes(self):
        v = make_validator()
        assert v.admit(make_trip(0, battery=None))

    def test_teleport_rule_is_opt_in(self):
        v = make_validator()  # default: disabled
        assert v.admit(make_trip(0, bike_id=3, end=(0.0, 0.0)))
        assert v.admit(make_trip(1, bike_id=3, start=(2000.0, 2000.0), at_s=1.0))

    def test_teleporting_bike_rejected_when_enabled(self):
        v = make_validator(max_bike_speed_mps=10.0)
        assert v.admit(make_trip(0, bike_id=3, end=(0.0, 0.0), at_s=0.0))
        # 2.8 km in 10 s is not a bicycle
        assert not v.admit(
            make_trip(1, bike_id=3, start=(2000.0, 2000.0), at_s=10.0)
        )
        assert v.counters["teleport"] == 1

    def test_exact_redelivery_exempt_from_teleport(self):
        v = make_validator(max_bike_speed_mps=10.0)
        trip = make_trip(0, bike_id=3, start=(1500.0, 1500.0), end=(0.0, 0.0))
        assert v.admit(trip)
        # the same order redelivered: the duplicate screen's job, not a fault
        assert v.admit(trip)

    def test_first_violation_names_the_rejection(self):
        # NaN coordinate AND bad battery: the first rule in order wins.
        v = make_validator()
        assert not v.admit(make_trip(0, end=(float("nan"), 0.0), battery=4.7))
        assert v.counters["finite"] == 1
        assert v.counters["battery"] == 0


class TestStateAndAccounting:
    def test_rejected_trip_leaves_state_untouched(self):
        v = make_validator()
        assert v.admit(make_trip(0, at_s=100.0))
        # garbage far in the future must not advance the stream clock
        assert not v.admit(make_trip(1, at_s=1e9, battery=4.7))
        assert v.admit(make_trip(2, at_s=200.0))

    def test_counters_sum_to_rejected(self):
        v = make_validator()
        v.admit(make_trip(0))
        v.admit(make_trip(1, end=(float("nan"), 0.0)))
        v.admit(make_trip(2, start=(-999.0, 0.0)))
        v.admit(make_trip(3, battery=2.0))
        assert v.offered == 4 and v.accepted == 1 and v.rejected == 3
        assert sum(v.counters.values()) == 3
        v.consistency_check()

    def test_sink_records_rule_and_order(self):
        sink = DeadLetterSink()
        v = TripValidator(ValidationConfig(bounds=BOX), sink=sink)
        v.admit(make_trip(0, order_id=77, end=(float("nan"), 0.0)))
        assert sink.total == 1
        (row,) = list(sink)
        assert row.rule == "finite" and row.order_id == 77 and row.seq == 0

    def test_sink_rotation_keeps_counters_exact(self):
        sink = DeadLetterSink(keep=5)
        v = TripValidator(ValidationConfig(bounds=BOX), sink=sink)
        for i in range(12):
            v.admit(make_trip(i, battery=4.7))
        assert sink.total == 12
        assert len(sink.rows) == 5
        assert sink.by_rule["battery"] == 12

    def test_sink_jsonl_roundtrip(self, tmp_path):
        import json

        sink = DeadLetterSink()
        v = TripValidator(ValidationConfig(bounds=BOX), sink=sink)
        v.admit(make_trip(0, battery=-1.0))
        path = sink.write_jsonl(tmp_path / "dead.jsonl", durable=False)
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows[0]["rule"] == "battery" and rows[0]["order_id"] == 0

    def test_deterministic_across_replays(self):
        stream = [
            make_trip(0),
            make_trip(1, end=(float("nan"), 0.0)),
            make_trip(2, at_s=60.0),
            make_trip(3, battery=9.0),
        ]
        a, b = make_validator(), make_validator()
        assert [a.admit(t) for t in stream] == [b.admit(t) for t in stream]
        assert a.counters == b.counters


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_backwards_s": -1.0},
            {"max_trip_m": 0.0},
            {"max_bike_speed_mps": -5.0},
            {"battery_range": (1.0, 0.0)},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ValidationConfig(**kwargs)

    def test_bad_sink_keep_rejected(self):
        with pytest.raises(ValueError):
            DeadLetterSink(keep=0)
