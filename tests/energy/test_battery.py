"""Tests for repro.energy.battery."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.energy import LOW_ENERGY_THRESHOLD, Battery, BatteryConfig


class TestBatteryConfig:
    def test_defaults_valid(self):
        cfg = BatteryConfig()
        assert cfg.range_km == pytest.approx(40.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BatteryConfig(capacity_wh=0)

    def test_invalid_consumption(self):
        with pytest.raises(ValueError):
            BatteryConfig(wh_per_km=-1)

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            BatteryConfig(consumption_noise=-0.1)

    def test_invalid_idle_drain(self):
        with pytest.raises(ValueError):
            BatteryConfig(idle_drain_per_day=1.0)


class TestBattery:
    def test_initial_level_validated(self):
        with pytest.raises(ValueError):
            Battery(level=1.5)
        with pytest.raises(ValueError):
            Battery(level=-0.1)

    def test_full_battery_not_low(self):
        assert not Battery(level=1.0).is_low

    def test_low_threshold(self):
        assert Battery(level=LOW_ENERGY_THRESHOLD - 0.01).is_low
        assert not Battery(level=LOW_ENERGY_THRESHOLD).is_low

    def test_ride_drains_deterministically_without_rng(self):
        b = Battery(BatteryConfig(capacity_wh=100.0, wh_per_km=10.0, consumption_noise=0.0))
        b.ride(1000.0)  # 1 km => 10 Wh => 10% of capacity
        assert b.level == pytest.approx(0.9)

    def test_ride_never_below_zero(self):
        b = Battery(BatteryConfig(capacity_wh=10.0, wh_per_km=10.0), level=0.05)
        b.ride(100_000.0)
        assert b.level == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            Battery().ride(-1.0)

    def test_ride_noise_varies(self):
        rng = np.random.default_rng(0)
        cfg = BatteryConfig(consumption_noise=0.5)
        levels = set()
        for _ in range(5):
            b = Battery(cfg, level=1.0)
            levels.add(round(b.ride(5000.0, rng=rng), 6))
        assert len(levels) > 1

    def test_idle_drain(self):
        b = Battery(BatteryConfig(idle_drain_per_day=0.01), level=0.5)
        b.idle(10.0)
        assert b.level == pytest.approx(0.4)

    def test_idle_negative_rejected(self):
        with pytest.raises(ValueError):
            Battery().idle(-1.0)

    def test_recharge(self):
        b = Battery(level=0.1)
        b.recharge()
        assert b.level == 1.0

    def test_remaining_range(self):
        b = Battery(BatteryConfig(capacity_wh=360.0, wh_per_km=9.0), level=0.5)
        assert b.remaining_range_km() == pytest.approx(20.0)

    def test_can_ride_respects_margin(self):
        # 10 Wh capacity at 10 Wh/km: 1 km nominal range.
        b = Battery(BatteryConfig(capacity_wh=10.0, wh_per_km=10.0, consumption_noise=0.0))
        assert b.can_ride(800.0, margin=1.2)  # needs 9.6 Wh <= 10
        assert not b.can_ride(900.0, margin=1.2)  # needs 10.8 Wh > 10

    @given(st.floats(min_value=0, max_value=50_000), st.floats(min_value=0, max_value=1))
    def test_level_always_in_unit_interval(self, distance, start):
        b = Battery(level=start)
        b.ride(distance)
        assert 0.0 <= b.level <= 1.0
        b.idle(3.0)
        assert 0.0 <= b.level <= 1.0


class TestBlockDrawnNoise:
    """The serve path draws a block's ride noise as standard normals
    and applies ``exp(0.0 + sigma * z)``: numpy's lognormal, bit for
    bit, on the same generator trajectory."""

    @pytest.mark.parametrize("sigma", [0.05, 0.25, 1.0])
    def test_block_of_normals_is_scalar_lognormal(self, sigma):
        scalar, block = np.random.default_rng(11), np.random.default_rng(11)
        want = [float(scalar.lognormal(mean=0.0, sigma=sigma)) for _ in range(2000)]
        got = [math.exp(0.0 + sigma * z) for z in block.standard_normal(size=2000).tolist()]
        assert got == want
        assert block.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    def test_ride_from_normals_matches_ride_from_rng(self, sigma):
        config = BatteryConfig(consumption_noise=sigma)
        scalar, block = np.random.default_rng(5), np.random.default_rng(5)
        normals = iter(block.standard_normal(size=50).tolist())
        a, b = Battery(config, 1.0), Battery(config, 1.0)
        for distance in np.linspace(0.0, 9000.0, 50):
            assert b.ride(distance, normal=normals.__next__) == a.ride(distance, rng=scalar)
        # A noiseless battery reads no draw at all.
        assert len(list(normals)) == (50 if sigma == 0.0 else 0)

    def test_ride_from_rng_drains_by_scalar_lognormal(self):
        config = BatteryConfig(consumption_noise=0.25)
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        battery, level = Battery(config, 1.0), 1.0
        for distance in np.linspace(0.0, 9000.0, 50):
            noise = float(ref.lognormal(mean=0.0, sigma=0.25))
            used_wh = (distance / 1000.0) * config.wh_per_km * noise
            level = max(0.0, level - used_wh / config.capacity_wh)
            assert battery.ride(distance, rng=ours) == level
        assert ours.bit_generator.state == ref.bit_generator.state
