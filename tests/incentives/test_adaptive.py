"""Tests for repro.incentives.adaptive (the Section IV-C Remarks loop)."""

import numpy as np
import pytest

from repro.energy import Fleet
from repro.geo import Point
from repro.incentives import (
    AdaptiveAlphaController,
    ChargingCostParams,
    IncentiveConfig,
    IncentiveMechanism,
    UserPopulation,
)


class TestControllerValidation:
    def test_bad_target(self):
        with pytest.raises(ValueError):
            AdaptiveAlphaController(target_acceptance=0.0)
        with pytest.raises(ValueError):
            AdaptiveAlphaController(target_acceptance=1.0)

    def test_bad_band(self):
        with pytest.raises(ValueError):
            AdaptiveAlphaController(alpha=0.5, alpha_min=0.6)
        with pytest.raises(ValueError):
            AdaptiveAlphaController(alpha=0.9, alpha_max=0.8)

    def test_bad_window_and_step(self):
        with pytest.raises(ValueError):
            AdaptiveAlphaController(window=0)
        with pytest.raises(ValueError):
            AdaptiveAlphaController(step=1.0)


class TestControllerDynamics:
    def test_raises_alpha_when_no_one_accepts(self):
        ctrl = AdaptiveAlphaController(alpha=0.2, window=10, target_acceptance=0.5)
        for _ in range(10):
            ctrl.observe(False)
        assert ctrl.alpha > 0.2
        assert ctrl.adjustments == 1

    def test_lowers_alpha_when_everyone_accepts(self):
        ctrl = AdaptiveAlphaController(alpha=0.8, window=10, target_acceptance=0.5)
        for _ in range(10):
            ctrl.observe(True)
        assert ctrl.alpha < 0.8

    def test_clamped_to_band(self):
        ctrl = AdaptiveAlphaController(
            alpha=0.9, alpha_max=0.95, window=5, step=2.0
        )
        for _ in range(50):
            ctrl.observe(False)
        assert ctrl.alpha == pytest.approx(0.95)
        ctrl2 = AdaptiveAlphaController(alpha=0.1, alpha_min=0.05, window=5, step=2.0)
        for _ in range(50):
            ctrl2.observe(True)
        assert ctrl2.alpha == pytest.approx(0.05)

    def test_no_adjustment_mid_window(self):
        ctrl = AdaptiveAlphaController(alpha=0.4, window=10)
        for _ in range(9):
            ctrl.observe(False)
        assert ctrl.alpha == 0.4
        assert ctrl.adjustments == 0

    def test_converges_near_target(self):
        """Against a fixed acceptance curve, alpha settles where the
        acceptance probability crosses the target."""
        rng = np.random.default_rng(0)
        ctrl = AdaptiveAlphaController(
            alpha=0.1, window=50, target_acceptance=0.5, step=1.15
        )
        # Acceptance probability grows linearly with alpha: p = alpha.
        for _ in range(4000):
            accepted = bool(rng.uniform() < ctrl.alpha)
            ctrl.observe(accepted)
        assert 0.3 <= ctrl.alpha <= 0.75


class TestMechanismIntegration:
    @pytest.fixture
    def fleet(self):
        stations = [Point(500.0 * i, 500.0 * (i % 3)) for i in range(9)]
        f = Fleet(stations, n_bikes=90, rng=np.random.default_rng(0))
        for b in f.bikes:
            f.set_level(b.bike_id, 0.9)
        for b in f.bikes[:20]:
            f.set_level(b.bike_id, 0.1)
        return f

    def test_controller_overrides_config_alpha(self, fleet):
        ctrl = AdaptiveAlphaController(alpha=0.77)
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(),
            config=IncentiveConfig(alpha=0.1),
            alpha_controller=ctrl,
        )
        assert mech.alpha == 0.77

    def test_offers_feed_controller(self, fleet):
        ctrl = AdaptiveAlphaController(alpha=0.3, window=5)
        mech = IncentiveMechanism(
            fleet, ChargingCostParams(),
            config=IncentiveConfig(alpha=0.3),
            population=UserPopulation(walk_mean=1.0, walk_std=0.0,
                                      reward_mean=1e9, reward_std=0.0),
            rng=np.random.default_rng(1),
            alpha_controller=ctrl,
        )
        rng = np.random.default_rng(2)
        made = 0
        while made < 5:
            origin = int(rng.integers(9))
            dest = int(rng.integers(9))
            if origin == dest:
                continue
            out = mech.offer_ride(origin, dest, fleet.stations[dest])
            if out.offered:
                made += 1
        # Five straight declines complete a window and raise alpha.
        assert ctrl.alpha > 0.3
