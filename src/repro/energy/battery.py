"""E-bike battery model.

The paper builds "an energy model based on the data crawled from XQbike
App" to trace residual energy per bike (Section V).  Without that crawl we
model the battery from first principles: a fixed capacity drained by ride
distance (with rider/terrain noise) plus a small idle self-discharge.
Fig. 2(d) shows the resulting steady-state shape to match: most bikes hold
high charge with a tail of low-energy bikes below the service threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = ["BatteryConfig", "Battery", "LOW_ENERGY_THRESHOLD"]

LOW_ENERGY_THRESHOLD = 0.20
"""Default service threshold: operators refill bikes below 20% (Section II-B)."""


@dataclass(frozen=True)
class BatteryConfig:
    """Physical parameters of an E-bike battery.

    Attributes:
        capacity_wh: usable capacity in watt-hours.
        wh_per_km: mean consumption per kilometre of assisted riding.
        consumption_noise: multiplicative lognormal sigma on per-ride
            consumption (rider weight, assist level, terrain).
        idle_drain_per_day: fraction of capacity lost per idle day.
    """

    capacity_wh: float = 360.0
    wh_per_km: float = 9.0
    consumption_noise: float = 0.25
    idle_drain_per_day: float = 0.005

    def __post_init__(self) -> None:
        if self.capacity_wh <= 0:
            raise ValueError(f"capacity_wh must be positive, got {self.capacity_wh}")
        if self.wh_per_km <= 0:
            raise ValueError(f"wh_per_km must be positive, got {self.wh_per_km}")
        if self.consumption_noise < 0:
            raise ValueError("consumption_noise must be non-negative")
        if not 0.0 <= self.idle_drain_per_day < 1.0:
            raise ValueError("idle_drain_per_day must be in [0, 1)")

    @property
    def range_km(self) -> float:
        """Nominal full-charge range in kilometres."""
        return self.capacity_wh / self.wh_per_km


@dataclass
class Battery:
    """Mutable battery state of one bike.

    ``level`` is the state of charge in [0, 1].
    """

    config: BatteryConfig = field(default_factory=BatteryConfig)
    level: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {self.level}")

    @property
    def is_low(self) -> bool:
        """Whether the bike needs charging under the default policy."""
        return self.level < LOW_ENERGY_THRESHOLD

    def remaining_range_km(self) -> float:
        """Kilometres ridable on the current charge (mean consumption)."""
        return self.level * self.config.range_km

    def can_ride(self, distance_m: float, margin: float = 1.2) -> bool:
        """Whether a trip of ``distance_m`` fits in the residual charge.

        ``margin`` inflates the nominal consumption so the incentive
        mechanism's "mileage must not deplete the battery" check
        (Section IV-C) holds even for heavy riders.
        """
        needed = (distance_m / 1000.0) * self.config.wh_per_km * margin
        return needed <= self.level * self.config.capacity_wh

    def ride(
        self,
        distance_m: float,
        rng: Optional[np.random.Generator] = None,
        normal: Optional[Callable[[], float]] = None,
    ) -> float:
        """Drain the battery for a ride of ``distance_m`` metres.

        Consumption is the mean per-km rate times a lognormal noise
        factor with sigma ``consumption_noise`` (no factor when it is 0).
        The factor is ``exp(0.0 + sigma * z)`` for one standard-normal
        draw ``z`` taken from ``normal``, or else from
        ``rng.standard_normal``: bit for bit what
        ``rng.lognormal(mean=0.0, sigma=sigma)`` returns, so a caller
        that fetches a block's draws at once stays on the scalar
        trajectory.  With neither, no noise.

        Returns:
            The new charge level.

        Raises:
            ValueError: if ``distance_m`` is negative (nothing is drawn).
        """
        if distance_m < 0:
            raise ValueError(f"distance_m must be non-negative, got {distance_m}")
        noise = 1.0
        sigma = self.config.consumption_noise
        if normal is None and rng is not None:
            normal = rng.standard_normal
        if sigma > 0 and normal is not None:
            noise = math.exp(0.0 + sigma * normal())
        used_wh = (distance_m / 1000.0) * self.config.wh_per_km * noise
        self.level = max(0.0, self.level - used_wh / self.config.capacity_wh)
        return self.level

    def idle(self, days: float) -> float:
        """Apply self-discharge for ``days`` idle days."""
        if days < 0:
            raise ValueError(f"days must be non-negative, got {days}")
        self.level = max(0.0, self.level - self.config.idle_drain_per_day * days)
        return self.level

    def recharge(self) -> None:
        """Full recharge / battery swap (the operator's service action)."""
        self.level = 1.0
