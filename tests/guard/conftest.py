"""Shared builders for the guarded-runtime suite.

Deterministic by construction — the same (seed, n) always yields the
same stream and service — so the parity tests can demand bit-identical
outcomes, not approximate agreement.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core import (
    EsharingConfig,
    EsharingPlanner,
    PlacementService,
    constant_facility_cost,
)
from repro.datasets import TripRecord
from repro.energy import Fleet
from repro.geo import BoundingBox, Point
from repro.guard import GuardConfig, ValidationConfig

COST_VALUE = 8000.0
PLANE = 2000.0
T0 = datetime(2017, 5, 10)


def make_trip(
    i,
    start=(100.0, 100.0),
    end=(900.0, 900.0),
    at_s=0.0,
    battery=None,
    bike_id=None,
    order_id=None,
):
    """One hand-positioned trip (validator/buffer unit tests)."""
    return TripRecord(
        order_id=i if order_id is None else order_id,
        user_id=i % 7,
        bike_id=i % 5 if bike_id is None else bike_id,
        bike_type=1,
        start_time=T0 + timedelta(seconds=at_s),
        start=Point(*start),
        end=Point(*end),
        battery=battery,
    )


def make_trips(n, seed=0, spacing_s=30.0):
    """A deterministic in-order stream on the 2 km demo plane."""
    rng = np.random.default_rng(seed)
    return [
        TripRecord(
            order_id=i, user_id=i % 40, bike_id=i % 60, bike_type=1,
            start_time=T0 + timedelta(seconds=spacing_s * i),
            start=Point(*rng.uniform(0.0, PLANE, 2)),
            end=Point(*rng.uniform(0.0, PLANE, 2)),
            battery=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(n)
    ]


def build_service(seed=0, n_bikes=60, beta=1.0):
    """A fresh PlacementService over a 3x3 anchor grid (9 stations)."""
    rng = np.random.default_rng(seed + 100)
    anchors = [
        Point(float(x), float(y)) for x in (0, 1000, 2000) for y in (0, 1000, 2000)
    ]
    historical = rng.uniform(0.0, PLANE, size=(200, 2))
    planner = EsharingPlanner(
        anchors,
        constant_facility_cost(COST_VALUE),
        historical,
        np.random.default_rng(seed + 1),
        EsharingConfig(beta=beta, history_window=200),
    )
    fleet = Fleet(
        planner.stations, n_bikes=n_bikes, rng=np.random.default_rng(seed + 2)
    )
    return PlacementService(planner, fleet)


def guard_config(**overrides):
    """A GuardConfig whose bounds cover the demo plane (with margin)."""
    defaults = dict(
        validation=ValidationConfig(
            bounds=BoundingBox(-100.0, -100.0, PLANE + 100.0, PLANE + 100.0),
            max_backwards_s=3600.0,
        ),
        lateness_s=600.0,
    )
    defaults.update(overrides)
    return GuardConfig(**defaults)


@pytest.fixture
def trips():
    return make_trips(60, seed=7)


@pytest.fixture
def service():
    return build_service(seed=7)
