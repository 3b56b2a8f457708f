"""Shared builders for the resilience suite.

Everything is seeded and deterministic: the same (seed, n) always yields
the same trip stream and the same service, which is what lets the parity
tests demand bit-identical recovery rather than approximate agreement.
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
from repro.geo import Point

COST_VALUE = 8000.0


def make_trips(n, seed=0, shift_at=None, shift=(6000.0, 6000.0)):
    """A deterministic trip stream; destinations jump by ``shift`` from
    index ``shift_at`` on (to force a KS regime change mid-stream)."""
    rng = np.random.default_rng(seed)
    t0 = datetime(2017, 5, 10)
    records = []
    for i in range(n):
        sx, sy = rng.uniform(0.0, 2000.0, 2)
        ex, ey = rng.uniform(0.0, 2000.0, 2)
        if shift_at is not None and i >= shift_at:
            ex += shift[0]
            ey += shift[1]
        records.append(
            TripRecord(
                order_id=i, user_id=i % 40, bike_id=i % 60, bike_type=1,
                start_time=t0 + timedelta(seconds=30 * i),
                start=Point(sx, sy), end=Point(ex, ey),
            )
        )
    return records


def build_service(seed=0, n_bikes=80, beta=1.0):
    """A fresh PlacementService over a 3x3 anchor grid (9 stations)."""
    rng = np.random.default_rng(seed + 100)
    anchors = [
        Point(float(x), float(y)) for x in (0, 1000, 2000) for y in (0, 1000, 2000)
    ]
    historical = rng.uniform(0.0, 2000.0, size=(300, 2))
    planner = EsharingPlanner(
        anchors,
        constant_facility_cost(COST_VALUE),
        historical,
        np.random.default_rng(seed + 1),
        EsharingConfig(beta=beta),
    )
    fleet = Fleet(
        planner.stations, n_bikes=n_bikes, rng=np.random.default_rng(seed + 2)
    )
    return PlacementService(planner, fleet)


@pytest.fixture
def trips():
    return make_trips(60, seed=7)


@pytest.fixture
def service():
    return build_service(seed=7)
