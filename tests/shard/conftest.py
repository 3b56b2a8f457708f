"""Shared builders for the shard suite: the gauntlet's demo city, many
territories."""

import pytest

from repro.gauntlet import BOUNDS, PLANE, fleet, trips
from repro.shard import ShardPlan

make_city = fleet
make_trips = trips


def make_plan(n_shards, precision=None):
    return ShardPlan.from_bounds(BOUNDS, n_shards, precision=precision)


@pytest.fixture
def plan3():
    return make_plan(3)
