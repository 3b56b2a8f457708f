"""Vectorized trip routing: split one stream into per-shard sub-streams.

The router keys every trip on its **destination** — placement and
parking decisions concern where the ride ends, so the shard that owns
the end cell owns the trip.  Within each shard the original arrival
order is preserved exactly (each bucket is appended to in arrival
order), which is what makes per-shard runs replayable against a standalone
single-shard oracle: the shard sees the same trips in the same order
whether it was split out of a city stream or fed directly.

:meth:`ShardRouter.split_trips` gathers shard ids for chunks of a
record list in one vectorized pass of the routing kernel
(:meth:`~repro.shard.plan.ShardPlan.shard_of_many`, which clamps NaN
and out-of-range coordinates to edge cells); :meth:`ShardRouter.route`
runs the same kernel on one trip.  A chunk with a row whose destination
is not a point or cannot even be coerced to floats falls back to
per-trip routing — chaos garbage routes deterministically to shard 0
and is rejected by that shard's validator.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..datasets.trips import TripRecord
from .plan import ShardPlan

__all__ = ["ShardRouter"]

_CHUNK = 4096
"""Records per vectorized routing pass on the list path."""


class ShardRouter:
    """Split trip streams into per-shard sub-streams, order preserved."""

    def __init__(self, plan: ShardPlan) -> None:
        self.plan = plan

    # ------------------------------------------------------------------
    def route(self, trip: TripRecord) -> int:
        """Shard id of one trip (same kernel as :meth:`split_trips`)."""
        try:
            xs = np.array([float(trip.end.x)])
            ys = np.array([float(trip.end.y)])
        except (AttributeError, TypeError, ValueError):
            return 0
        return int(self.plan.shard_of_many(xs, ys)[0])

    def split_trips(self, trips: Sequence[TripRecord]) -> List[List[TripRecord]]:
        """Per-shard record lists (length ``n_shards``; empty allowed).

        Chunks the list through the vectorized kernel; a chunk with
        un-coercible coordinates falls back to per-trip routing so one
        garbage row cannot change any other row's shard.
        """
        buckets: List[List[TripRecord]] = [[] for _ in range(self.plan.n_shards)]
        trips = list(trips)
        for lo in range(0, len(trips), _CHUNK):
            chunk = trips[lo : lo + _CHUNK]
            try:
                xs = np.array([t.end.x for t in chunk], dtype=float)
                ys = np.array([t.end.y for t in chunk], dtype=float)
            except (AttributeError, TypeError, ValueError):
                for t in chunk:
                    buckets[self.route(t)].append(t)
                continue
            for sid, t in zip(self.plan.shard_of_many(xs, ys).tolist(), chunk):
                buckets[sid].append(t)
        return buckets
