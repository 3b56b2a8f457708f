"""Columnar trip routing: split one stream into per-shard sub-streams.

The router keys every trip on its **destination** — placement and
parking decisions concern where the ride ends, so the shard that owns
the end cell owns the trip.  Within each shard the original arrival
order is preserved exactly (`numpy.flatnonzero` over a stable mask),
which is what makes per-shard runs replayable against a standalone
single-shard oracle: the shard sees the same trips in the same order
whether it was split out of a city stream or fed directly.

Both entry points run the identical routing kernel
(:meth:`~repro.shard.plan.ShardPlan.shard_of_many`): the columnar
:meth:`ShardRouter.split_block` gathers shard ids for a whole
:class:`~repro.core.tripblock.TripBlock` in one vectorized pass, while
:meth:`ShardRouter.split_trips` chunks record lists through the same
arithmetic (with a scalar per-trip fallback for rows whose destination
is not a point or cannot even be coerced to floats — chaos garbage
routes deterministically to shard 0 and is rejected by that shard's
validator).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.tripblock import TripBlock
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
        """Shard id of one trip (same kernel as the columnar path)."""
        try:
            xs = np.array([float(trip.end.x)])
            ys = np.array([float(trip.end.y)])
        except (AttributeError, TypeError, ValueError):
            return 0
        return int(self.plan.shard_of_many(xs, ys)[0])

    def split_block(self, block: TripBlock) -> List[Tuple[int, TripBlock]]:
        """Per-shard sub-blocks of a columnar block.

        Returns ``(shard_id, sub_block)`` pairs in ascending shard id,
        only for shards that received trips.  Concatenating the
        sub-blocks in the order of the original row indices reproduces
        the input bit for bit — `take` copies, never reorders within a
        shard.
        """
        sids = self.plan.shard_of_many(block.end_x, block.end_y)
        out: List[Tuple[int, TripBlock]] = []
        for sid in np.unique(sids).tolist():
            out.append((int(sid), block.take(np.flatnonzero(sids == sid))))
        return out

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
