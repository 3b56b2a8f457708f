"""The per-point halo predicate: a 9-neighbour scan of the shard table.

This is the form ``ShardPlan.touches_shard`` took before it became a
lookup in the plan's touch table, and the halo ``ShardedRuntime`` built
from it by locating every station of every roster on each call; the
touch-table tests hold the table and the cached-cell halo to it.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np


def touches_shard_scan(plan, xs, ys, shard: int) -> np.ndarray:
    rows, cols = plan.cell_index_of_many(xs, ys)
    table = plan.cell_shards
    own = table[rows, cols] == shard
    near = np.zeros(rows.shape, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r = np.clip(rows + dr, 0, plan.shape[0] - 1)
            c = np.clip(cols + dc, 0, plan.shape[1] - 1)
            near |= table[r, c] == shard
    return near & ~own


def halo_scan(
    plan,
    stations: Dict[int, Sequence[Tuple[int, float, float]]],
    shard_id: int,
) -> Tuple[Tuple[int, int, float, float], ...]:
    rows: List[Tuple[int, int, float, float]] = []
    for sid, roster in sorted(stations.items()):
        if sid == shard_id or not roster:
            continue
        xs = np.array([s[1] for s in roster])
        ys = np.array([s[2] for s in roster])
        near = touches_shard_scan(plan, xs, ys, shard_id)
        for keep, (station_id, x, y) in zip(near.tolist(), roster):
            if keep:
                rows.append((sid, station_id, x, y))
    return tuple(rows)
