"""The per-row referral kernel: one boundary test per served trip.

This is the scalar form ``ShardedRuntime`` used before its referral
pass became one vectorized boundary call per shard-epoch; the referral
tests hold the vectorized form to it.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.streaming import ServiceResponse
from repro.shard import CrossShardReferral


def compute_referrals_per_row(
    spec, plan, trips, outcomes: Sequence, halo: Sequence[Tuple[int, int, float, float]]
) -> List[CrossShardReferral]:
    if not halo:
        return []
    ends: Dict[int, Tuple[float, float]] = {}
    for t in trips:
        try:
            ends[t.order_id] = (float(t.end.x), float(t.end.y))
        except (AttributeError, TypeError, ValueError):
            continue
    halo_shards = np.array([h[0] for h in halo], dtype=np.int64)
    halo_ids = np.array([h[1] for h in halo], dtype=np.int64)
    halo_x = np.array([h[2] for h in halo], dtype=float)
    halo_y = np.array([h[3] for h in halo], dtype=float)
    referrals: List[CrossShardReferral] = []
    for outcome in outcomes:
        if not isinstance(outcome, ServiceResponse) or not outcome.served:
            continue
        end = ends.get(outcome.order_id)
        if end is None:
            continue
        if not bool(plan.boundary_of_many([end[0]], [end[1]])[0]):
            continue
        dists = np.hypot(halo_x - end[0], halo_y - end[1])
        best = int(np.argmin(dists))
        if float(dists[best]) < outcome.walking_m:
            referrals.append(
                CrossShardReferral(
                    order_id=outcome.order_id,
                    home_shard=spec.shard_id,
                    station_shard=int(halo_shards[best]),
                    station_id=int(halo_ids[best]),
                    walking_m=float(dists[best]),
                    saved_m=float(outcome.walking_m - dists[best]),
                )
            )
    return referrals
