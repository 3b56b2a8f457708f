"""Meyerson's randomized online facility location [25].

The classical online baseline: requests arrive one at a time and
decisions are irrevocable.  On arrival at distance ``d`` from the nearest
open parking, a new parking opens at the request's location with
probability ``min(d / f, 1)``; otherwise the request walks.  The first
request always opens a parking (``d`` is infinite).

The paper observes two failure modes (Section III-C) that E-Sharing
fixes: the algorithm over-opens under bursty demand and commits to poor
early locations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..geo.points import Point
from .costs import DemandPoint, FacilityCostFn
from .penalty import PenaltyFunction
from .replay import NearestCache, DrawStream
from .result import PlacementResult
from .station_set import StationSet

__all__ = ["meyerson_placement"]


def meyerson_placement(
    stream: Sequence[Point],
    facility_cost: FacilityCostFn,
    rng: np.random.Generator,
    initial_stations: Optional[Sequence[Point]] = None,
    penalty: Optional[PenaltyFunction] = None,
) -> PlacementResult:
    """Run Meyerson's online algorithm over a destination stream.

    The nearest open parking of each request comes from a
    :class:`~repro.core.replay.NearestCache` and the coin flips are
    fetched in blocks; the decision distance is the scalar
    ``Point.distance_to``, so the run is bit-identical to a per-request
    ``StationSet.nearest`` scan with one ``rng.uniform()`` per request.

    Args:
        stream: request destinations in arrival order (weight 1 each).
        facility_cost: opening cost ``f_i`` at each location.
        rng: randomness for the opening coin flips, drawn ahead in
            blocks (so it must not also feed ``facility_cost``).  After
            a return or a raise it stands where one ``rng.uniform()``
            per processed request leaves it.
        initial_stations: optional pre-existing parking (their space cost
            is charged up front).
        penalty: optional deviation penalty ``g``; when given, the opening
            probability becomes ``min(g(d) * d / f, 1)`` — the setting of
            the paper's Section V-B sector experiment (Table III), where
            ``no penalty`` is plain Meyerson.

    Returns:
        :class:`PlacementResult`; ``assignment[t]`` is the irrevocable
        decision for the ``t``-th request.
    """
    stream = list(stream)
    stations = StationSet(initial_stations)
    space = sum(facility_cost(s) for s in stations.locations())
    online_opened: List[int] = []
    assignment: List[int] = []
    walking = 0.0
    cache = NearestCache(stream, stations.ids(), stations.locations())
    uniforms = DrawStream(rng, len(stream))
    try:
        for t, dest in enumerate(stream):
            idx = int(cache.best_id[t])
            dist = dest.distance_to(stations.location(idx)) if idx >= 0 else float("inf")
            f = facility_cost(dest)
            g = 1.0
            if penalty is not None and np.isfinite(dist):
                g = penalty.value(dist)
            prob = 1.0 if f <= 0 else min(g * dist / f, 1.0)
            if uniforms.next() < prob:
                # No removals happen here, so the stable id doubles as the
                # position in the final dense station list.
                online_opened.append(stations.add(dest))
                space += f
                assignment.append(online_opened[-1])
                cache.open(t, dest, online_opened[-1])
            else:
                assignment.append(idx)
                walking += dist
    finally:
        uniforms.settle()
    return PlacementResult(
        stations=stations.locations(),
        assignment=assignment,
        walking=walking,
        space=space,
        demands=[DemandPoint(p) for p in stream],
        online_opened=online_opened,
    )
