"""Online k-means baseline (Liberty, Sriharsha and Sviridenko [26]).

Originally proposed for clustering online advertisement, used by the
paper as the second online baseline (Table V).  The algorithm follows a
Meyerson-style doubling scheme on *squared* distances:

* the first ``k + 1`` requests become centres and fix the initial
  facility cost ``f = w* / k`` where ``w*`` is half the smallest pairwise
  squared distance among them;
* each later request opens a new centre with probability
  ``min(d^2 / f, 1)``;
* whenever a phase opens more than ``gamma = O(k log n)`` centres, ``f``
  doubles and a new phase begins.

Because it clusters by squared distance and keeps every centre it opens,
it over-opens aggressively — the behaviour Table V reports as the worst
total cost of the four algorithms.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..geo.points import Point
from .costs import DemandPoint, FacilityCostFn
from .replay import NearestCache, DrawStream
from .result import PlacementResult
from .station_set import StationSet

__all__ = ["online_kmeans_placement"]


def online_kmeans_placement(
    stream: Sequence[Point],
    k: int,
    facility_cost: FacilityCostFn,
    rng: np.random.Generator,
    gamma: Optional[float] = None,
) -> PlacementResult:
    """Run online k-means clustering over a destination stream.

    After the warm-up, each request's nearest centre comes from a
    :class:`~repro.core.replay.NearestCache` and the coin flips are
    fetched in blocks; the decision distance is the scalar
    ``Point.distance_to``, so the run is bit-identical to a per-request
    ``StationSet.nearest`` scan with one ``rng.uniform()`` per request.

    Args:
        stream: request destinations in arrival order.
        k: target number of clusters (the paper anchors it to the offline
            station count).
        facility_cost: used only to charge space cost for each opened
            centre, so results are comparable with the other algorithms.
        rng: randomness for the opening coin flips, drawn ahead in
            blocks (so it must not also feed ``facility_cost``).  After
            a return or a raise it stands where one ``rng.uniform()``
            per processed request leaves it.
        gamma: per-phase opening budget before ``f`` doubles; defaults to
            ``3 * k * (1 + log2(n))`` as in [26].

    Raises:
        ValueError: if ``k`` is not positive.
    """
    stream = list(stream)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = len(stream)
    stations = StationSet()
    assignment: List[int] = []
    online_opened: List[int] = []
    walking = 0.0
    space = 0.0
    if n == 0:
        return PlacementResult([], [], 0.0, 0.0)

    warmup = min(k + 1, n)
    for t in range(warmup):
        # Centres are never closed, so stable ids are dense positions.
        online_opened.append(stations.add(stream[t]))
        space += facility_cost(stream[t])
        assignment.append(online_opened[-1])
    if n <= k + 1:
        return PlacementResult(
            stations.locations(), assignment, walking, space,
            demands=[DemandPoint(p) for p in stream], online_opened=online_opened,
        )

    # The StationSet tracks the minimum centre spacing incrementally as
    # the warm-up loads, replacing the pairwise-matrix rebuild.
    w_star = float(stations.min_spacing() ** 2) / 2.0
    if w_star <= 0 or not math.isfinite(w_star):  # coincident warm-up points
        w_star = 1.0
    f = w_star / k
    budget = gamma if gamma is not None else 3.0 * k * (1.0 + math.log2(max(n, 2)))
    opened_this_phase = 0

    rest = stream[warmup:]
    cache = NearestCache(rest, stations.ids(), stations.locations())
    uniforms = DrawStream(rng, len(rest))
    try:
        for t, dest in enumerate(rest):
            idx = int(cache.best_id[t])
            dist = dest.distance_to(stations.location(idx))
            prob = min(dist**2 / f, 1.0)
            if uniforms.next() < prob:
                online_opened.append(stations.add(dest))
                space += facility_cost(dest)
                assignment.append(online_opened[-1])
                cache.open(t, dest, online_opened[-1])
                opened_this_phase += 1
                if opened_this_phase >= budget:
                    f *= 2.0
                    opened_this_phase = 0
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
