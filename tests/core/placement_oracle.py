"""Per-arrival reference loops for the two online baselines.

``meyerson_placement`` and ``online_kmeans_placement`` answer each
arrival's nearest-station query from a ``NearestCache`` and fetch their
coin flips in blocks.  These are the plain loops they must reproduce bit
for bit: one ``StationSet.nearest`` scan and one scalar ``rng.uniform()``
per arrival.  ``backend`` picks the ``StationSet`` nearest-neighbour
backend the scan runs on.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core import DemandPoint, PlacementResult, StationSet
from repro.core.costs import FacilityCostFn
from repro.core.penalty import PenaltyFunction
from repro.geo import Point


def meyerson_per_call(
    stream: Sequence[Point],
    facility_cost: FacilityCostFn,
    rng: np.random.Generator,
    initial_stations: Optional[Sequence[Point]] = None,
    penalty: Optional[PenaltyFunction] = None,
    backend: str = "linear",
) -> PlacementResult:
    """Meyerson's algorithm with a nearest scan per arrival."""
    stream = list(stream)
    stations = StationSet(initial_stations, backend=backend)
    space = sum(facility_cost(s) for s in stations.locations())
    online_opened: List[int] = []
    assignment: List[int] = []
    walking = 0.0
    for dest in stream:
        if len(stations):
            idx, dist = stations.nearest(dest)
        else:
            idx, dist = -1, float("inf")
        f = facility_cost(dest)
        g = 1.0
        if penalty is not None and np.isfinite(dist):
            g = penalty.value(dist)
        prob = 1.0 if f <= 0 else min(g * dist / f, 1.0)
        if rng.uniform() < prob:
            online_opened.append(stations.add(dest))
            space += f
            assignment.append(online_opened[-1])
        else:
            assignment.append(idx)
            walking += dist
    return PlacementResult(
        stations=stations.locations(),
        assignment=assignment,
        walking=walking,
        space=space,
        demands=[DemandPoint(p) for p in stream],
        online_opened=online_opened,
    )


def online_kmeans_per_call(
    stream: Sequence[Point],
    k: int,
    facility_cost: FacilityCostFn,
    rng: np.random.Generator,
    gamma: Optional[float] = None,
    backend: str = "linear",
) -> PlacementResult:
    """Online k-means with a nearest scan per arrival."""
    stream = list(stream)
    n = len(stream)
    stations = StationSet(backend=backend)
    assignment: List[int] = []
    online_opened: List[int] = []
    walking = 0.0
    space = 0.0
    if n == 0:
        return PlacementResult([], [], 0.0, 0.0)
    warmup = min(k + 1, n)
    for t in range(warmup):
        online_opened.append(stations.add(stream[t]))
        space += facility_cost(stream[t])
        assignment.append(online_opened[-1])
    if n <= k + 1:
        return PlacementResult(
            stations.locations(), assignment, walking, space,
            demands=[DemandPoint(p) for p in stream], online_opened=online_opened,
        )
    w_star = float(stations.min_spacing() ** 2) / 2.0
    if w_star <= 0 or not math.isfinite(w_star):
        w_star = 1.0
    f = w_star / k
    budget = gamma if gamma is not None else 3.0 * k * (1.0 + math.log2(max(n, 2)))
    opened_this_phase = 0
    for dest in stream[warmup:]:
        idx, dist = stations.nearest(dest)
        prob = min(dist**2 / f, 1.0)
        if rng.uniform() < prob:
            online_opened.append(stations.add(dest))
            space += facility_cost(dest)
            assignment.append(online_opened[-1])
            opened_this_phase += 1
            if opened_this_phase >= budget:
                f *= 2.0
                opened_this_phase = 0
        else:
            assignment.append(idx)
            walking += dist
    return PlacementResult(
        stations=stations.locations(),
        assignment=assignment,
        walking=walking,
        space=space,
        demands=[DemandPoint(p) for p in stream],
        online_opened=online_opened,
    )
