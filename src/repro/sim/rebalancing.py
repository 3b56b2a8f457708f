"""Static bike rebalancing between service periods.

Section II-B assumes "the reserves of E-bikes are balanced, which satisfy
the demand and do not overwhelm the capacity by executing the procedures
in [9]-[11]".  This module implements the simplest such procedure: a
truck moves bikes from surplus stations to deficit stations overnight.
Surplus/deficit is measured against a target distribution (uniform or
demand-proportional); the moves are planned with a greedy
nearest-pair transportation heuristic and the truck's route length is
estimated with a TSP tour over the stations it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..energy.fleet import Fleet
from ..geo.points import Point
from ..routing.tsp import solve_tsp

__all__ = ["RebalanceMove", "RebalanceReport", "target_distribution", "rebalance_fleet"]


@dataclass(frozen=True)
class RebalanceMove:
    """One truck transfer: ``count`` bikes from ``source`` to ``sink``."""

    source: int
    sink: int
    count: int


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one rebalancing pass.

    Attributes:
        moves: transfers executed, in planning order.
        bikes_moved: total bikes relocated.
        truck_distance_km: TSP-tour estimate over the touched stations.
        imbalance_before: sum of absolute deviations from the target.
        imbalance_after: the same measure after the pass.
    """

    moves: List[RebalanceMove]
    bikes_moved: int
    truck_distance_km: float
    imbalance_before: float
    imbalance_after: float

    @property
    def imbalance_reduction(self) -> float:
        """Fraction of the initial imbalance removed."""
        if self.imbalance_before == 0:
            return 0.0
        return 1.0 - self.imbalance_after / self.imbalance_before


def target_distribution(
    n_stations: int,
    n_bikes: int,
    demand_weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Integer per-station bike targets summing to the fleet size.

    Uniform by default; with ``demand_weights`` (e.g. expected pickups
    per station) the targets are proportional, rounded by largest
    remainder so the total is exact.

    Raises:
        ValueError: on non-positive sizes or mismatched weights.
    """
    if n_stations <= 0:
        raise ValueError(f"n_stations must be positive, got {n_stations}")
    if n_bikes < 0:
        raise ValueError(f"n_bikes cannot be negative, got {n_bikes}")
    if demand_weights is None:
        weights = np.ones(n_stations)
    else:
        weights = np.asarray(demand_weights, dtype=float)
        if weights.size != n_stations:
            raise ValueError(
                f"{weights.size} weights for {n_stations} stations"
            )
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
    shares = weights / weights.sum() * n_bikes
    base = np.floor(shares).astype(int)
    remainder = n_bikes - int(base.sum())
    order = np.argsort(-(shares - base))
    base[order[:remainder]] += 1
    return base


def rebalance_fleet(
    fleet: Fleet,
    targets: Optional[Sequence[int]] = None,
    max_moves: Optional[int] = None,
) -> RebalanceReport:
    """Move bikes toward the target distribution (mutates the fleet).

    Greedy nearest-pair matching: repeatedly ship bikes from the surplus
    station to its nearest deficit station until every station meets its
    target (or the move budget runs out).  Bikes with the highest charge
    move first — the truck should not strand low-energy bikes at fresh
    stations where riders expect working inventory.

    Args:
        fleet: the fleet to rebalance.
        targets: per-station bike targets (default: uniform).
        max_moves: optional cap on individual transfers.

    Raises:
        ValueError: on mismatched targets or targets not summing to the
            fleet size.
    """
    n_stations = len(fleet.stations)
    if targets is None:
        tgt = target_distribution(n_stations, len(fleet))
    else:
        tgt = np.asarray(targets, dtype=int)
        if tgt.size != n_stations:
            raise ValueError(f"{tgt.size} targets for {n_stations} stations")
        if int(tgt.sum()) != len(fleet):
            raise ValueError(
                f"targets sum to {int(tgt.sum())} but the fleet has {len(fleet)} bikes"
            )

    counts = np.zeros(n_stations, dtype=int)
    for b in fleet.bikes:
        counts[b.station] += 1
    imbalance_before = float(np.abs(counts - tgt).sum())

    moves: List[RebalanceMove] = []
    touched = set()
    bikes_moved = 0
    budget = max_moves if max_moves is not None else 10**9
    while bikes_moved < budget:
        surplus = np.flatnonzero(counts > tgt)
        deficit = np.flatnonzero(counts < tgt)
        if surplus.size == 0 or deficit.size == 0:
            break
        # Nearest surplus/deficit pair.
        best = None
        for s in surplus:
            for d in deficit:
                dist = fleet.stations[s].distance_to(fleet.stations[d])
                if best is None or dist < best[0]:
                    best = (dist, int(s), int(d))
        _, s, d = best
        count = int(min(counts[s] - tgt[s], tgt[d] - counts[d], budget - bikes_moved))
        # Ship the highest-charge bikes.
        movers = sorted(fleet.bikes_at(s), key=lambda b: -b.battery.level)[:count]
        for b in movers:
            fleet.move(b.bike_id, d)
        counts[s] -= count
        counts[d] += count
        bikes_moved += count
        touched.update((s, d))
        moves.append(RebalanceMove(source=s, sink=d, count=count))

    imbalance_after = float(np.abs(counts - tgt).sum())
    truck_km = 0.0
    if len(touched) >= 2:
        tour = solve_tsp([fleet.stations[i] for i in sorted(touched)])
        truck_km = tour.length / 1000.0
    return RebalanceReport(
        moves=moves,
        bikes_moved=bikes_moved,
        truck_distance_km=truck_km,
        imbalance_before=imbalance_before,
        imbalance_after=imbalance_after,
    )
