"""Self-contained sweep cells for deterministic fan-out.

A *cell* is one grid point of an evaluation sweep — one
(seed × size × scenario) combination — packaged as a module-level
function a :class:`~repro.parallel.pool.ParallelRunner` worker can
import and run.  Every cell derives all of its randomness from the seed
material in its arguments, so its output is a pure function of the task
spec: the prerequisite for serial ≡ 2 workers ≡ N workers.

The workload generators here are the single source of truth for the
benchmark sweep shapes: the placement and nearest-station legs of
``benchmarks/bench_micro.py`` draw their instances from them too.

Cells return plain dicts of JSON-friendly scalars plus a
:func:`placement_digest` — a SHA-256 over the exact float bits of the
placement — so fan-in can assert bit-identity across worker counts
without shipping whole :class:`~repro.core.result.PlacementResult`
objects back through the pool.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core import (
    DemandPoint,
    EsharingConfig,
    EsharingPlanner,
    constant_facility_cost,
    offline_placement,
    uniform_facility_cost,
)
from ..geo.points import Point
from .shared import SharedArrayHandle, attach_readonly

__all__ = [
    "SeedLike",
    "random_points",
    "random_demand_points",
    "placement_digest",
    "offline_cell",
    "replay_cell",
    "pipeline_cell",
    "experiment_cell",
]

SeedLike = Union[int, np.random.SeedSequence]
"""Seed material a cell accepts: an int or a spawned ``SeedSequence``."""

EXTENT_M = 8_000.0


def _rng(seed: SeedLike) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_points(rng: np.random.Generator, n: int, extent_m: float) -> List[Point]:
    """``n`` uniform points on the ``[0, extent)^2`` study square."""
    return [
        Point(float(x), float(y)) for x, y in rng.uniform(0, extent_m, size=(n, 2))
    ]


def random_demand_points(
    rng: np.random.Generator, n: int, extent_m: float = EXTENT_M
) -> List[DemandPoint]:
    """``n`` uniform demand points with integer weights in ``[1, 5]``.

    The draw order (positions, then weights) is the benchmark sweep
    shape; keep it stable or every recorded BENCH baseline shifts.
    """
    pts = rng.uniform(0, extent_m, size=(n, 2))
    weights = rng.integers(1, 6, size=n)
    return [
        DemandPoint(Point(float(x), float(y)), float(w))
        for (x, y), w in zip(pts, weights)
    ]


def placement_digest(stations: Sequence[Point], assignment: Sequence[int],
                     walking: float, space: float) -> str:
    """SHA-256 over the exact bits of a placement outcome.

    Floats are hashed via ``float.hex()`` so two placements get the same
    digest **iff** they are bit-identical — the currency the parity
    gates trade in.
    """
    h = hashlib.sha256()
    for p in stations:
        h.update(p.x.hex().encode())
        h.update(p.y.hex().encode())
    h.update(",".join(str(int(a)) for a in assignment).encode())
    h.update(float(walking).hex().encode())
    h.update(float(space).hex().encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
def offline_cell(
    seed: SeedLike,
    n_demands: int,
    extent_m: float = EXTENT_M,
    facility_cost: float = 6_000.0,
    strategy: str = "lazy",
) -> Dict[str, object]:
    """Solve one offline JMS placement instance (Algorithm 1).

    The instance is generated from ``seed`` alone, so the cell is a pure
    function of its arguments.  Returns summary scalars, the placement
    digest, and the in-worker solve time.
    """
    demands = random_demand_points(_rng(seed), n_demands, extent_m)
    start = time.perf_counter()
    result = offline_placement(
        demands, constant_facility_cost(facility_cost), strategy=strategy
    )
    seconds = time.perf_counter() - start
    return {
        "demands": n_demands,
        "stations": result.n_stations,
        "walking": result.walking,
        "space": result.space,
        "total": result.total,
        "digest": placement_digest(
            result.stations, result.assignment, result.walking, result.space
        ),
        "seconds": seconds,
    }


def replay_cell(
    stream_seed: SeedLike,
    n_arrivals: int,
    anchor_seed: int = 0,
    n_anchors: int = 80,
    extent_m: float = EXTENT_M,
    facility_cost: float = 800.0,
    historical: Optional[SharedArrayHandle] = None,
) -> Dict[str, object]:
    """Replay one online arrival stream through Algorithm 2.

    ``historical`` may be a :class:`~repro.parallel.shared.SharedArrayHandle`
    to a parent-owned ``(n, 2)`` destination sample — the pickle-free
    path for the one large input every cell of a sweep shares; when
    absent an equivalent sample is drawn locally from ``anchor_seed``.
    """
    anchor_rng = np.random.default_rng(anchor_seed)
    anchors = random_points(anchor_rng, n_anchors, extent_m)
    if historical is not None:
        hist = attach_readonly(historical)
    else:
        hist = anchor_rng.uniform(0, extent_m, size=(5_000, 2))
    stream = random_points(_rng(stream_seed), n_arrivals, extent_m)
    planner = EsharingPlanner(
        anchors,
        uniform_facility_cost(facility_cost, np.random.default_rng(anchor_seed + 1)),
        hist,
        np.random.default_rng(anchor_seed + 2),
        EsharingConfig(),
    )
    start = time.perf_counter()
    planner.replay(stream)
    seconds = time.perf_counter() - start
    result = planner.result()
    return {
        "arrivals": n_arrivals,
        "stations": result.n_stations,
        "total": result.total,
        "digest": placement_digest(
            result.stations, result.assignment, result.walking, result.space
        ),
        "seconds": seconds,
    }


def pipeline_cell(seed: int, volume: int) -> Dict[str, object]:
    """Run the full Fig. 3 end-to-end pipeline for one seed.

    Returns the scorecard scalars plus the worker-side
    :class:`~repro.sim.metrics.PhaseTimers` snapshot, which the parent
    folds into its own timers (``PhaseTimers.merge``) so a fanned sweep
    still reports where the compute went.
    """
    from ..experiments.endtoend import run_pipeline

    result = run_pipeline(seed=seed, volume=volume)
    tier1 = result.extras["tier1"]
    report = result.extras["report"]
    return {
        "seed": seed,
        "tier1_total": tier1.total,
        "tier1_stations": tier1.n_stations,
        "tier2_cost": report.service.total_cost,
        "trips_requested": report.trips_requested,
        "trips_executed": report.trips_executed,
        "incentives_paid": report.incentives_paid,
        "phase_seconds": dict(result.extras["phase_seconds"]),
        "digest": placement_digest(
            tier1.stations, tier1.assignment, tier1.walking, tier1.space
        ),
    }


def experiment_cell(experiment_id: str, seed: int) -> Dict[str, object]:
    """Run one registered experiment for one seed; return its table.

    The picklable projection of an
    :class:`~repro.experiments.reporting.ExperimentResult` (``extras``
    hold live objects and stay worker-side).  Used by the CLI ``sweep``
    subcommand to fan a seed grid across workers.
    """
    from ..experiments import EXPERIMENTS

    if experiment_id not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}"
        )
    result = EXPERIMENTS[experiment_id](seed=seed)
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
        "seed": seed,
    }
