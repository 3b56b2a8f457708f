"""The gauntlet's demo city and the checks every row shares.

One 2 km x 2 km plane with 4x4 offline anchors, built three ways: the
clean trip stream, the single-runtime :class:`PlacementService` and the
geo-sharded :class:`ShardedRuntime` fleet. Tests and benchmarks build
the same city from here.
"""

from __future__ import annotations

import sys
import traceback
from datetime import datetime, timedelta
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.costs import constant_facility_cost
from ..core.esharing import EsharingConfig, EsharingPlanner
from ..core.streaming import PlacementService
from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..geo.points import BoundingBox, Point
from ..guard.overload import OverloadConfig
from ..guard.runtime import GuardConfig
from ..guard.validation import ValidationConfig
from ..resilience.service import logical_state
from ..shard import ShardPlan, ShardedRuntime, build_shard_runtime

PLANE = 2000.0
COST_VALUE = 8000.0
BOUNDS = BoundingBox(0.0, 0.0, PLANE, PLANE)
T0 = datetime(2017, 5, 10)

#: Per-shard journal bytes and recovered logical state, by shard id.
FleetImage = Tuple[Dict[int, bytes], Dict[int, dict]]


def trips(n: int, seed: int = 0) -> List[TripRecord]:
    """A clean, in-order stream: one trip every 30 s, uniform on the plane."""
    rng = np.random.default_rng(seed)
    return [
        TripRecord(
            order_id=i, user_id=i % 40, bike_id=i % 60, bike_type=1,
            start_time=T0 + timedelta(seconds=30 * i),
            start=Point(*rng.uniform(0.0, PLANE, 2)),
            end=Point(*rng.uniform(0.0, PLANE, 2)),
            battery=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(n)
    ]


def anchors() -> List[Point]:
    """The 4x4 offline anchor grid."""
    return [
        Point(float(x), float(y))
        for x in (0, 667, 1333, 2000)
        for y in (0, 667, 1333, 2000)
    ]


def historical(seed: int = 0) -> np.ndarray:
    """300 historical demand points the planner's KS window starts from."""
    return np.random.default_rng(seed).uniform(0.0, PLANE, size=(300, 2))


def guard_config(overload: Optional[OverloadConfig] = None) -> GuardConfig:
    """Bounds with a 100 m margin, 1 h clock skew and 10 min lateness."""
    return GuardConfig(
        validation=ValidationConfig(
            bounds=BoundingBox(-100.0, -100.0, PLANE + 100.0, PLANE + 100.0),
            max_backwards_s=3600.0,  # chaos clock skew stays under an hour
        ),
        lateness_s=600.0,
        overload=overload,
    )


def service(seed: int = 0) -> PlacementService:
    """The single-runtime service: beta 2, a 200-trip window, 120 bikes."""
    planner = EsharingPlanner(
        anchors(),
        constant_facility_cost(COST_VALUE),
        historical(seed),
        np.random.default_rng(seed + 1),
        EsharingConfig(beta=2.0, history_window=200),
    )
    bikes = Fleet(planner.stations, n_bikes=120, rng=np.random.default_rng(seed + 2))
    return PlacementService(planner, bikes)


def fleet(
    plan: Union[int, ShardPlan],
    directory: Union[str, Path],
    seed: int = 0,
    *,
    durable: bool = False,
    overload: Optional[OverloadConfig] = None,
) -> ShardedRuntime:
    """The city as a geo-sharded fleet; ``plan`` may be a shard count."""
    if not isinstance(plan, ShardPlan):
        plan = ShardPlan.from_bounds(BOUNDS, plan)
    return ShardedRuntime(
        plan, directory, anchors(), historical(seed), seed=seed,
        guard=guard_config(overload), durable=durable,
    )


def shard_journals(root: Union[str, Path]) -> Dict[int, bytes]:
    """Journal bytes of every shard directory under ``root``."""
    return {
        int(path.parent.name[len("shard-"):]): path.read_bytes()
        for path in sorted(Path(root).glob("shard-*/journal.jsonl"))
    }


def shard_states(
    city: ShardedRuntime, root: Union[str, Path, None] = None
) -> Dict[int, dict]:
    """Recovered logical state of every shard of ``city`` found under
    ``root`` (default: the city's own directory)."""
    root = Path(root or city.directory)
    states = {}
    for sid in range(city.plan.n_shards):
        directory = root / f"shard-{sid:03d}"
        if directory.exists():
            runtime = build_shard_runtime(city.spec(sid), directory)
            states[sid] = logical_state(runtime.inner.service)
            runtime.close()
    return states


def fleet_image(
    city: ShardedRuntime, root: Union[str, Path, None] = None
) -> FleetImage:
    """What :func:`oracle_identity` compares: journals, then states."""
    root = root or city.directory
    return shard_journals(root), shard_states(city, root)


class Checks:
    """Collects a row's failures, printing one ``FAIL:`` line for each."""

    def __init__(self) -> None:
        self.failures = 0

    def __call__(self, ok, message: str):
        """Record ``message`` as a failure unless ``ok``; returns ``ok``."""
        if not ok:
            print(f"FAIL: {message}")
            self.failures += 1
        return ok

    def error(self, message: str) -> None:
        """Record the exception being handled as a failure, with its
        traceback."""
        self(False, message)
        traceback.print_exc(file=sys.stdout)


def oracle_identity(
    check: Checks, label: str, city: ShardedRuntime, oracle: FleetImage
) -> None:
    """Every shard of ``city`` holds the oracle's journal bytes and
    recovered state, and no orphan tmp file is left in its directory."""
    for what, got, want in zip(
        ("journal bytes", "recovered state"), fleet_image(city), oracle
    ):
        bad = sorted(s for s in set(got) | set(want) if got.get(s) != want.get(s))
        check(not bad, f"{label}: {what} diverged on shard(s) {bad}")
    orphans = sorted(Path(city.directory).rglob("*.tmp-*"))
    check(not orphans, f"{label}: orphan tmp file(s) left behind: {orphans}")


def accounting(check: Checks, label: str, offered: int, accounted: int) -> None:
    """Every offered event is accounted for exactly once."""
    check(
        offered == accounted,
        f"{label} accounting drift: {offered} offered vs {accounted} accounted",
    )
