"""The geo-sharded runtime: N independent guarded shards, one city.

:class:`ShardedRuntime` turns the single-city guarded stack into a
horizontally partitioned deployment.  A :class:`~repro.shard.plan.ShardPlan`
assigns every geohash cell to a shard; each shard is a full
:class:`~repro.guard.runtime.GuardedRuntime` over its own
:class:`~repro.resilience.CheckpointingService` — its own write-ahead
journal, its own snapshot generations, its own breakers and incident
log — living in ``<root>/shard-NNN/``.  Shards share *nothing* mutable:
a crash, halt or self-heal in one territory cannot touch another.

**Serving model.**  Each :meth:`ShardedRuntime.serve` call is an epoch:
the stream is split by destination cell
(:class:`~repro.shard.router.ShardRouter`, order preserved per shard),
every shard with traffic runs *build-or-recover → serve → checkpoint →
close* as a self-contained task, and the tasks fan out over
:class:`~repro.parallel.ParallelRunner` (``workers <= 1`` short-circuits
to in-process serial execution — the reference path fan-out is compared
against).  Task results merge in shard order, never completion order,
so multi-worker epochs are bit-identical to serial ones.

**Determinism contract.**  Each shard's planner is built from the same
recipe (:class:`ShardSpec`) whether it runs inside an N-shard fleet or
standalone: anchors and historical demand filtered to its territory,
per-shard RNG spawned from the root seed in shard-id order
(``SeedSequence.spawn`` — independent of worker scheduling).  Serving a
territory as one shard of a fleet is therefore bit-identical — same
responses, same journal bytes, same checkpoint state — to serving that
territory alone, which is the interior-trip guarantee the parity suite
pins at 2/4/8 shards.

**Halo replication.**  Trips ending in a *boundary* cell (one whose
8-neighbourhood crosses into another shard) may have a closer parking
just over the edge.  Each epoch ships every shard a read-only halo: the
edge stations its neighbours reported at the end of the previous epoch
(anchors at genesis).  After the shard's own journaled decision, the
halo is consulted for a nearer foreign station; a hit is recorded as a
:class:`CrossShardReferral` *alongside* the decision — never instead of
it.  Referrals stay outside the journal (like degraded decisions), so
halo staleness can cost a referral but can never fork a shard's
recoverable history.

**Recovery.**  The plan and build recipe persist in
``shardplan.json``; :meth:`ShardedRuntime.recover` reloads them and each
shard replays its own snapshot + journal tail independently — a dead
shard recovers without touching its neighbours' state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.costs import constant_facility_cost
from ..core.esharing import EsharingConfig, EsharingPlanner
from ..core.streaming import PlacementService, ServiceResponse
from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..geo.points import BoundingBox, Point
from ..guard.breakers import BreakerConfig
from ..guard.overload import LadderConfig, OverloadConfig
from ..guard.runtime import HALTED, DEGRADED, HEALTHY, GuardConfig, GuardedRuntime
from ..guard.validation import ValidationConfig
from ..ioutil import atomic_write_text
from ..parallel.pool import ParallelRunner, TaskSpec
from ..resilience.service import CheckpointingService, constant_cost_spec
from .plan import ShardPlan
from .router import ShardRouter

__all__ = [
    "PLAN_FILE",
    "HALO_FILE",
    "ShardSpec",
    "ShardReport",
    "CrossShardReferral",
    "ShardedServeOutcome",
    "ShardedRuntime",
    "build_shard_runtime",
]

PLAN_FILE = "shardplan.json"
"""Root-directory file holding the plan and the shard build recipe."""

HALO_FILE = "halo.json"
"""Root-directory file holding each shard's last-reported stations."""


def _shard_dir(root: Path, shard_id: int) -> Path:
    return root / f"shard-{shard_id:03d}"


# ----------------------------------------------------------------------
# GuardConfig <-> JSON state (persisted in shardplan.json so recover()
# rebuilds byte-identical shard behaviour without caller help).
def _guard_to_state(config: GuardConfig) -> Dict[str, Any]:
    state = asdict(config)
    validation = state["validation"]
    bounds = validation["bounds"]
    if bounds is not None:
        validation["bounds"] = [
            bounds["min_x"], bounds["min_y"], bounds["max_x"], bounds["max_y"]
        ]
    validation["battery_range"] = list(validation["battery_range"])
    return state


def _guard_from_state(state: Dict[str, Any]) -> GuardConfig:
    state = dict(state)
    validation = dict(state.pop("validation"))
    bounds = validation.pop("bounds")
    battery = validation.pop("battery_range")
    breaker = BreakerConfig(**state.pop("breaker"))
    # Plans written before the overload layer existed lack the key.
    overload_state = state.pop("overload", None)
    overload = None
    if overload_state is not None:
        overload_state = dict(overload_state)
        ladder = LadderConfig(**overload_state.pop("ladder"))
        overload = OverloadConfig(ladder=ladder, **overload_state)
    config = ValidationConfig(
        bounds=None if bounds is None else BoundingBox(*bounds),
        battery_range=tuple(battery),
        **validation,
    )
    return GuardConfig(
        validation=config, breaker=breaker, overload=overload, **state
    )


@dataclass(frozen=True)
class ShardSpec:
    """The complete, picklable build recipe of one shard's stack.

    Everything a worker process (or a standalone parity oracle) needs to
    construct the shard's guarded runtime bit-identically: territory
    anchors and historical demand, the derived fleet share, the root
    seed the per-shard entropy is spawned from, and the guard policy.
    """

    shard_id: int
    n_shards: int
    seed: int
    anchors: Tuple[Tuple[float, float], ...]
    historical: Tuple[Tuple[float, float], ...]
    n_bikes: int
    cost_value: float
    beta: float
    history_window: int
    checkpoint_every: int
    keep: int
    durable: bool
    guard_state: Dict[str, Any]

    def guard_config(self) -> GuardConfig:
        """The shard's :class:`GuardConfig`, rebuilt from its JSON form."""
        return _guard_from_state(self.guard_state)


@dataclass(frozen=True)
class CrossShardReferral:
    """A boundary trip for which a neighbouring shard's halo station is
    closer than the home shard's own assignment.

    Advisory only: the home shard's journaled decision stands; the
    referral annotates it with the nearer foreign option.

    Attributes:
        order_id: the trip.
        home_shard: shard that served the trip.
        station_shard: shard owning the closer station.
        station_id: that shard's stable station id.
        walking_m: walking distance to the foreign station.
        saved_m: improvement over the home assignment's walking
            distance.
    """

    order_id: int
    home_shard: int
    station_shard: int
    station_id: int
    walking_m: float
    saved_m: float


@dataclass(frozen=True)
class ShardReport:
    """One shard's result for one serve epoch.

    ``outcomes`` is exactly what the shard's
    :meth:`~repro.guard.runtime.GuardedRuntime.serve` returned —
    :class:`~repro.core.streaming.ServiceResponse`, ``None`` (screened
    duplicate) or :class:`~repro.guard.runtime.DegradedDecision` per
    emitted event; ``stations`` is the post-epoch station roster other
    shards receive as halo at the next epoch.
    """

    shard_id: int
    offered: int
    served: int
    duplicates: int
    deadlettered: int
    degraded: int
    incidents: int
    health: str
    applied_seq: int
    outcomes: Tuple
    referrals: Tuple[CrossShardReferral, ...]
    stations: Tuple[Tuple[int, float, float], ...]
    shed: int = 0
    deferred: int = 0


@dataclass(frozen=True)
class ShardedServeOutcome:
    """Aggregate of one epoch across every shard (shard-id order)."""

    reports: Tuple[ShardReport, ...]
    referrals: Tuple[CrossShardReferral, ...]

    @property
    def served(self) -> int:
        return sum(r.served for r in self.reports)

    @property
    def duplicates(self) -> int:
        return sum(r.duplicates for r in self.reports)

    @property
    def deadlettered(self) -> int:
        return sum(r.deadlettered for r in self.reports)

    @property
    def degraded(self) -> int:
        return sum(r.degraded for r in self.reports)

    @property
    def shed(self) -> int:
        return sum(r.shed for r in self.reports)

    @property
    def deferred(self) -> int:
        return sum(r.deferred for r in self.reports)

    @property
    def health(self) -> str:
        states = {r.health for r in self.reports}
        if HALTED in states:
            return HALTED
        if DEGRADED in states:
            return DEGRADED
        return HEALTHY


# ----------------------------------------------------------------------
def build_shard_runtime(
    spec: ShardSpec, directory: Union[str, Path]
) -> GuardedRuntime:
    """Construct (or recover) one shard's guarded stack from its recipe.

    A fresh directory gets a brand-new service with the genesis
    snapshot; a populated one recovers snapshot + journal tail.  Both
    paths end in the identical in-memory stack, which is what makes
    epoch-based serving safe: *recover → serve* continues the exact
    history *build → serve* started.

    This function is also the parity oracle's constructor: a standalone
    single-shard deployment of the same territory is literally
    ``build_shard_runtime(spec, somewhere_else)``.
    """
    directory = Path(directory)
    config = spec.guard_config()
    cost = constant_facility_cost(spec.cost_value)
    if directory.exists() and any(directory.iterdir()):
        return GuardedRuntime.recover(
            directory,
            config=config,
            facility_cost=cost,
            checkpoint_every=spec.checkpoint_every,
            keep=spec.keep,
            durable=spec.durable,
        )
    # Per-shard entropy: spawned from the root seed in shard-id order,
    # so shard i's RNG stream is the same for every worker schedule and
    # every fleet size that contains it with the same id.
    child = np.random.SeedSequence(spec.seed).spawn(spec.n_shards)[spec.shard_id]
    planner_seed, fleet_seed = child.spawn(2)
    planner = EsharingPlanner(
        [Point(x, y) for x, y in spec.anchors],
        cost,
        np.asarray(spec.historical, dtype=float).reshape(-1, 2),
        np.random.default_rng(planner_seed),
        EsharingConfig(beta=spec.beta, history_window=spec.history_window),
    )
    fleet = Fleet(planner.stations, n_bikes=spec.n_bikes, rng=np.random.default_rng(fleet_seed))
    inner = CheckpointingService(
        PlacementService(planner, fleet),
        directory,
        checkpoint_every=spec.checkpoint_every,
        keep=spec.keep,
        durable=spec.durable,
        facility_cost_spec=constant_cost_spec(spec.cost_value),
    )
    return GuardedRuntime(inner, config, facility_cost=cost)


def _compute_referrals(
    spec: ShardSpec,
    plan: ShardPlan,
    trips: Sequence[TripRecord],
    outcomes: Sequence,
    halo: Sequence[Tuple[int, int, float, float]],
) -> List[CrossShardReferral]:
    """Nearest-neighbour queries across the shard edge, halo-side.

    Only served responses whose destination falls in a boundary cell are
    eligible; the foreign station must be strictly closer than the home
    assignment's walking distance.
    """
    if not halo:
        return []
    ends: Dict[int, Tuple[float, float]] = {}
    for t in trips:
        try:
            ends[t.order_id] = (float(t.end.x), float(t.end.y))
        except (TypeError, ValueError):
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


class ShardedRuntime:
    """N independently durable guarded shards behind one serving API.

    Args:
        plan: the cell-to-shard territory assignment.
        directory: root checkpoint directory; each shard lives in
            ``shard-NNN/`` beneath it.  Must be fresh — resuming goes
            through :meth:`recover`.
        anchors: the city-wide offline anchor set; each shard receives
            the anchors inside its territory (every shard needs at
            least one).
        historical: city-wide ``(n, 2)`` historical destination sample;
            split by territory the same way (every shard needs at least
            one row — plan with ``demand=`` weights when in doubt).
        seed: root seed; per-shard entropy is spawned from it.
        n_bikes: city-wide fleet size, split across shards
            proportionally to their anchor counts (min 1).
        cost_value: constant facility opening cost (journaled in every
            shard snapshot, so recovery needs no callable).
        guard: guard policy applied to every shard.
        checkpoint_every / keep / durable: per-shard durability knobs.
        beta / history_window: planner configuration.

    Raises:
        ValueError: on a populated directory, a shard with no anchor or
            no historical demand.
    """

    def __init__(
        self,
        plan: ShardPlan,
        directory: Union[str, Path],
        anchors: Sequence[Point],
        historical: np.ndarray,
        seed: int = 0,
        n_bikes: int = 120,
        cost_value: float = 8000.0,
        guard: Optional[GuardConfig] = None,
        checkpoint_every: int = 500,
        keep: int = 3,
        durable: bool = True,
        beta: float = 2.0,
        history_window: int = 200,
        _resume: bool = False,
    ) -> None:
        self.plan = plan
        self.router = ShardRouter(plan)
        self.directory = Path(directory)
        self.guard = guard or GuardConfig()
        self.seed = int(seed)
        self.cost_value = float(cost_value)
        self.checkpoint_every = int(checkpoint_every)
        self.keep = int(keep)
        self.durable = bool(durable)
        self.beta = float(beta)
        self.history_window = int(history_window)
        self.anchors = [Point(float(p.x), float(p.y)) for p in anchors]
        self.historical = np.asarray(historical, dtype=float).reshape(-1, 2)
        self.n_bikes = int(n_bikes)

        anchor_sids = plan.shard_of_many(
            np.array([p.x for p in self.anchors]),
            np.array([p.y for p in self.anchors]),
        )
        hist_sids = plan.shard_of_many(self.historical[:, 0], self.historical[:, 1])
        self._shard_anchors: List[List[Tuple[float, float]]] = [
            [] for _ in range(plan.n_shards)
        ]
        for sid, p in zip(anchor_sids.tolist(), self.anchors):
            self._shard_anchors[sid].append((p.x, p.y))
        self._shard_hist: List[List[Tuple[float, float]]] = [
            [] for _ in range(plan.n_shards)
        ]
        for sid, row in zip(hist_sids.tolist(), self.historical.tolist()):
            self._shard_hist[sid].append((row[0], row[1]))
        for sid in range(plan.n_shards):
            if not self._shard_anchors[sid]:
                raise ValueError(
                    f"shard {sid} has no anchor station — refine the plan "
                    "(coarser precision, fewer shards, or demand weights)"
                )
            if not self._shard_hist[sid]:
                raise ValueError(
                    f"shard {sid} has no historical demand — plan with "
                    "demand= weights or provide a denser sample"
                )
        total_anchors = len(self.anchors)
        self._shard_bikes = [
            max(1, self.n_bikes * len(self._shard_anchors[sid]) // total_anchors)
            for sid in range(plan.n_shards)
        ]
        # Genesis halo: each territory's anchors under their genesis
        # station ids (StationSet ids are assigned in anchor order).
        self._stations: Dict[int, List[Tuple[int, float, float]]] = {
            sid: [
                (i, x, y) for i, (x, y) in enumerate(self._shard_anchors[sid])
            ]
            for sid in range(plan.n_shards)
        }

        if _resume:
            self._load_halo()
        else:
            if (self.directory / PLAN_FILE).exists():
                raise ValueError(
                    f"{self.directory} already holds a shard plan; use "
                    "ShardedRuntime.recover() to resume it"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.directory / PLAN_FILE,
                json.dumps(self._manifest(), sort_keys=True),
                durable=self.durable,
            )

    # ------------------------------------------------------------------
    def _manifest(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.state_dict(),
            "build": {
                "anchors": [[p.x, p.y] for p in self.anchors],
                "historical": self.historical.tolist(),
                "seed": self.seed,
                "n_bikes": self.n_bikes,
                "cost_value": self.cost_value,
                "checkpoint_every": self.checkpoint_every,
                "keep": self.keep,
                "durable": self.durable,
                "beta": self.beta,
                "history_window": self.history_window,
                "guard": _guard_to_state(self.guard),
            },
        }

    def spec(self, shard_id: int) -> ShardSpec:
        """The build recipe of one shard (also the parity oracle's)."""
        if not 0 <= shard_id < self.plan.n_shards:
            raise ValueError(f"shard out of range: {shard_id}")
        return ShardSpec(
            shard_id=shard_id,
            n_shards=self.plan.n_shards,
            seed=self.seed,
            anchors=tuple(self._shard_anchors[shard_id]),
            historical=tuple(tuple(r) for r in self._shard_hist[shard_id]),
            n_bikes=self._shard_bikes[shard_id],
            cost_value=self.cost_value,
            beta=self.beta,
            history_window=self.history_window,
            checkpoint_every=self.checkpoint_every,
            keep=self.keep,
            durable=self.durable,
            guard_state=_guard_to_state(self.guard),
        )

    def specs(self) -> List[ShardSpec]:
        """Build recipes for every shard, in shard-id order."""
        return [self.spec(sid) for sid in range(self.plan.n_shards)]

    # ------------------------------------------------------------------
    def _halo_for(self, shard_id: int) -> Tuple[Tuple[int, int, float, float], ...]:
        """Read-only edge stations of the *other* shards, as of the last
        completed epoch (anchors at genesis)."""
        rows: List[Tuple[int, int, float, float]] = []
        for sid, stations in sorted(self._stations.items()):
            if sid == shard_id or not stations:
                continue
            xs = np.array([s[1] for s in stations])
            ys = np.array([s[2] for s in stations])
            near = self.plan.touches_shard(xs, ys, shard_id)
            for keep, (station_id, x, y) in zip(near.tolist(), stations):
                if keep:
                    rows.append((sid, station_id, x, y))
        return tuple(rows)

    def _load_halo(self) -> None:
        path = self.directory / HALO_FILE
        if not path.exists():
            return
        data = json.loads(path.read_text())
        self._stations = {
            int(sid): [(int(i), float(x), float(y)) for i, x, y in rows]
            for sid, rows in data.items()
        }

    def _save_halo(self) -> None:
        payload = {
            str(sid): [[i, x, y] for i, x, y in rows]
            for sid, rows in sorted(self._stations.items())
        }
        atomic_write_text(
            self.directory / HALO_FILE,
            json.dumps(payload, sort_keys=True),
            durable=self.durable,
        )

    # ------------------------------------------------------------------
    def serve(
        self,
        trips: Sequence[TripRecord],
        workers: int = 1,
        block_size: Optional[int] = None,
        checkpoint: bool = True,
    ) -> ShardedServeOutcome:
        """Run one epoch of the city stream across the shard fleet.

        Args:
            trips: the arrival stream in arrival order.
            workers: worker processes for the fan-out; ``<= 1`` serves
                the shards serially in-process (bit-identical results).
            block_size: columnar block size inside each shard (any size
                takes the same route; ``None`` = the guard default).
            checkpoint: snapshot each shard at epoch end (disable to
                model a crash before any checkpoint, e.g. in recovery
                tests).

        Returns:
            Per-shard reports in shard-id order plus the epoch's
            cross-shard referrals.
        """
        buckets = self.router.split_trips(trips)
        tasks: List[TaskSpec] = []
        for sid, bucket in enumerate(buckets):
            if not bucket:
                continue
            tasks.append(
                TaskSpec(
                    fn=_run_epoch_task,
                    args=(
                        self.spec(sid),
                        self.plan.state_dict(),
                        str(_shard_dir(self.directory, sid)),
                        bucket,
                        self._halo_for(sid),
                        block_size,
                        checkpoint,
                    ),
                    label=f"shard-{sid:03d}",
                )
            )
        runner = ParallelRunner(workers=min(workers, max(1, len(tasks))))
        reports: List[ShardReport] = runner.run(tasks)
        for report in reports:
            self._stations[report.shard_id] = [
                (i, x, y) for i, x, y in report.stations
            ]
        self._save_halo()
        referrals: List[CrossShardReferral] = []
        for report in reports:
            referrals.extend(report.referrals)
        return ShardedServeOutcome(reports=tuple(reports), referrals=tuple(referrals))

    # ------------------------------------------------------------------
    def open_shard(self, shard_id: int) -> GuardedRuntime:
        """Materialise one shard's guarded runtime in-process.

        Recovers from the shard's own snapshot + journal when it has
        served before; otherwise builds it fresh.  Callers own closing
        it.
        """
        return build_shard_runtime(
            self.spec(shard_id), _shard_dir(self.directory, shard_id)
        )

    @classmethod
    def recover(
        cls, directory: Union[str, Path]
    ) -> "ShardedRuntime":
        """Rebuild a sharded runtime from its root directory.

        Reads ``shardplan.json`` (plan + build recipe) and the halo
        cache; each shard's state then recovers lazily — and
        independently — from its own ``shard-NNN/`` directory the next
        time it serves or is opened.

        Raises:
            FileNotFoundError: when the directory holds no plan.
        """
        directory = Path(directory)
        path = directory / PLAN_FILE
        if not path.exists():
            raise FileNotFoundError(f"{path} does not exist — nothing to recover")
        manifest = json.loads(path.read_text())
        build = manifest["build"]
        return cls(
            plan=ShardPlan.from_state(manifest["plan"]),
            directory=directory,
            anchors=[Point(x, y) for x, y in build["anchors"]],
            historical=np.asarray(build["historical"], dtype=float),
            seed=build["seed"],
            n_bikes=build["n_bikes"],
            cost_value=build["cost_value"],
            guard=_guard_from_state(build["guard"]),
            checkpoint_every=build["checkpoint_every"],
            keep=build["keep"],
            durable=build["durable"],
            beta=build["beta"],
            history_window=build["history_window"],
            _resume=True,
        )


def _run_epoch_task(
    spec: ShardSpec,
    plan_state: Dict[str, Any],
    directory: str,
    trips: List[TripRecord],
    halo: Tuple[Tuple[int, int, float, float], ...],
    block_size: Optional[int],
    checkpoint: bool,
) -> ShardReport:
    """Module-level epoch task (picklable for the process pool)."""
    plan = ShardPlan.from_state(plan_state)
    runtime = build_shard_runtime(spec, directory)
    offered_before = runtime.validator.offered
    outcomes = runtime.serve(trips, block_size=block_size)
    runtime.consistency_check()
    referrals = _compute_referrals(spec, plan, trips, outcomes, halo)
    if checkpoint and not runtime.halted:
        runtime.inner.checkpoint()
    runtime.flush_logs(Path(directory) / "logs", durable=spec.durable)
    store = runtime.inner.service.planner.station_set
    stations = tuple(
        (int(sid), float(store.location(sid).x), float(store.location(sid).y))
        for sid in store.ids()
    )
    report = ShardReport(
        shard_id=spec.shard_id,
        offered=runtime.validator.offered - offered_before,
        served=runtime.served,
        duplicates=runtime.duplicates,
        deadlettered=runtime.sink.total,
        degraded=len(runtime.degraded_decisions),
        incidents=runtime.incidents.total,
        health=runtime.health,
        applied_seq=runtime.inner.applied_seq,
        outcomes=tuple(outcomes),
        referrals=tuple(referrals),
        stations=stations,
        shed=runtime.overload.shed if runtime.overload is not None else 0,
        deferred=len(runtime.deferred_decisions),
    )
    runtime.close()
    return report
