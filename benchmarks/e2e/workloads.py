"""The five workloads of the end-to-end serve benchmark.

Every workload generates its own input from the run's seed and serves
it through a public serving API, the way an operator runs it:

* ``steady``, ``paced``, ``hostile`` and ``surge`` drive one
  :class:`~repro.guard.GuardedRuntime` per session, as
  ``esharing serve --guard`` does (durable journal, fleet in the loop,
  periodic checkpoints);
* ``fleet`` drives a 4-shard :class:`~repro.shard.ShardedRuntime`.

A session's serve phase is ``ingest_many`` once per client block, then
``finish`` → ``consistency_check`` → ``flush_logs``: exactly what
``serve(trips)`` does, split at the client's block boundaries so every
trip's latency can be taken from the call that returned its outcome.
A closed loop runs :func:`reference.reference` before each call,
outside the serve phase's time, to measure how fast the host ran
through the pass.

Nothing here trusts a number before the run's output was checked:
accounting, consistency and health are verified per session, and each
pass's digest folds journal bytes and outcome tuples into one SHA-256
value that repeated passes (and the pinned value) must reproduce.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.costs import constant_facility_cost
from repro.core.esharing import EsharingConfig, EsharingPlanner
from repro.core.streaming import PlacementService, ServiceResponse
from repro.datasets.trips import TripRecord
from repro.energy.fleet import Fleet
from repro.errors import StateDriftError
from repro.geo.points import BoundingBox, Point
from repro.guard import GuardConfig, GuardedRuntime, OverloadConfig, ValidationConfig
from repro.guard.runtime import HALTED
from repro.loadgen import ODConfig, TripStream, make_scenario
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.resilience.service import (
    JOURNAL_NAME,
    CheckpointingService,
    constant_cost_spec,
)
from repro.shard import ShardPlan, ShardRouter, ShardedRuntime
from reference import reference, slowness

NAMES = ("steady", "paced", "hostile", "surge", "fleet")

PLANE = 2000.0
BOUNDS = BoundingBox(0.0, 0.0, PLANE, PLANE)
COST_VALUE = 8000.0
T0 = datetime(2017, 5, 10)
ANCHORS = tuple(
    Point(float(x), float(y))
    for x in (0, 667, 1333, 2000)
    for y in (0, 667, 1333, 2000)
)
BIKES = 120
BETA = 8.0
HISTORY_WINDOW = 100
N_SHARDS = 4
CHECKPOINT_EVERY = 500
LATENESS_S = 600.0
OD_TRIPS_PER_HOUR = 2400.0
#: ``EsharingPlanner`` doubles its cost scale every ``beta * k``
#: arrivals; past ~1024 doublings the scale leaves float range and the
#: next snapshot fails to encode.  Workloads stay well below.
MAX_DOUBLINGS = 1000


class CheckFailed(Exception):
    """A correctness check failed; ``check`` names it."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


# ----------------------------------------------------------------------
# Inputs.
def clean_trips(n: int, seed: int) -> List[TripRecord]:
    """An in-order stream, one trip every 30 s of event time, uniform
    over the plane.

    A frozen copy of ``benchmarks/bench_stream.py``'s ``make_trips``:
    the pinned digests depend on every byte of the input, so the
    benchmark owns its generator rather than import another script's.
    """
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


def chaos_trips(n: int, seed: int) -> List[TripRecord]:
    """``clean_trips`` through the fault mix of ``esharing serve --chaos``."""
    injector = FaultInjector(ChaosConfig(
        seed=seed, p_duplicate=0.03, p_drop=0.03, p_swap=0.05,
        p_clock_skew=0.02, skew_max_s=900.0, p_garbage=0.02,
        p_late=0.02, late_max_positions=8,
    ))
    return injector.mutate_trips(clean_trips(n, seed))


def od_trips(scenario: str, hours: float, seed: int) -> List[TripRecord]:
    """A ``repro.loadgen`` OD stream at the city-wide baseline rate:
    when trips arrive and between which zones is fixed, and ``seed``
    draws where exactly each starts and ends.

    The arrivals are the loadgen stream of seed 0, as ``steady`` and
    ``paced`` keep one trip schedule for every seed.  Drawn per seed,
    they decide whether the festival drives the degradation ladder to
    its last rung, and for how long: the share of trips answered by the
    fallback stepped between 16%, 21% and 27% across seeds, the number
    of snapshots and the time per trip with it, and the seed swamped any
    change to the program.  For the same reason the city has no seeded
    hotspots.  The seed moves both ends of every trip by up to half a
    zone along each axis, inside the plane, and stretches the routed
    length with them.
    """
    duration_s = hours * 3600.0
    od = ODConfig(bounds=BOUNDS, trips_per_hour=OD_TRIPS_PER_HOUR, hotspots=0)
    schedule = make_scenario(scenario, BOUNDS, duration_s)
    arrivals = TripStream(od, schedule, seed=0).records(duration_s)
    half = PLANE / od.zones_per_side / 2
    moves = np.random.default_rng(seed).uniform(-half, half, size=(len(arrivals), 4))
    trips = []
    for trip, (sx, sy, ex, ey) in zip(arrivals, moves.tolist()):
        start = Point(min(max(trip.start.x + sx, 0.0), PLANE),
                      min(max(trip.start.y + sy, 0.0), PLANE))
        end = Point(min(max(trip.end.x + ex, 0.0), PLANE),
                    min(max(trip.end.y + ey, 0.0), PLANE))
        before = abs(trip.end.x - trip.start.x) + abs(trip.end.y - trip.start.y)
        after = abs(end.x - start.x) + abs(end.y - start.y)
        stretch = trip.geodesic_m / before if before > 0 else 1.0
        trips.append(replace(trip, start=start, end=end, geodesic_m=after * stretch))
    return trips


def guard_config(overload: Optional[OverloadConfig] = None) -> GuardConfig:
    return GuardConfig(
        validation=ValidationConfig(
            bounds=BoundingBox(-100.0, -100.0, PLANE + 100.0, PLANE + 100.0),
            max_backwards_s=3600.0,
        ),
        lateness_s=LATENESS_S,
        overload=overload,
    )


def historical(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, PLANE, size=(300, 2))


def check_horizon(name: str, arrivals: int, beta: float, k: int) -> None:
    doublings = arrivals / (beta * k)
    if doublings >= MAX_DOUBLINGS:
        raise CheckFailed(
            "horizon",
            f"a {name} planner would double its cost scale {doublings:.0f} "
            f"times ({arrivals} arrivals / (beta {beta} * k {k})), past the "
            f"{MAX_DOUBLINGS} the snapshot encoder survives",
        )


# ----------------------------------------------------------------------
# Outputs.
def outcome_key(outcome) -> tuple:
    """A type-normalised tuple of one serve outcome, for the digest."""
    if outcome is None:
        return ("duplicate",)
    removed = outcome.removed_station if isinstance(outcome, ServiceResponse) else None
    return (
        "planner" if isinstance(outcome, ServiceResponse) else "fallback",
        int(outcome.order_id),
        bool(getattr(outcome, "served", True)),
        int(outcome.origin_station),
        int(outcome.destination_station),
        bool(getattr(outcome, "opened_new", False)),
        None if removed is None else int(removed),
        float(outcome.walking_m),
    )


def newest_snapshot(directory: Path) -> Path:
    snapshots = sorted(directory.glob("snapshot-*.json"))
    if not snapshots:
        raise CheckFailed("snapshot", f"no snapshot in {directory}")
    return snapshots[-1]


def zero_ks(state: dict) -> dict:
    """``ks_seconds`` is wall-clock time, not logical state."""
    state["planner"]["ks_seconds"] = 0.0
    return state


@dataclass
class PassResult:
    """What one pass over a workload's input produced.

    Times are at the reference speed (see :class:`ServeClock`) unless
    their name says raw.
    """

    #: ``(trips, raw seconds, seconds)`` of each session's serve phase.
    sessions: List[Tuple[int, float, float]] = field(default_factory=list)
    #: One per outcome, in outcome order.
    latencies_s: List[float] = field(default_factory=list)
    offered: int = 0
    deadlettered: int = 0
    refused: int = 0
    fallback: int = 0
    walk_sum: float = 0.0
    answered: int = 0
    stations_open: float = 0.0
    snapshot_bytes: int = 0
    journal_bytes: int = 0
    #: Where recovery starts: the last session's directory, or the fleet root.
    root: Optional[Path] = None
    #: Directories whose newest snapshot the pass leaves behind.
    final_dirs: List[Path] = field(default_factory=list)
    live: object = None
    notes: List[str] = field(default_factory=list)
    #: Reference runs between the pass's calls.
    references: int = 0
    _hash: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    @property
    def raw_wall_s(self) -> float:
        """Serve-phase wall time, less the reference runs."""
        return sum(raw for _, raw, _ in self.sessions)

    @property
    def wall_s(self) -> float:
        return sum(seconds for _, _, seconds in self.sessions)

    @property
    def slowness(self) -> float:
        """How much slower than the reference speed the pass ran."""
        return self.raw_wall_s / self.wall_s

    @property
    def raw_trips_per_s(self) -> float:
        """Offered trips over serve-phase wall time."""
        return self.offered / self.raw_wall_s

    @property
    def trips_per_s(self) -> float:
        return self.offered / self.wall_s

    def fold(self, journal: bytes, outcomes) -> None:
        self._hash.update(journal)
        for outcome in outcomes:
            self._hash.update(repr(outcome_key(outcome)).encode())
        self.journal_bytes += len(journal)

    def tally(self, outcomes) -> None:
        for o in outcomes:
            if o is None:
                continue
            if isinstance(o, ServiceResponse) and not o.served:
                self.refused += 1
                continue
            self.answered += 1
            self.walk_sum += float(o.walking_m)


class ServeClock:
    """Serve-phase time of one session, raw and at the reference speed.

    :meth:`now` is the wall time since :meth:`start`, less the reference
    runs.  A closed loop calls :meth:`reference` before each of its
    calls.  :meth:`scaler` then divides each stretch between two of
    them by the host's slowness over the ``NEAREST`` reference runs
    around it, so a slow spell in the middle of a pass is scaled where
    it happened.  An open loop keeps to its schedule: it runs no
    reference and is not scaled.
    """

    #: Reference runs, at least, whose slowness scales one stretch.
    NEAREST = 16

    def __init__(self, result: PassResult, tracer, references: bool) -> None:
        self._result, self._tracer, self._references = result, tracer, references
        self._start = self._excluded = 0.0
        self._knots: List[float] = []
        self._runs: List[List[float]] = []

    def start(self) -> None:
        self._start = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._start - self._excluded

    def reference(self, runs: int = 1) -> None:
        """Time the host with ``runs`` reference runs, if this loop takes them."""
        if not self._references:
            return
        began = time.perf_counter()
        with self._tracer.idle() if self._tracer else nullcontext():
            self._runs.append([reference() for _ in range(runs)])
        self._excluded += time.perf_counter() - began
        self._knots.append(self.now())
        self._result.references += runs

    def scaler(self, end: float):
        """A function from session times up to ``end`` to the same times
        at the reference speed."""
        if not self._knots:
            return lambda t: t
        knots, scaled = self._knots + [end], [self._knots[0]]
        for i in range(len(self._knots)):
            # The runs just before and just after stretch i, widened
            # evenly until there are enough of them.
            lo, hi = i, i + 2
            while sum(map(len, self._runs[lo:hi])) < self.NEAREST and (
                lo > 0 or hi < len(self._runs)
            ):
                lo, hi = max(0, lo - 1), hi + 1
            near = [run for runs in self._runs[lo:hi] for run in runs]
            scaled.append(scaled[-1] + (knots[i + 1] - knots[i]) / slowness(near))
        return lambda t: float(np.interp(t, knots, scaled))


def _latencies(calls, created) -> List[float]:
    """Per-outcome latency: the emitting call's return minus the
    trip's creation time (duplicates carry no order id and no sample)."""
    out = []
    for returned, outcomes in calls:
        for o in outcomes:
            if o is not None:
                out.append(returned - created[int(o.order_id)])
    return out


def _check_accounting(label: str, offered: int, served: int, duplicates: int,
                      deadlettered: int, deferred: int, degraded: int) -> None:
    accounted = served + duplicates + deadlettered + deferred + degraded
    if offered != accounted:
        raise CheckFailed(
            "accounting",
            f"{label}: offered {offered} != served {served} + duplicates "
            f"{duplicates} + dead-lettered {deadlettered} + deferred "
            f"{deferred} + degraded {degraded} = {accounted}",
        )


# ----------------------------------------------------------------------
@dataclass
class SingleShard:
    """Sessions of one fresh ``GuardedRuntime`` each.

    Closed loop unless ``rate_per_s`` is set: then a block is sent when
    its last trip is due, whether or not the runtime has caught up, and
    each trip's latency counts from the moment it was due.
    """

    name: str
    seed: int
    sessions: List[List[TripRecord]]
    block: int
    beta: float = BETA
    history_window: int = HISTORY_WINDOW
    overload: Optional[OverloadConfig] = None
    rate_per_s: Optional[float] = None

    def check_horizon(self) -> None:
        for trips in self.sessions:
            check_horizon(self.name, len(trips), self.beta, len(ANCHORS))

    def build(self, directory: Path) -> GuardedRuntime:
        planner = EsharingPlanner(
            ANCHORS,
            constant_facility_cost(COST_VALUE),
            historical(self.seed),
            np.random.default_rng(self.seed + 1),
            EsharingConfig(beta=self.beta, history_window=self.history_window),
        )
        fleet = Fleet(
            planner.stations, n_bikes=BIKES, rng=np.random.default_rng(self.seed + 2)
        )
        inner = CheckpointingService(
            PlacementService(planner, fleet), directory,
            checkpoint_every=CHECKPOINT_EVERY, durable=True,
            facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        return GuardedRuntime(inner, guard_config(self.overload))

    def close(self, built: GuardedRuntime) -> None:
        built.close()

    def serve(self, workdir: Path, tracer=None) -> PassResult:
        result = PassResult()
        sent_before = 0
        for index, trips in enumerate(self.sessions):
            directory = workdir / f"session-{index}"
            runtime = self.build(directory)
            calls, created = self._serve_session(
                runtime, trips, directory, result, tracer, sent_before
            )
            sent_before += len(trips)
            self._check(runtime, trips, calls)
            outcomes = [o for _, batch in calls for o in batch]
            result.latencies_s.extend(_latencies(calls, created))
            result.fold((directory / JOURNAL_NAME).read_bytes(), outcomes)
            result.tally(outcomes)
            result.offered += len(trips)
            result.deadlettered += runtime.sink.total
            result.fallback += len(runtime.deferred_decisions) + len(
                runtime.degraded_decisions
            )
            result.stations_open += len(runtime.inner.service.planner.station_set)
            if index == len(self.sessions) - 1:
                result.live = (
                    runtime.inner.applied_seq,
                    zero_ks(runtime.inner.service.state_dict()),
                )
                result.root = directory
                result.final_dirs = [directory]
                result.snapshot_bytes = newest_snapshot(directory).stat().st_size
            runtime.close()
        result.stations_open /= len(self.sessions)
        return result

    def _serve_session(self, runtime, trips, directory, result, tracer, sent_before):
        """The timed serve phase of one session; returns ``(returned at,
        outcomes)`` per call and each order id's creation time, both at
        the reference speed on the session's :class:`ServeClock`."""
        sends: List[Tuple[int, int, float]] = []
        calls: List[Tuple[float, list]] = []
        block, rate = self.block, self.rate_per_s
        clock = ServeClock(result, tracer, references=rate is None)
        with tracer.window() if tracer else nullcontext():
            clock.start()
            for lo in range(0, len(trips), block):
                chunk = trips[lo : lo + block]
                if rate is not None:
                    wait = (lo + len(chunk) - 1) / rate - clock.now()
                    if wait > 0:
                        with tracer.idle() if tracer else nullcontext():
                            time.sleep(wait)
                clock.reference()
                sends.append((lo, len(chunk), clock.now()))
                if tracer:
                    tracer.mark(sent_before + lo)
                outcomes = runtime.ingest_many(chunk, block_size=block)
                calls.append((clock.now(), outcomes))
            clock.reference()
            calls.append((clock.now(), runtime.finish()))
            try:
                runtime.consistency_check()
            except StateDriftError as exc:
                raise CheckFailed("consistency_check", f"{self.name}: {exc}") from exc
            runtime.flush_logs(directory / "logs")
            end = clock.now()
        scaled = clock.scaler(end)
        result.sessions.append((len(trips), end, scaled(end)))
        if tracer:
            tracer.mark(sent_before + len(trips))

        created: Dict[int, float] = {}
        for lo, n, sent in sends:
            for i in range(lo, lo + n):
                due = scaled(sent) if rate is None else i / rate
                created.setdefault(int(trips[i].order_id), due)
        if rate is not None:
            late_s = [sent - (lo + n - 1) / rate for lo, n, sent in sends]
            result.notes.append(
                f"open-loop generator lateness over {len(late_s)} sends: "
                f"median {np.median(late_s) * 1e3:.2f} ms, "
                f"max {max(late_s) * 1e3:.2f} ms"
            )
        return [(scaled(returned), outcomes) for returned, outcomes in calls], created

    def _check(self, runtime, trips, calls) -> None:
        label = f"{self.name} session"
        if runtime.halted:
            raise CheckFailed("health", f"{label} halted: {runtime.halt_reason}")
        offered = runtime.validator.offered
        if offered != len(trips):
            raise CheckFailed(
                "accounting", f"{label}: sent {len(trips)}, validator saw {offered}"
            )
        deferred = len(runtime.deferred_decisions)
        degraded = len(runtime.degraded_decisions)
        _check_accounting(
            label, offered, runtime.served, runtime.duplicates,
            runtime.sink.total, deferred, degraded,
        )
        returned = sum(len(batch) for _, batch in calls)
        if returned != runtime.served + runtime.duplicates + deferred + degraded:
            raise CheckFailed(
                "accounting", f"{label}: {returned} outcomes returned for "
                f"{runtime.served + runtime.duplicates + deferred + degraded} "
                "served, duplicate, deferred or degraded trips",
            )

    def recover(self, directory: Path) -> Tuple[float, object]:
        start = time.perf_counter()
        runtime = GuardedRuntime.recover(
            directory, config=guard_config(self.overload),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        elapsed = time.perf_counter() - start
        try:
            state = (
                runtime.inner.applied_seq,
                zero_ks(runtime.inner.service.state_dict()),
            )
        finally:
            runtime.close()
        return elapsed, state


# ----------------------------------------------------------------------
@dataclass
class ShardedFleet:
    """Consecutive epochs of one stream through one ``ShardedRuntime``.

    Each epoch recovers every shard from its snapshot, serves it,
    checkpoints it and writes the halo.  The last epoch skips the epoch
    checkpoint, so the final recovery replays a real journal tail.

    The shards are served serially in-process (``workers=1``), which
    ``ShardedRuntime`` guarantees is bit-identical to any pool size.
    On a 2-core host two pool workers beside the client measure how the
    scheduler shares the cores more than the program.
    """

    name: str
    seed: int
    epochs: List[List[TripRecord]]
    plan: ShardPlan = field(init=False)

    def __post_init__(self) -> None:
        self.plan = ShardPlan.from_bounds(BOUNDS, N_SHARDS)

    def check_horizon(self) -> None:
        buckets = ShardRouter(self.plan).split_trips(
            [t for epoch in self.epochs for t in epoch]
        )
        owners = self.plan.shard_of_many(
            np.array([p.x for p in ANCHORS]), np.array([p.y for p in ANCHORS])
        )
        for sid, bucket in enumerate(buckets):
            k = int((owners == sid).sum())
            check_horizon(f"{self.name} shard {sid}", len(bucket), BETA, max(k, 1))

    def build(self, directory: Path) -> ShardedRuntime:
        return ShardedRuntime(
            self.plan, directory, ANCHORS, historical(self.seed),
            seed=self.seed, n_bikes=BIKES, cost_value=COST_VALUE,
            guard=guard_config(), checkpoint_every=CHECKPOINT_EVERY,
            beta=BETA, history_window=HISTORY_WINDOW,
        )

    def close(self, built: ShardedRuntime) -> None:
        """A ``ShardedRuntime`` holds no open handle between epochs."""

    def serve(self, workdir: Path, tracer=None) -> PassResult:
        result = PassResult()
        directory = workdir / "fleet"
        fleet = self.build(directory)
        calls: List[Tuple[float, float, object]] = []
        last = len(self.epochs) - 1
        clock = ServeClock(result, tracer, references=True)
        with tracer.window() if tracer else nullcontext():
            clock.start()
            sent_before = 0
            for e, trips in enumerate(self.epochs):
                # An epoch call lasts as long as several client blocks:
                # eight runs either side of it scale it by ``NEAREST``.
                clock.reference(runs=8)
                if tracer:
                    tracer.mark(sent_before)
                sent = clock.now()
                outcome = fleet.serve(trips, workers=1, checkpoint=e < last)
                calls.append((sent, clock.now(), outcome))
                sent_before += len(trips)
            end = clock.now()
        scaled = clock.scaler(end)
        offered = sent_before
        result.sessions.append((offered, end, scaled(end)))
        if tracer:
            tracer.mark(offered)

        latest: Dict[int, object] = {}
        responses: Dict[int, list] = {sid: [] for sid in range(N_SHARDS)}
        for (sent, returned, outcome), trips in zip(calls, self.epochs):
            waited = scaled(returned) - scaled(sent)
            if sum(r.offered for r in outcome.reports) != len(trips):
                raise CheckFailed(
                    "accounting", f"{self.name}: an epoch of {len(trips)} trips "
                    f"reached the shards as {sum(r.offered for r in outcome.reports)}"
                )
            for report in outcome.reports:
                label = f"{self.name} shard {report.shard_id}"
                if report.health == HALTED:
                    raise CheckFailed("health", f"{label} halted")
                _check_accounting(
                    label, report.offered, report.served, report.duplicates,
                    report.deadlettered, report.deferred, report.degraded,
                )
                result.deadlettered += report.deadlettered
                result.fallback += report.deferred + report.degraded
                result.tally(report.outcomes)
                result.latencies_s.extend(
                    waited for o in report.outcomes if o is not None
                )
                responses[report.shard_id].extend(
                    o for o in report.outcomes if isinstance(o, ServiceResponse)
                )
                latest[report.shard_id] = report
        result.offered = offered
        for (_, _, outcome) in calls:
            for report in outcome.reports:
                result.fold(b"", report.outcomes)
        for sid in range(N_SHARDS):
            shard_dir = directory / f"shard-{sid:03d}"
            result.fold((shard_dir / JOURNAL_NAME).read_bytes(), [])
            result.snapshot_bytes += newest_snapshot(shard_dir).stat().st_size
            result.final_dirs.append(shard_dir)
        result.root = directory
        result.stations_open = sum(len(r.stations) for r in latest.values())
        result.live = {
            sid: (report.applied_seq, tuple(report.stations), responses[sid])
            for sid, report in latest.items()
        }
        return result

    def recover(self, directory: Path) -> Tuple[float, object]:
        start = time.perf_counter()
        fleet = ShardedRuntime.recover(directory)
        runtimes = {sid: fleet.open_shard(sid) for sid in range(N_SHARDS)}
        elapsed = time.perf_counter() - start
        state = {}
        for sid, runtime in runtimes.items():
            store = runtime.inner.service.planner.station_set
            roster = tuple(
                (int(i), float(store.location(i).x), float(store.location(i).y))
                for i in store.ids()
            )
            state[sid] = (
                runtime.inner.applied_seq, roster, list(runtime.inner.service.responses)
            )
            runtime.close()
        return elapsed, state


# ----------------------------------------------------------------------
def make(name: str, seed: int, smoke: bool = False):
    """The named workload's input and configuration for ``seed``.

    One pass over the input takes 1-5 s on a 2-core host, so a run
    repeats it several times.  ``smoke`` shrinks every input to a
    fraction of a second of the same shape, for the benchmark's tests.
    """
    if name == "steady":
        # 8,250 leaves a 250-trip journal tail after the last periodic
        # snapshot, so recovery replays a real tail.  Blocks of 128 put
        # a checkpoint in one call of four, so the median call does not
        # sit on the boundary between calls with and without one.
        n = 1_250 if smoke else 8_250
        return SingleShard(name, seed, [clean_trips(n, seed)], block=128)
    if name == "paced":
        # 2,400 trips put a checkpoint in every quarter of the stream.
        n, rate = (640, 2_000.0) if smoke else (2_400, 500.0)
        return SingleShard(name, seed, [clean_trips(n, seed)], block=64, rate_per_s=rate)
    if name == "hostile":
        count, n = (2, 600) if smoke else (4, 2_000)
        seeds = np.random.SeedSequence(seed).generate_state(count)
        return SingleShard(
            name, seed, [chaos_trips(n, int(s)) for s in seeds], block=128
        )
    if name == "surge":
        hours = 0.75 if smoke else 3.0
        # The one-shard admission sizing of the overload gauntlet
        # (``repro.loadgen``'s private ``_overload_config(od, 1)``): 1.6x
        # the baseline offered rate.  Copied, not imported, so that a
        # retuning of the gauntlet does not change this workload's input.
        rate = 1.6 * OD_TRIPS_PER_HOUR / 3600.0
        overload = OverloadConfig(
            rate_per_s=rate, burst=max(32, int(round(rate * 180.0))), queue_limit=400
        )
        return SingleShard(
            name, seed, [od_trips("festival", hours, seed)], block=64,
            beta=2.0, history_window=200, overload=overload,
        )
    if name == "fleet":
        hours, count = (0.5, 3) if smoke else (1, 6)
        trips = od_trips("baseline", hours, seed)
        span_s = hours * 3600.0 / count
        epochs: List[List[TripRecord]] = [[] for _ in range(count)]
        for trip in trips:
            offset = (trip.start_time - trips[0].start_time).total_seconds()
            epochs[min(int(offset // span_s), count - 1)].append(trip)
        return ShardedFleet(name, seed, epochs)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
