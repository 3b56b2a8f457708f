"""The supervised online runtime: validate, reorder, degrade, survive.

:class:`GuardedRuntime` is the outermost layer of the online tier.  It
wraps the crash-safe :class:`~repro.resilience.CheckpointingService`
with the guardrails a live deployment needs between the network and the
planner::

    arrival ──▶ TripValidator ──▶ WatermarkBuffer ──▶ planner breaker
                   │ reject            │ late/shed         │ open
                   ▼                   ▼                   ▼
               dead-letter sink ◀──────┘            degraded serve

and supervises the whole pipe with a three-state health machine:

* **healthy** — every breaker closed, events flow through the journaled
  write-ahead path exactly as the unguarded service would serve them
  (with all fault rates at zero the outputs are bit-identical);
* **degraded** — a subsystem breaker is open or probing.  KS checks
  repeat the last accepted result, the incentive tier stops offering,
  and while the *planner* breaker is open requests are answered from
  the nearest-existing-station fallback — availability over
  durability, with every degraded decision recorded;
* **halted** — durability itself failed (checkpoint I/O retries
  exhausted, journal unusable, or no station left to serve from).  The
  runtime refuses further events: serving on without a recoverable
  journal would silently fork history.

A planner exception mid-trip is treated as in-memory corruption and
**self-healed** through the existing recovery machinery: the poisoned
service object is discarded and rebuilt from the latest snapshot plus
the journal tail — the same code path a process crash takes, minus the
process death.  The ``post_restore`` hook re-installs the guarded KS
wrapper before the tail replays, so the healed service continues the
exact guarded history.

Every noteworthy transition — breaker trips, degraded decisions,
self-heals, checkpoint retries, halts — lands in a structured
:class:`IncidentLog`, dumped atomically as JSONL for the
``esharing incidents`` inspection subcommand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.costs import FacilityCostFn
from ..core.streaming import PlacementService
from ..core.tripblock import TripBlock
from ..datasets.trips import TripRecord
from ..errors import (
    BlockApplyError,
    RuntimeHaltedError,
    SnapshotError,
    StateDriftError,
)
from ..geo.points import Point
from ..incentives.mechanism import IncentiveMechanism
from ..ioutil import ROW_KEEP, RowLog
from ..resilience.service import CheckpointingService
from .breakers import (
    CLOSED,
    BreakerConfig,
    CircuitBreaker,
    GuardedIncentives,
    GuardedKS2D,
)
from .overload import OverloadConfig, OverloadController
from .reorder import WatermarkBuffer
from .validation import DeadLetterSink, TripValidator, ValidationConfig

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "HALTED",
    "GuardConfig",
    "Incident",
    "IncidentLog",
    "DegradedDecision",
    "GuardedRuntime",
]

#: Aux breakers the overload ladder suspends on rung >= 1.
_LADDER_AUX = ("ks", "incentive")

#: Reason stamped on a ladder-deferred trip's fallback decision.
_DEFERRED_REASON = "overload ladder: nearest-station-only serving"

#: Runtime health states (plain strings: serialisable, greppable).
HEALTHY, DEGRADED, HALTED = "healthy", "degraded", "halted"

#: Breaker names, in the order they are created (seed offsets follow it).
_BREAKER_NAMES = ("planner", "ks", "incentive")


@dataclass(frozen=True)
class GuardConfig:
    """Policy knobs of a :class:`GuardedRuntime`.

    Attributes:
        validation: ingest-boundary invariants.
        lateness_s: watermark lateness bound of the reorder buffer.
        max_pending: admission-gate cap on buffered events (load
            shedding beyond it).
        checkpoint_attempts: tries per checkpoint write before the
            runtime halts.
        checkpoint_backoff_s: base sleep between checkpoint retries
            (doubles per attempt; tests inject a no-op sleeper).
        breaker: trip/backoff policy shared by the subsystem breakers
            (each breaker derives its own jitter seed from it, so
            co-located breakers never retry in lockstep).
        incident_log_max_bytes: on-disk size cap of ``incidents.jsonl``
            and ``deadletter.jsonl``; past it a file rotates to its
            ``.1`` sibling (atomic rename) before the next flush appends.
        block_size: trips per columnar block on the :meth:`serve` path
            (validator masks, watermark release and WAL group commit all
            amortise per block).  Any size takes the same route; ``1``
            serves a block of one trip at a time.
        overload: admission-control policy (token bucket, bounded
            ingest queue, priority shedder, degradation ladder) —
            ``None`` (the default) serves unthrottled, exactly the
            historical pipeline.

    The dead-letter sink and the incident log each keep the newest
    :data:`~repro.ioutil.ROW_KEEP` detail rows in memory; their counters
    stay exact.

    Raises:
        ValueError: on non-positive retry/rotation limits or block size.
    """

    validation: ValidationConfig = field(default_factory=ValidationConfig)
    lateness_s: float = 120.0
    max_pending: int = 10_000
    checkpoint_attempts: int = 4
    checkpoint_backoff_s: float = 0.05
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    incident_log_max_bytes: int = 1_000_000
    block_size: int = 256
    overload: Optional[OverloadConfig] = None

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.checkpoint_attempts <= 0:
            raise ValueError(
                f"checkpoint_attempts must be positive, got {self.checkpoint_attempts}"
            )
        if self.checkpoint_backoff_s < 0:
            raise ValueError(
                f"checkpoint_backoff_s must be >= 0, got {self.checkpoint_backoff_s}"
            )
        if self.incident_log_max_bytes <= 0:
            raise ValueError(
                f"incident_log_max_bytes must be positive, got "
                f"{self.incident_log_max_bytes}"
            )

    def breaker_for(self, name: str) -> BreakerConfig:
        """The per-subsystem breaker config (decorrelated jitter seed)."""
        return replace(self.breaker, seed=self.breaker.seed + _BREAKER_NAMES.index(name))


@dataclass(frozen=True)
class Incident:
    """One structured incident-log entry.

    ``seq`` is the ingest event counter at the time of the incident, so
    incidents line up against the offered stream, not wall clock.
    """

    seq: int
    kind: str
    detail: str


class IncidentLog(RowLog[Incident]):
    """Bounded structured log of runtime incidents.

    Counters are exact forever; detail rows rotate past ``keep``.  On
    disk it is append-only: :meth:`~repro.ioutil.RowLog.append_jsonl`
    appends the rows not yet flushed and rotates the file to its ``.1``
    sibling past a size cap, so history accumulates across flushes.
    """

    def __init__(self, keep: int = ROW_KEEP) -> None:
        super().__init__(keep)
        self.by_kind: Dict[str, int] = {}

    def add(self, seq: int, kind: str, detail: str) -> None:
        """Record one incident."""
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self._record(Incident(seq=seq, kind=kind, detail=detail))

    def _json(self, row: Incident) -> Dict[str, object]:
        return {"seq": row.seq, "kind": row.kind, "detail": row.detail}

    def to_text(self, limit: int = 20) -> str:
        """Human-readable summary, at most ``limit`` detail lines."""
        per_kind = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
        )
        lines = [f"{self.total} incident(s) ({per_kind or 'none'})"]
        for entry in self.rows[-limit:]:
            lines.append(f"  seq {entry.seq}: {entry.kind}: {entry.detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DegradedDecision:
    """A request answered by the nearest-station fallback.

    These responses are *not* journaled (the planner was unavailable, so
    they are outside the recoverable history); the runtime keeps them on
    this dedicated ledger instead, and mirrors each into the incident
    log.
    """

    order_id: int
    origin_station: int
    destination_station: int
    walking_m: float
    reason: str


class GuardedRuntime:
    """Supervised wrapper making the online tier degrade, not corrupt.

    Args:
        inner: the crash-safe service to supervise.  The runtime takes
            ownership: it re-points the planner's KS cache at a guarded
            wrapper and makes ``inner.checkpoint`` retry with backoff.
            An open service another runtime guarded before may be
            adopted: its guards are replaced, not stacked, and every
            guard-layer state (validator, buffer, breakers, overload
            control, dead letters, incidents) starts fresh, as after
            :meth:`recover`.
        config: guardrail policy.
        incentives: optional Tier-2 mechanism; it is wrapped behind the
            incentive breaker and driven once per *served* response.
            Note that incentive relocations mutate the fleet outside the
            journal, so attaching a mechanism trades bit-identical
            recoverability for Tier-2 coverage (exactly as the
            simulator does).
        facility_cost: opening-cost callable handed to self-heal
            recovery when the snapshot carries no declarative spec.
        sleep: sleeper used by checkpoint-retry backoff (tests inject a
            no-op; the serving path itself never sleeps).

    One breaker per guarded subsystem lives in :attr:`breakers`:
    ``planner``, ``ks`` and ``incentive``.
    """

    def __init__(
        self,
        inner: CheckpointingService,
        config: Optional[GuardConfig] = None,
        incentives: Optional[IncentiveMechanism] = None,
        facility_cost: Optional[FacilityCostFn] = None,
        sleep: Callable[[float], None] = time.sleep,
        _preinstalled_ks: Optional[GuardedKS2D] = None,
    ) -> None:
        self.config = config or GuardConfig()
        self.inner = inner
        self._facility_cost = facility_cost
        self._sleep = sleep
        self.incidents = IncidentLog()
        self.sink = DeadLetterSink()
        self.validator = TripValidator(self.config.validation, sink=self.sink)
        self.buffer = WatermarkBuffer(
            lateness_s=self.config.lateness_s,
            sink=self.sink,
            max_pending=self.config.max_pending,
        )
        self.breakers: Dict[str, CircuitBreaker] = {}
        for name in _BREAKER_NAMES:
            if _preinstalled_ks is not None and name == "ks":
                breaker = _preinstalled_ks.breaker
            else:
                breaker = CircuitBreaker(name, self.config.breaker_for(name))
            breaker.on_transition = self._on_breaker_transition
            self.breakers[name] = breaker
        self.guarded_ks: Optional[GuardedKS2D] = _preinstalled_ks
        self._install_guards(inner.service)
        self._wrap_checkpoint(inner)
        self.incentives: Optional[GuardedIncentives] = None
        if incentives is not None:
            self.incentives = GuardedIncentives(incentives, self.breakers["incentive"])
        self.overload: Optional[OverloadController] = None
        if self.config.overload is not None:
            self.overload = OverloadController(
                self.config.overload,
                sink=self.sink,
                incident=self._incident,
                breakers={name: self.breakers[name] for name in _LADDER_AUX},
            )
        self._halted = False
        self.halt_reason: Optional[str] = None
        self.degraded_decisions: List[DegradedDecision] = []
        self.deferred_decisions: List[DegradedDecision] = []
        self.served = 0
        self.duplicates = 0
        self.healed = 0

    # ------------------------------------------------------------------
    # wiring
    def _install_guards(self, service: PlacementService) -> None:
        """Point the planner's KS cache at the breaker-guarded wrapper.

        Used at construction and re-used as the ``post_restore`` hook of
        every self-heal, so a restored planner replays its journal tail
        through the same guarded stack (same breaker, same last-good
        fallback) the original run used.  A planner still guarded by an
        earlier runtime (an open service adopted for another epoch)
        gets this runtime's fresh guard around the bare cache: guards
        never nest, and the adopted service starts from exactly the
        guard state a recovery with an empty tail would give it.
        """
        planner = service.planner
        cache = planner._ks_cache
        if isinstance(cache, GuardedKS2D):
            if cache is self.guarded_ks:
                return  # installed by GuardedRuntime.recover's hook
            cache = cache.inner
        if self.guarded_ks is None:
            self.guarded_ks = GuardedKS2D(cache, self.breakers["ks"])
        else:
            self.guarded_ks.inner = cache
        planner._ks_cache = self.guarded_ks

    def _wrap_checkpoint(self, inner: CheckpointingService) -> None:
        """Make ``inner``'s checkpoints retry with backoff, halting when
        the attempts run out.  Replaces any runner an earlier runtime
        installed."""
        inner.checkpoint_runner = self._retry_checkpoint

    def _retry_checkpoint(self, write: Callable[[], Path]) -> Path:
        cfg = self.config
        last: Optional[Exception] = None
        for attempt in range(cfg.checkpoint_attempts):
            try:
                return write()
            except (OSError, SnapshotError) as exc:
                last = exc
                self._incident(
                    "checkpoint_retry",
                    f"attempt {attempt + 1}/{cfg.checkpoint_attempts}: {exc!r}",
                )
                if attempt + 1 < cfg.checkpoint_attempts:
                    self._sleep(cfg.checkpoint_backoff_s * (2 ** attempt))
        raise RuntimeHaltedError(
            f"checkpoint I/O failed {cfg.checkpoint_attempts} times: {last!r}"
        ) from last

    def _on_breaker_transition(
        self, name: str, old: str, new: str, calls: int
    ) -> None:
        self._incident("breaker", f"{name}: {old} -> {new} at call {calls}")

    def _incident(self, kind: str, detail: str) -> None:
        self.incidents.add(self.validator.offered, kind, detail)

    # ------------------------------------------------------------------
    # health
    @property
    def health(self) -> str:
        """``healthy`` / ``degraded`` / ``halted`` (the state machine)."""
        if self._halted:
            return HALTED
        if any(b.state != CLOSED for b in self.breakers.values()):
            return DEGRADED
        if self.overload is not None and self.overload.rung > 0:
            return DEGRADED
        return HEALTHY

    @property
    def halted(self) -> bool:
        return self._halted

    def _halt(self, reason: str) -> None:
        if not self._halted:
            self._halted = True
            self.halt_reason = reason
            self._incident("halt", reason)

    def _require_live(self) -> None:
        if self._halted:
            raise RuntimeHaltedError(
                f"guarded runtime is halted: {self.halt_reason}"
            )

    # ------------------------------------------------------------------
    # the pipeline
    def ingest(self, trip: TripRecord):
        """Offer one arrival to the guarded pipeline: a block of one.

        Returns the list of *outcomes* this arrival caused — possibly
        empty (validated away, or parked in the reorder buffer), or
        several (the watermark advanced and released buffered events).
        Each outcome is a :class:`ServiceResponse`, ``None`` (screened
        duplicate), or a :class:`DegradedDecision`.

        Raises:
            RuntimeHaltedError: the runtime is (or just became) halted.
        """
        return self.ingest_many([trip], block_size=1)

    def ingest_block(self, block: TripBlock):
        """Offer a whole columnar block to the guarded pipeline.

        The one route of the pipeline (:meth:`ingest` and :meth:`serve`
        both end here): the validator evaluates all rules as vectorized
        masks, the reorder buffer releases sorted runs as block slices,
        and the released run is applied through one group-commit journal
        write.  Responses, counters and journal bytes do not depend on
        the block size; within one block the validator's dead-letter
        rows are recorded before the buffer's.

        Raises:
            RuntimeHaltedError: the runtime is (or just became) halted.
        """
        self._require_live()
        offered_base = self.validator.offered
        mask = self.validator.admit_block(block)
        if bool(mask.all()):
            accepted = block
        else:
            accepted = block.take(np.flatnonzero(mask))
        if self.overload is None:
            return self._apply_block(self.buffer.push_block(accepted))
        if len(accepted) == len(block):
            seqs = offered_base + np.arange(len(block), dtype=np.int64)
        else:
            seqs = offered_base + np.flatnonzero(mask).astype(np.int64)
        granted, deferred = self.overload.offer(accepted, seqs)
        outcomes = self._apply_block(self.buffer.push_block(granted))
        outcomes.extend(self._defer(deferred))
        return outcomes

    def finish(self):
        """End of stream: drain the admission queue and reorder buffer.

        Raises:
            RuntimeHaltedError: the runtime is (or just became) halted.
        """
        self._require_live()
        outcomes: List = []
        if self.overload is not None:
            granted, deferred = self.overload.drain()
            if len(granted):
                outcomes.extend(self._apply_block(self.buffer.push_block(granted)))
            outcomes.extend(self._defer(deferred))
        outcomes.extend(self._apply_block(self.buffer.flush()))
        return outcomes

    def ingest_many(
        self, trips: Iterable[TripRecord], block_size: Optional[int] = None
    ):
        """Ingest a stream *without* the end-of-stream flush.

        Exactly :meth:`serve` minus :meth:`finish` — the fleet
        supervisor re-serves a shard's bucket chunk by chunk through
        this, so only the final generation drains the reorder buffer.

        Raises:
            ValueError: on a non-positive block size.
            RuntimeHaltedError: the runtime is (or just became) halted.
        """
        size = self.config.block_size if block_size is None else block_size
        if size <= 0:
            raise ValueError(f"block_size must be positive, got {size}")
        outcomes = []
        trips = trips if isinstance(trips, list) else list(trips)
        for lo in range(0, len(trips), size):
            chunk = trips[lo : lo + size]
            try:
                block = TripBlock.from_trips(chunk)
            except (TypeError, ValueError, OverflowError):
                outcomes.extend(self._ingest_screened(chunk))
            else:
                outcomes.extend(self.ingest_block(block))
        return outcomes

    def _ingest_screened(self, chunk: List[TripRecord]):
        """Ingest a chunk that :meth:`TripBlock.from_trips` refused.

        A per-row screen finds the rows a block cannot hold; the
        validator dead-letters each under its ``malformed`` rule at its
        own position in the offered stream, and the runs of good rows
        between them are ingested as blocks.
        """
        self._require_live()
        outcomes: List = []
        run: List[TripRecord] = []
        for trip in chunk:
            try:
                TripBlock.from_trips([trip])
            except (TypeError, ValueError, OverflowError) as exc:
                if run:
                    outcomes.extend(self.ingest_block(TripBlock.from_trips(run)))
                    run = []
                self.validator.reject_malformed(trip, f"{type(exc).__name__}: {exc}")
            else:
                run.append(trip)
        if run:
            outcomes.extend(self.ingest_block(TripBlock.from_trips(run)))
        return outcomes

    def serve(self, trips: Iterable[TripRecord], block_size: Optional[int] = None):
        """Convenience: ingest a whole stream, then :meth:`finish`.

        Args:
            trips: the arrival stream, in arrival order.
            block_size: trips per columnar block; defaults to
                ``config.block_size``.  Every size takes the same route
                and yields the same responses, state and journal bytes.
        """
        outcomes = self.ingest_many(trips, block_size=block_size)
        outcomes.extend(self.finish())
        return outcomes

    def _apply_block(self, block: TripBlock):
        """Route a released run of events into the planner tier.

        The run stays columnar: ``handle_block`` receives the block, or
        a slice of it, and journals and applies it from its columns.
        While the planner breaker is closed and no incentive mechanism
        is attached, the whole run is one ``handle_block`` group commit
        (one breaker call per trip on the event clock).  Otherwise the run is stepped one row per
        ``handle_block`` call: each trip asks the breaker, a refused one
        is answered by :meth:`_degraded`, and incentive offers (which
        mutate the fleet, so each pickup depends on the previous
        response) land between trips.
        """
        outcomes: List = []
        n = len(block)
        i = 0
        breaker = self.breakers["planner"]
        while i < n:
            stepping = self.incentives is not None or breaker.state != CLOSED
            if not breaker.admit():  # counts one event; refuses only while open
                row = block[i : i + 1].endpoints()[0]
                outcomes.append(self._degraded(row, "planner breaker open"))
                i += 1
                continue
            chunk = block[i : i + 1] if stepping else block[i:]
            i += len(chunk)
            try:
                responses = self.inner.handle_block(chunk)
            except RuntimeHaltedError as exc:  # checkpoint retries exhausted
                self._halt(str(exc))
                raise
            except OSError as exc:  # group commit itself failed
                self._halt(f"journal I/O failed: {exc!r}")
                raise RuntimeHaltedError(self.halt_reason) from exc
            except BlockApplyError as exc:
                # Event clock: the prefix's trips were admitted and
                # succeeded one by one.
                breaker.calls += exc.index
                self._tally(exc.outcomes, outcomes)
                cause = exc.cause
                if isinstance(cause, RuntimeHaltedError):
                    self._halt(str(cause))
                    raise cause
                if isinstance(cause, OSError):
                    self._halt(f"journal I/O failed: {cause!r}")
                    raise RuntimeHaltedError(self.halt_reason) from cause
                if exc.index > 0:
                    breaker.success()  # the prefix reset the failure streak
                breaker.failure()
                failing = int(chunk.order_id[exc.index])
                self._incident("planner_error", f"order {failing}: {cause!r}")
                outcomes.extend(self._self_heal_block(chunk, exc))
                continue
            breaker.calls += len(chunk) - 1
            breaker.success()
            self._tally(responses, outcomes)
            if self.incentives is not None:
                for response, (_, _, end) in zip(responses, chunk.endpoints()):
                    if response is not None and response.served:
                        self.incentives.offer_ride(
                            response.origin_station,
                            response.destination_station,
                            end,
                        )
        return outcomes

    def _tally(self, responses, outcomes: List) -> None:
        """Count applied responses (``None`` = screened duplicate)."""
        for response in responses:
            if response is None:
                self.duplicates += 1
            else:
                self.served += 1
            outcomes.append(response)

    def _self_heal_block(self, chunk: TripBlock, exc: BlockApplyError):
        """Rebuild the poisoned in-memory service from durable state.

        The poisoned service is discarded and rebuilt from snapshot +
        journal tail through the re-guarded planner — the same code path
        a process crash takes, minus the process death.  The whole chunk
        was journaled *before* the failure, so the recovery replay
        applies the failing trip and every journaled trip after it (the
        write-ahead contract: journaled means applied on recovery).  The
        replayed responses are matched back to the chunk's tail
        positions; duplicates screened before the commit stay ``None``;
        a trip the healed service has no response for (the failure hit
        before its journal record, which group commit makes impossible
        for fresh trips, but defensively) is served degraded.

        The breaker's event clock records a success only when a trip
        *after* the failing one went through the healed planner: a
        failure on the last trip of the chunk leaves the breaker as the
        failure left it, whatever the block size.
        """
        before = self.inner.applied_seq
        try:
            self.inner.close()
            healed = CheckpointingService.recover(
                self.inner.directory,
                facility_cost=self._facility_cost,
                checkpoint_every=self.inner.checkpoint_every,
                keep=self.inner.store.keep,
                durable=self.inner.store.durable,
                post_restore=self._install_guards,
            )
        except Exception as recovery_exc:  # noqa: BLE001 — recovery broke
            self._halt(f"self-heal failed: {recovery_exc!r} (after {exc.cause!r})")
            raise RuntimeHaltedError(self.halt_reason) from recovery_exc
        self._wrap_checkpoint(healed)
        self.inner = healed
        self.healed += 1
        self._incident(
            "self_heal",
            f"recovered through seq {healed.applied_seq} "
            f"(snapshot {healed.last_recovery.snapshot_seq}, "
            f"replayed {healed.last_recovery.replayed}, "
            f"read {healed.last_recovery.journal_bytes_read} journal bytes)",
        )
        gained = healed.applied_seq - before
        tail = list(healed.service.responses[-gained:]) if gained > 0 else []
        outcomes: List = []
        applied = 0
        next_tail = 0
        for offset, fresh in enumerate(exc.remaining_fresh):
            if not fresh:
                self.duplicates += 1
                outcomes.append(None)
            elif next_tail < len(tail):
                self.served += 1
                outcomes.append(tail[next_tail])
                next_tail += 1
                applied += 1
            else:
                k = exc.index + offset
                row = chunk[k : k + 1].endpoints()[0]
                outcomes.append(self._degraded(row, "self-heal lost the event"))
        if applied and len(exc.remaining_fresh) > 1:
            # Event clock: the failing trip's breaker call was already
            # counted; the trips after it went through the healed
            # service (replayed, or screened as duplicates).
            breaker = self.breakers["planner"]
            breaker.calls += len(exc.remaining_fresh) - 1
            breaker.success()
        return outcomes

    def _defer(self, deferred: TripBlock) -> List:
        """Answer the rows the overload controller deferred from the
        nearest-station fallback."""
        return [
            self._fallback(row, self.deferred_decisions, _DEFERRED_REASON)
            for row in deferred.endpoints()
        ]

    def _fallback(self, row: Tuple[int, Point, Point], ledger: List, reason: str):
        """Answer a row's ``(order_id, start, end)`` from the
        nearest-station fallback, planner untouched, and record the
        decision on ``ledger``.

        ``degraded_decisions`` records a broken planner (see
        :meth:`_degraded`); ``deferred_decisions`` records overload, the
        rung-2 "nearest_only" serving mode (the planner is fine, the
        queue is not).  Deferred rows get no per-row incident: the
        controller records the aggregate one, since per-row incidents
        would drown the log exactly when it matters most.
        """
        try:
            response = self.inner.service.degraded_assign(*row)
        except StateDriftError as exc:
            self._halt(f"nearest-station fallback impossible ({reason}): {exc}")
            raise RuntimeHaltedError(self.halt_reason) from exc
        decision = DegradedDecision(
            order_id=response.order_id,
            origin_station=response.origin_station,
            destination_station=response.destination_station,
            walking_m=response.walking_m,
            reason=reason,
        )
        ledger.append(decision)
        return decision

    def _degraded(self, row: Tuple[int, Point, Point], reason: str):
        """A broken-planner fallback, with its incident."""
        decision = self._fallback(row, self.degraded_decisions, reason)
        self._incident(
            "degraded_decision",
            f"order {decision.order_id} -> station "
            f"{decision.destination_station} ({reason})",
        )
        return decision

    # ------------------------------------------------------------------
    def flush_logs(self, directory: Union[str, Path], durable: bool = True) -> None:
        """Flush the dead-letter and incident JSONL logs.

        Both logs *append* the rows recorded since the last flush,
        rotating ``deadletter.jsonl`` / ``incidents.jsonl`` to their
        ``.1`` siblings past ``incident_log_max_bytes``, so a
        long-running shard's history survives epoch after epoch, and an
        epoch that recorded nothing writes and syncs nothing.
        """
        directory = Path(directory)
        for log, name in (
            (self.sink, "deadletter.jsonl"),
            (self.incidents, "incidents.jsonl"),
        ):
            log.append_jsonl(
                directory / name,
                durable=durable,
                max_bytes=self.config.incident_log_max_bytes,
            )

    def consistency_check(self) -> None:
        """Verify the guarded pipeline's end-to-end accounting.

        Raises:
            StateDriftError / RuntimeError: on drift in the inner
                service, the validator, the buffer, or the glue between
                them (every emitted event must be served, screened, or
                degraded — exactly once).
        """
        self.inner.consistency_check()
        self.validator.consistency_check()
        self.buffer.consistency_check()
        into_buffer = self.buffer.admitted + self.buffer.too_late + self.buffer.shed
        if self.overload is None:
            if self.validator.accepted != into_buffer:
                raise StateDriftError(
                    f"validator passed {self.validator.accepted} events but "
                    f"the buffer accounts for {into_buffer}"
                )
        else:
            self.overload.consistency_check()
            if self.validator.accepted != self.overload.offered:
                raise StateDriftError(
                    f"validator passed {self.validator.accepted} events but "
                    f"the overload controller was offered "
                    f"{self.overload.offered}"
                )
            if self.overload.admitted != into_buffer:
                raise StateDriftError(
                    f"controller admitted {self.overload.admitted} events "
                    f"but the buffer accounts for {into_buffer}"
                )
            if self.overload.deferred != len(self.deferred_decisions):
                raise StateDriftError(
                    f"controller deferred {self.overload.deferred} events "
                    f"but {len(self.deferred_decisions)} deferred decisions "
                    "were recorded"
                )
        outcomes = self.served + self.duplicates + len(self.degraded_decisions)
        if self.buffer.emitted != outcomes:
            raise StateDriftError(
                f"buffer emitted {self.buffer.emitted} events but "
                f"{outcomes} outcomes were recorded"
            )

    def close(self) -> None:
        """Release the inner service's journal handle."""
        self.inner.close()

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        config: Optional[GuardConfig] = None,
        facility_cost: Optional[FacilityCostFn] = None,
        checkpoint_every: int = 200,
        keep: int = 3,
        durable: bool = True,
        incentives: Optional[IncentiveMechanism] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "GuardedRuntime":
        """Rebuild a guarded runtime from a checkpoint directory.

        The KS guard is installed *before* the journal tail replays
        (via ``post_restore``), so the tail goes through the guarded
        stack.  Breaker counters restart closed — a process restart is
        exactly the "give the subsystem another chance" event — and the
        validator/buffer restart empty: at-least-once redelivery of the
        recent stream rebuilds their state, with already-served trips
        screened by order id as usual.
        """
        cfg = config or GuardConfig()
        ks_breaker = CircuitBreaker("ks", cfg.breaker_for("ks"))
        installed: List[GuardedKS2D] = []

        def hook(service: PlacementService) -> None:
            guard = GuardedKS2D(service.planner._ks_cache, ks_breaker)
            service.planner._ks_cache = guard
            installed.append(guard)

        inner = CheckpointingService.recover(
            directory,
            facility_cost=facility_cost,
            checkpoint_every=checkpoint_every,
            keep=keep,
            durable=durable,
            post_restore=hook,
        )
        return cls(
            inner,
            cfg,
            incentives=incentives,
            facility_cost=facility_cost,
            sleep=sleep,
            _preinstalled_ks=installed[0],
        )
