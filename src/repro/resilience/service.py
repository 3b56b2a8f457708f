"""The crash-safe placement service: WAL + periodic snapshots + recovery.

:class:`CheckpointingService` wraps a
:class:`~repro.core.streaming.PlacementService` with the write-ahead
protocol::

    journal.append_block(trips)  # durable first, one group commit
    service.handle_trip(trip)    # then apply, trip by trip
    every N trips: snapshot      # atomic, checksummed, rotated

so that after any crash, ``recover(directory)`` = *latest good snapshot*
+ *journal tail replay* reproduces the exact in-memory state — station
set, fleet batteries, RNG bit stream, response list — the uninterrupted
run would have had.  Duplicate deliveries (an at-least-once upstream
queue redelivering a trip) are screened by order id before they reach
the journal, so replay never double-applies.

The planner's opening-cost function is a callable and cannot be
serialised; snapshots carry an optional declarative *spec* for the
common cases (see :func:`constant_cost_spec`) and
:meth:`CheckpointingService.recover` accepts an explicit
``facility_cost`` for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ..core.costs import FacilityCostFn, constant_facility_cost
from ..core.streaming import PlacementService, ServiceResponse
from ..datasets.trips import TripRecord
from ..errors import BlockApplyError, SnapshotError, StateDriftError
from .journal import TripJournal
from .snapshot import SnapshotStore, WriteBytes

__all__ = [
    "CheckpointingService",
    "RecoveryInfo",
    "constant_cost_spec",
    "facility_cost_from_spec",
    "JOURNAL_NAME",
]

JOURNAL_NAME = "journal.jsonl"
"""Filename of the write-ahead trip journal inside a checkpoint directory."""


def constant_cost_spec(value: float) -> Dict[str, Any]:
    """Declarative snapshot spec for a constant opening cost.

    Raises:
        ValueError: on a negative cost.
    """
    if value < 0:
        raise ValueError(f"facility cost must be non-negative, got {value}")
    return {"kind": "constant", "value": float(value)}


def facility_cost_from_spec(spec: Optional[Dict[str, Any]]) -> FacilityCostFn:
    """Rebuild an opening-cost function from its snapshot spec.

    Raises:
        ValueError: when the spec is missing (the original cost was an
            opaque callable — pass ``facility_cost=`` to ``recover``) or
            names an unknown kind.
    """
    if spec is None:
        raise ValueError(
            "snapshot carries no facility-cost spec; the original run used "
            "an opaque callable — pass facility_cost= explicitly to recover()"
        )
    kind = spec.get("kind")
    if kind == "constant":
        return constant_facility_cost(float(spec["value"]))
    raise ValueError(f"unknown facility-cost spec kind {kind!r}")


@dataclass(frozen=True)
class RecoveryInfo:
    """What a :meth:`CheckpointingService.recover` call actually did.

    Attributes:
        snapshot_seq: journal sequence the restored snapshot was current
            through (0 = the genesis snapshot).
        replayed: journal-tail records re-applied on top of it.
        snapshot_path: file the state was restored from.
    """

    snapshot_seq: int
    replayed: int
    snapshot_path: Optional[Path]


class CheckpointingService:
    """Crash-safe wrapper around a :class:`PlacementService`.

    Construction adopts a *fresh* checkpoint directory and immediately
    writes the genesis snapshot (so recovery works even if the process
    dies before the first periodic checkpoint — the "empty journal"
    case).  An already-populated directory is refused: resuming existing
    state must go through :meth:`recover`, otherwise two diverging
    histories could share one journal.

    Args:
        service: the live service to protect.  Must not have served any
            trips yet (its response ledger seeds the journal accounting).
        directory: checkpoint directory (snapshots + journal).
        checkpoint_every: trips between periodic snapshots (>= 1).
        keep: snapshot generations to retain.
        durable: fsync journal appends and snapshot writes (tests disable
            for speed; crash-consistency within the process is kept).
        facility_cost_spec: declarative description of the planner's
            opening cost (see :func:`constant_cost_spec`) stored in every
            snapshot so :meth:`recover` can rebuild it without help.
        dedup: screen out trips whose order id was already served
            (at-least-once upstream delivery).
        write_bytes: snapshot writer override for fault injection.

    Raises:
        ValueError: on a non-positive ``checkpoint_every``, a service
            with prior responses, or a directory that already holds
            snapshots.
    """

    def __init__(
        self,
        service: PlacementService,
        directory: Union[str, Path],
        checkpoint_every: int = 200,
        keep: int = 3,
        durable: bool = True,
        facility_cost_spec: Optional[Dict[str, Any]] = None,
        dedup: bool = True,
        write_bytes: Optional[WriteBytes] = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if service.responses:
            raise ValueError(
                "service has already handled trips; wrap it before serving "
                "(or rebuild via CheckpointingService.recover)"
            )
        self.service = service
        self.directory = Path(directory)
        self.checkpoint_every = checkpoint_every
        self.dedup = dedup
        self.facility_cost_spec = facility_cost_spec
        self.store = SnapshotStore(
            self.directory, keep=keep, durable=durable, write_bytes=write_bytes
        )
        if self.store.list():
            raise ValueError(
                f"{self.directory} already holds snapshots; use "
                "CheckpointingService.recover() to resume them"
            )
        self.journal = TripJournal(self.directory / JOURNAL_NAME, durable=durable)
        self._applied = 0
        self._seen: set = set()
        self.last_recovery: Optional[RecoveryInfo] = None
        self.checkpoint()  # genesis: recovery works from trip zero

    # ------------------------------------------------------------------
    @property
    def applied_seq(self) -> int:
        """Journal sequence number of the last trip applied to the service."""
        return self._applied

    def handle_trip(self, trip: TripRecord) -> Optional[ServiceResponse]:
        """Serve one trip under the write-ahead protocol: a block of one.

        Returns ``None`` for a screened duplicate (its original response
        is already in ``service.responses``); otherwise the service's
        response.  The trip is durably journaled *before* any state
        mutates, so a crash at any point is recoverable.  A failure
        while applying it is re-raised as its original exception.
        """
        try:
            return self.handle_block([trip])[0]
        except BlockApplyError as exc:
            cause = exc.cause
        raise cause

    def serve(self, trips: Iterable[TripRecord]) -> List[Optional[ServiceResponse]]:
        """Serve a batch in arrival order (one ``None`` per duplicate)."""
        return [self.handle_trip(t) for t in trips]

    def handle_block(self, trips: List[TripRecord]) -> List[Optional[ServiceResponse]]:
        """Serve a block under the *group-commit* write-ahead protocol.

        Responses, journal bytes, sequence numbers, dedup decisions and
        checkpoint cadence do not depend on how a stream is cut into
        blocks — but the block's fresh trips are journaled with a single
        fsynced write (:meth:`TripJournal.append_block`) before any of
        them is applied.  The dedup screen runs first (it sees earlier
        trips of the same block, as a trip-by-trip run would), so a
        duplicate is never journaled twice.

        Group commit shifts one failure boundary: when applying trip
        ``i`` raises, trips ``> i`` of the block are *already journaled*
        (a block of one would not have journaled them yet), so a
        recovery replay applies them too.  That is surfaced as a
        :class:`~repro.errors.BlockApplyError` carrying the applied
        prefix's outcomes and the fresh/duplicate classification of the
        remainder — everything a supervisor needs to account for a heal.

        Raises:
            OSError: journal I/O failed; no trip of the block was
                applied (the WAL write precedes every apply).
            BlockApplyError: applying one trip failed (including a
                checkpoint failure directly after it); see above.
        """
        responses: List[Optional[ServiceResponse]] = [None] * len(trips)
        fresh: List[TripRecord] = []
        fresh_pos: List[int] = []
        pending: set = set()
        for i, trip in enumerate(trips):
            if self.dedup and (trip.order_id in self._seen or trip.order_id in pending):
                continue
            fresh.append(trip)
            fresh_pos.append(i)
            if self.dedup:
                pending.add(trip.order_id)
        seqs = self.journal.append_block(fresh)
        for j, trip in enumerate(fresh):
            pos = fresh_pos[j]
            try:
                response = self.service.handle_trip(trip)
                self._seen.add(trip.order_id)
                self._applied = seqs[j]
                responses[pos] = response
                if seqs[j] % self.checkpoint_every == 0:
                    self.checkpoint()
            except Exception as exc:  # noqa: BLE001 — classified by caller
                fresh_set = set(fresh_pos[j:])
                raise BlockApplyError(
                    index=pos,
                    outcomes=responses[:pos],
                    remaining_fresh=[
                        p in fresh_set for p in range(pos, len(trips))
                    ],
                    cause=exc,
                ) from exc
        return responses

    def checkpoint(self) -> Path:
        """Write a snapshot of the full service state now.

        Returns:
            The snapshot's path.
        """
        payload = {
            "service": self.service.state_dict(),
            "applied": self._applied,
            "seen_orders": sorted(self._seen),
            "facility_cost_spec": self.facility_cost_spec,
            "dedup": self.dedup,
        }
        return self.store.save(payload, self._applied)

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        facility_cost: Optional[FacilityCostFn] = None,
        checkpoint_every: int = 200,
        keep: int = 3,
        durable: bool = True,
        write_bytes: Optional[WriteBytes] = None,
        post_restore: Optional[Callable[[PlacementService], None]] = None,
    ) -> "CheckpointingService":
        """Rebuild the service from a checkpoint directory after a crash.

        Loads the newest *good* snapshot (torn files are skipped), then
        replays the journal tail beyond it — reproducing exactly the
        state an uninterrupted run would hold.  Recovery is read-only
        until new trips arrive, so recovering twice from the same
        directory yields identical services.

        Args:
            directory: the checkpoint directory to resume.
            facility_cost: the planner's opening-cost function; optional
                when the snapshot carries a spec.
            checkpoint_every: periodic-snapshot cadence for the resumed
                service.
            keep: snapshot generations to retain going forward.
            durable: fsync policy going forward.
            write_bytes: snapshot writer override for fault injection.
            post_restore: hook invoked with the restored
                :class:`PlacementService` *before* the journal tail is
                replayed.  The guarded runtime uses it to re-install its
                subsystem wrappers (e.g. the breaker-guarded KS test) so
                the tail replays through exactly the stack the original
                run used — without it, a run that degraded mid-stream
                would replay its tail through the unguarded subsystems
                and diverge.

        Raises:
            SnapshotError: when no usable snapshot exists.
            SnapshotVersionError: on a format-version mismatch.
            JournalCorruptError: on mid-file journal damage.
            ValueError: when neither a spec nor ``facility_cost`` is
                available.
        """
        directory = Path(directory)
        store = SnapshotStore(
            directory, keep=keep, durable=durable, write_bytes=write_bytes
        )
        snapshot = store.load_latest()
        payload = snapshot.payload
        spec = payload.get("facility_cost_spec")
        if facility_cost is None:
            facility_cost = facility_cost_from_spec(spec)
        service = PlacementService.from_state(payload["service"], facility_cost)
        if post_restore is not None:
            post_restore(service)

        wrapper = cls.__new__(cls)
        wrapper.service = service
        wrapper.directory = directory
        wrapper.checkpoint_every = checkpoint_every
        wrapper.dedup = bool(payload.get("dedup", True))
        wrapper.facility_cost_spec = spec
        wrapper.store = store
        wrapper.journal = TripJournal(directory / JOURNAL_NAME, durable=durable)
        wrapper._applied = int(payload["applied"])
        wrapper._seen = set(payload.get("seen_orders", []))
        tail = wrapper.journal.replay(after_seq=wrapper._applied)
        for entry in tail:
            # Already journaled (and already deduped at ingestion): apply
            # directly, without re-appending.
            wrapper.service.handle_trip(entry.trip)
            wrapper._seen.add(entry.trip.order_id)
            wrapper._applied = entry.seq
        wrapper.last_recovery = RecoveryInfo(
            snapshot_seq=snapshot.seq,
            replayed=len(tail),
            snapshot_path=snapshot.path,
        )
        return wrapper

    # ------------------------------------------------------------------
    def consistency_check(self) -> None:
        """Verify the wrapper's accounting on top of the service's own.

        Raises:
            StateDriftError: on planner/fleet drift or journal-accounting
                drift (every applied trip must have produced exactly one
                response).
        """
        self.service.consistency_check()
        if len(self.service.responses) != self._applied:
            raise StateDriftError(
                f"journal says {self._applied} trips applied but the service "
                f"holds {len(self.service.responses)} responses"
            )
        if self._applied >= self.journal.next_seq:
            raise StateDriftError(
                f"applied sequence {self._applied} is ahead of the journal "
                f"(next seq {self.journal.next_seq})"
            )

    def close(self) -> None:
        """Release the journal file handle (safe to call repeatedly)."""
        self.journal.close()
