"""The crash-safe placement service: WAL + periodic snapshots + recovery.

:class:`CheckpointingService` wraps a
:class:`~repro.core.streaming.PlacementService` with the write-ahead
protocol::

    journal.append_block(block)  # durable first, one group commit
    for segment in block, cut after every N-th journal seq:
        service.handle_block(segment)   # then apply: the planner step
        at a cut: ledger.append(responses since the last one)  # one block
                  snapshot   # atomic, checksummed, rotated

The block's columns are the one row type: they are journaled and
applied without building a :class:`~repro.datasets.trips.TripRecord`.
A segment ends at a checkpoint boundary, so every snapshot sees the
exact generator and KS-window state a per-row run has there.
Records are converted only at the edges — ``handle_trip(record)`` and
:meth:`CheckpointingService.serve` columnarise on the way in, and the
journal's replay decodes records on the way out.

The snapshot holds only the state Algorithm 2 continues from (station
set, cost scale, KS window, RNG, fleet), so it is O(stations + bikes)
however long the run.  The response history goes to the append-only
:class:`~repro.resilience.ledger.ResponseLedger` beside the journal,
one record per checkpoint segment holding its responses as columns.
Each snapshot also links to the journal record it is current through
(:meth:`~repro.resilience.journal.TripJournal.link`), so the journal
tail is read from there, not from the start of the file.
After any crash, ``recover(directory)`` = *latest good snapshot* +
*ledger prefix* + *journal tail replay* reproduces the exact in-memory
state — station set, fleet batteries, RNG bit stream, response list —
the uninterrupted run would have had.  Duplicate deliveries (an
at-least-once upstream queue redelivering a trip) are screened by order
id before they reach the journal, so replay never double-applies; the
screen is rebuilt from the ledger's order-id columns.

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
from ..core.tripblock import TripBlock
from ..datasets.trips import TripRecord
from ..errors import BlockApplyError, SnapshotError, StateDriftError
from .journal import JOURNAL_NAME, TripJournal
from .ledger import LEDGER_NAME, ResponseLedger
from .snapshot import SnapshotStore

__all__ = [
    "CheckpointingService",
    "RecoveryInfo",
    "constant_cost_spec",
    "facility_cost_from_spec",
    "logical_state",
    "JOURNAL_NAME",
]

def logical_state(service: PlacementService) -> Dict[str, Any]:
    """``service``'s checkpoint state plus its response history.

    Parity checks compare this.  The checkpoint state leaves the history
    out, so ``responses`` is added back: a recovered service must match
    on every response ever served, not just on the state it continues
    from.
    """
    state = service.state_dict()
    state["responses"] = list(service.responses)
    return state


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
        journal_bytes_read: journal bytes read and verified, from the
            snapshot's journal link (byte 0 without one) to the end of
            the last intact record.
    """

    snapshot_seq: int
    replayed: int
    snapshot_path: Optional[Path]
    journal_bytes_read: int = 0


class CheckpointingService:
    """Crash-safe wrapper around a :class:`PlacementService`.

    Construction adopts a *fresh* checkpoint directory and immediately
    writes the genesis snapshot (so recovery works even if the process
    dies before the first periodic checkpoint — the "empty journal"
    case).  The genesis snapshot has no history to log, so no ledger
    file exists until the first checkpoint after a served trip.  An
    already-populated directory (snapshots or a ledger) is refused:
    resuming existing state must go through :meth:`recover`, otherwise
    two diverging histories could share one journal.

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

    A trip whose order id was already served is screened out, not
    served twice (at-least-once upstream delivery).

    Raises:
        ValueError: on a non-positive ``checkpoint_every``, a service
            with prior responses, or a directory that already holds
            snapshots or a response ledger.
    """

    #: How a checkpoint write is attempted: ``runner(write)`` calls
    #: ``write()`` (perhaps several times) and returns the snapshot
    #: path.  The guarded runtime installs its retry-with-backoff here;
    #: a new runner replaces the old one, never wraps it.
    checkpoint_runner: Optional[Callable[[Callable[[], Path]], Path]] = None

    def __init__(
        self,
        service: PlacementService,
        directory: Union[str, Path],
        checkpoint_every: int = 200,
        keep: int = 3,
        durable: bool = True,
        facility_cost_spec: Optional[Dict[str, Any]] = None,
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
        self.facility_cost_spec = facility_cost_spec
        self.store = SnapshotStore(self.directory, keep=keep, durable=durable)
        if self.store.list() or (self.directory / LEDGER_NAME).exists():
            raise ValueError(
                f"{self.directory} already holds snapshots or a response "
                "ledger; use CheckpointingService.recover() to resume them"
            )
        self.journal = TripJournal(self.directory / JOURNAL_NAME, durable=durable)
        self.ledger = ResponseLedger(self.directory / LEDGER_NAME, durable=durable)
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
        """Serve one trip record under the write-ahead protocol: a block
        of one.

        Returns ``None`` for a screened duplicate (its original response
        is already in ``service.responses``); otherwise the service's
        response.  The trip is durably journaled *before* any state
        mutates, so a crash at any point is recoverable.  A failure
        while applying it is re-raised as its original exception.

        Raises:
            TypeError, ValueError: the record does not fit a
                :class:`~repro.core.tripblock.TripBlock` (see
                :meth:`~repro.core.tripblock.TripBlock.from_trips`).
        """
        try:
            return self.handle_block(TripBlock.from_trips([trip]))[0]
        except BlockApplyError as exc:
            cause = exc.cause
        raise cause

    def serve(self, trips: Iterable[TripRecord]) -> List[Optional[ServiceResponse]]:
        """Serve trip records in arrival order, one block of one each
        (one ``None`` per duplicate)."""
        return [self.handle_trip(t) for t in trips]

    def handle_block(self, block: TripBlock) -> List[Optional[ServiceResponse]]:
        """Serve a block under the *group-commit* write-ahead protocol.

        Responses, journal bytes, sequence numbers, dedup decisions and
        checkpoint cadence do not depend on how a stream is cut into
        blocks — but the block's fresh trips are journaled with a single
        fsynced write (:meth:`TripJournal.append_block`) before any of
        them is applied.  The dedup screen runs first on the order ids
        (it sees earlier trips of the same block, as a trip-by-trip run
        would), so a duplicate is never journaled twice.  The fresh rows
        (the whole block, or ``block.take(fresh)``) are journaled from
        their columns and applied from them, one
        :meth:`PlacementService.handle_block` per segment between
        checkpoint boundaries: the planner step reads only the order id
        and the two endpoints.

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
            ValueError: a fresh row holds a non-finite number the
                journal cannot encode; nothing was journaled or applied.
            BlockApplyError: applying one trip failed (including a
                checkpoint failure directly after it); see above.
        """
        order_ids = block.order_id.tolist()
        fresh_pos: List[int] = []
        pending: set = set()
        for i, order_id in enumerate(order_ids):
            if order_id in self._seen or order_id in pending:
                continue
            pending.add(order_id)
            fresh_pos.append(i)
        if len(fresh_pos) < len(order_ids):
            block = block.take(fresh_pos)
        seqs = self.journal.append_block(block)
        responses: List[Optional[ServiceResponse]] = [None] * len(order_ids)

        def error(j: int, cause: Exception) -> BlockApplyError:
            """The block's error for fresh row ``j`` raising ``cause``."""
            pos = fresh_pos[j]
            fresh_set = set(fresh_pos[j:])
            return BlockApplyError(
                index=pos,
                outcomes=responses[:pos],
                remaining_fresh=[p in fresh_set for p in range(pos, len(order_ids))],
                cause=cause,
            )

        fresh_ids = block.order_id.tolist()
        every = self.checkpoint_every
        lo = 0
        while lo < len(seqs):
            # A segment ends at the next checkpoint boundary, so each
            # snapshot sees the state the per-row run has there.
            hi = min(len(seqs), lo + 1 + (-seqs[lo]) % every)
            failed: Optional[BlockApplyError] = None
            try:
                served = self.service.handle_block(block[lo:hi])
            except BlockApplyError as exc:
                served, failed = exc.outcomes, exc
            for j, response in enumerate(served, start=lo):
                self._seen.add(fresh_ids[j])
                self._applied = seqs[j]
                responses[fresh_pos[j]] = response
            if failed is not None:
                raise error(lo + failed.index, failed.cause) from failed.cause
            if seqs[hi - 1] % every == 0:
                try:
                    self.checkpoint()
                except Exception as exc:  # noqa: BLE001 — classified by caller
                    raise error(hi - 1, exc) from exc
            lo = hi
        return responses

    def checkpoint(self) -> Path:
        """Log the responses since the last checkpoint, then snapshot.

        The ledger append (one write + fsync, one block per run of seqs
        between multiples of ``checkpoint_every``) lands before the
        snapshot, so every snapshot finds its history on disk and its seq
        ends a ledger record.  The snapshot holds
        the bounded service state and the applied seq, nothing that
        grows with trips served.  A retry after a failure rewrites the
        same ledger records.  The write goes through
        :attr:`checkpoint_runner` when one is set.

        Returns:
            The snapshot's path.
        """
        if self.checkpoint_runner is not None:
            return self.checkpoint_runner(self._write_checkpoint)
        return self._write_checkpoint()

    def _write_checkpoint(self) -> Path:
        self.ledger.append(
            self.service.responses[self.ledger.count : self._applied],
            segment=self.checkpoint_every,
        )
        payload = {
            "service": self.service.state_dict(),
            "applied": self._applied,
            "facility_cost_spec": self.facility_cost_spec,
        }
        link = self.journal.link(self._applied)
        if link is not None:
            payload["journal"] = link
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
        post_restore: Optional[Callable[[PlacementService], None]] = None,
    ) -> "CheckpointingService":
        """Rebuild the service from a checkpoint directory after a crash.

        Loads the newest *good* snapshot (torn files are skipped), reads
        the response history through its seq from the ledger (column by
        column, seeding the dedup screen from the order ids), then
        replays the journal tail beyond it, as one block — reproducing
        exactly the state and responses an uninterrupted run would hold.
        The journal is read in one pass from the snapshot's journal link
        (the whole file for a snapshot without one): the prefix before
        the link is trusted, and ``esharing scrub`` verifies it.  Recovery is read-only until new trips
        arrive (ledger records past the snapshot are cut off at the next
        checkpoint), so recovering twice from the same directory yields
        identical services.

        Args:
            directory: the checkpoint directory to resume.
            facility_cost: the planner's opening-cost function; optional
                when the snapshot carries a spec.
            checkpoint_every: periodic-snapshot cadence for the resumed
                service.
            keep: snapshot generations to retain going forward.
            durable: fsync policy going forward.
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
            LedgerCorruptError: when the ledger is missing, short of the
                snapshot's seq, damaged inside it, or holds a record
                that runs past it.
            JournalCorruptError: on mid-file journal damage, or when the
                record at the snapshot's journal link is not the one the
                snapshot was taken after.
            ValueError: when neither a spec nor ``facility_cost`` is
                available.
        """
        directory = Path(directory)
        store = SnapshotStore(directory, keep=keep, durable=durable)
        snapshot = store.load_latest()
        payload = snapshot.payload
        spec = payload.get("facility_cost_spec")
        if facility_cost is None:
            facility_cost = facility_cost_from_spec(spec)
        applied = int(payload["applied"])
        # One response per applied trip: their ids are the dedup screen.
        seen: set = set()
        ledger, responses = ResponseLedger.open(
            directory / LEDGER_NAME, applied, durable=durable, seen=seen
        )
        service = PlacementService.from_state(payload["service"], facility_cost)
        service.responses = responses
        if post_restore is not None:
            post_restore(service)

        wrapper = cls.__new__(cls)
        wrapper.service = service
        wrapper.directory = directory
        wrapper.checkpoint_every = checkpoint_every
        wrapper.facility_cost_spec = spec
        wrapper.store = store
        wrapper.journal = TripJournal(
            directory / JOURNAL_NAME, durable=durable, defer_scan=True
        )
        wrapper.ledger = ledger
        wrapper._applied = applied
        wrapper._seen = seen
        tail = wrapper.journal.replay(after_seq=applied, link=payload.get("journal"))
        if tail:
            # Already journaled (and already deduped at ingestion): apply
            # as one block, without re-appending.
            trips = [entry.trip for entry in tail]
            wrapper.service.serve(trips)
            wrapper._seen.update(t.order_id for t in trips)
            wrapper._applied = tail[-1].seq
        wrapper.last_recovery = RecoveryInfo(
            snapshot_seq=snapshot.seq,
            replayed=len(tail),
            snapshot_path=snapshot.path,
            journal_bytes_read=wrapper.journal.scan_bytes,
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
        """Release the journal and ledger file handles (safe to call
        repeatedly)."""
        self.journal.close()
        self.ledger.close()
