"""Exception taxonomy for runtime state protection and crash recovery.

The long-running service tier (Fig. 3) needs failures it can *reason*
about: invariant violations between live views must surface as typed
errors even under ``python -O`` (a bare ``assert`` is stripped), and the
recovery path must distinguish a torn checkpoint file (skip to the
previous good one) from an incompatible format version (refuse loudly).
"""

from __future__ import annotations

__all__ = [
    "StateDriftError",
    "SnapshotError",
    "SnapshotCorruptError",
    "SnapshotVersionError",
    "JournalCorruptError",
    "LedgerCorruptError",
    "InjectedCrash",
    "WorkerCrashError",
    "BreakerOpenError",
    "RuntimeHaltedError",
    "InjectedSubsystemError",
    "BlockApplyError",
]


class StateDriftError(RuntimeError):
    """Two live views of the system state disagree.

    Raised by consistency checks (planner vs fleet vs retired-id
    bookkeeping) in place of ``assert`` so the guard survives
    ``python -O``.  Seeing this means in-memory state is corrupt; the
    safe reaction is to restore the latest checkpoint.
    """


class SnapshotError(RuntimeError):
    """Base class for checkpoint save/load failures."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file failed its checksum or could not be parsed.

    Torn / partially-written files land here; recovery skips them and
    falls back to the previous good snapshot.
    """


class SnapshotVersionError(SnapshotError):
    """A snapshot was written by an incompatible format version.

    Unlike corruption this is never silently skipped: loading must be
    refused so an operator can migrate the file deliberately.
    """


class JournalCorruptError(RuntimeError):
    """The trip journal is damaged somewhere other than its tail.

    A torn *final* record is the expected signature of a crash mid-append
    and is dropped silently; a bad checksum earlier in the file means the
    journal cannot be trusted and replay must stop.
    """


class LedgerCorruptError(RuntimeError):
    """The response ledger cannot back the snapshot being restored.

    Raised when the ledger is missing, shorter than the snapshot's
    sequence number, or damaged inside the records the snapshot needs.
    Recovery refuses rather than hand back a short response history.
    """


class InjectedCrash(RuntimeError):
    """A simulated crash raised by the chaos harness.

    Production code never raises this; tests and the fault-injection
    smoke job use it to cut a run short at a controlled point.
    """


class WorkerCrashError(RuntimeError):
    """A process-pool worker died without returning a result.

    Raised by :class:`repro.parallel.ParallelRunner` when a worker
    process exits abnormally (segfault, ``os._exit``, OOM kill) or a
    task exceeds its timeout.  Ordinary exceptions raised *inside* a
    task are re-raised as themselves; this error means the pool itself
    broke, so the fan-out must be treated as failed rather than silently
    hanging on futures that will never complete.
    """


class BreakerOpenError(RuntimeError):
    """A circuit breaker refused a call because the subsystem is open.

    Raised by :meth:`repro.guard.CircuitBreaker.call` when no fallback
    was configured; guarded wrappers that *do* carry a fallback absorb
    the open state and never surface this error.
    """


class RuntimeHaltedError(RuntimeError):
    """The guarded runtime gave up and refuses further events.

    Entered only when durability itself fails (checkpoint I/O retries
    exhausted, journal unusable): serving on would risk unrecoverable
    state, so the supervisor fails stopped rather than failing open.
    """


class InjectedSubsystemError(RuntimeError):
    """A simulated subsystem failure raised by the chaos harness.

    Production code never raises this; the fault injector wraps KS /
    incentive / forecast calls with it so tests can prove the circuit
    breakers open, fall back, and recover deterministically.
    """


class BlockApplyError(RuntimeError):
    """A group-committed block failed partway through its apply loop.

    Raised by :meth:`repro.resilience.CheckpointingService.handle_block`
    when applying trip ``index`` of the block raised ``cause``.  Every
    trip of the block was already durably journaled (group commit writes
    the WAL *before* any apply), so the supervisor can recover: the
    journal replay re-applies the failing trip and the rest of the block
    through a healed service.  The planner step it applies with,
    :meth:`repro.core.PlacementService.handle_block`, raises it too (its
    blocks hold no duplicates, so every ``remaining_fresh`` is ``True``).

    Attributes:
        index: 0-based position in the block where the apply failed.
        outcomes: per-position outcomes for positions ``< index``
            (``None`` for screened duplicates, otherwise the response).
        remaining_fresh: for positions ``index ..`` in order, ``True``
            when the position was journaled (fresh) and ``False`` when
            it was screened as a duplicate.  ``remaining_fresh[0]`` is
            always ``True`` — the failing trip was being applied.
        cause: the exception the apply raised.
    """

    def __init__(self, index, outcomes, remaining_fresh, cause) -> None:
        super().__init__(f"block apply failed at position {index}: {cause!r}")
        self.index = index
        self.outcomes = outcomes
        self.remaining_fresh = remaining_fresh
        self.cause = cause
