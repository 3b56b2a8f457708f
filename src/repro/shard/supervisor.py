"""The fleet supervision tree: restart, quarantine, keep serving.

:class:`FleetSupervisor` wraps a :class:`~repro.shard.ShardedRuntime`
with the layer the roadmap's production fleet was missing: *who restarts
a dead shard, and what happens to input that kills it every time*.

Per epoch, every shard runs through a four-state health machine::

                 ┌────────────────────────────────────────────┐
                 │                (restart budget             │
                 ▼                  exhausted)                │
    healthy ─▶ degraded ─▶ quarantined ─▶ halted              │
       │   fault   │  block dead- │   ▲                       │
       │           │  lettered    │   └── recovery impossible ┘
       └── clean epoch: straight through, bit-identical to an
           unsupervised fleet

* **healthy** — the shard's first attempt is the fleet's own epoch
  body (:func:`~repro.shard.runtime._run_epoch_task`) on its resident
  service, so a fault-free supervised epoch is the same code as
  :meth:`ShardedRuntime.serve`: it recovers nothing, and its journal
  bytes, checkpoint state and outcomes are identical.
* **degraded** — the attempt failed (storage fault, poisoned
  planner).  The supervisor backs off (seeded exponential
  backoff with jitter — drawn only on failures, so clean runs consume
  no randomness), repairs the shard's journal tail, rebuilds the
  runtime with ``recover()`` and re-serves the *whole* bucket from the
  start: order-id dedup screens everything the journal already holds,
  which makes restart-from-start both simple and exactly-once.
* **quarantined** — a block that failed ``poison_retries`` consecutive
  generations is dead-lettered with full provenance (shard, epoch,
  block index, order ids, how many were already durable, the error)
  and skipped thereafter; the shard serves everything else.
* **halted** — the restart budget is exhausted or recovery itself
  failed.  The shard keeps its durable state for an operator; the rest
  of the fleet keeps serving.

Only a faulted shard recovers from disk.  Its resident service is
released before the restart, so no journal ever has two append
handles, and the healed shard is closed at epoch end, so the next epoch
recovers that one shard once.

After each epoch the supervisor persists its quarantine ledger
(``quarantine.jsonl``, rewritten only when the epoch quarantined a
block), its epoch counter (``supervisor_epoch.json``,
so a recovered supervisor numbers the next epoch on from the last one)
and fleet incident log (``logs/incidents.jsonl``) under the fleet root,
and — when ``scrub_after_epoch`` is on — runs the storage scrubber over
the whole tree so silent corruption is found while the previous good
generation still exists.  A shard whose files the scrub repaired no
longer matches its resident service's disk mark, so it recovers next
epoch; a scrub that raises is logged as an incident, since every shard
has already checkpointed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.trips import TripRecord
from ..guard.runtime import DEGRADED, HALTED, HEALTHY, GuardedRuntime, IncidentLog
from ..ioutil import atomic_write_text
from ..resilience.scrub import ScrubReport, repair_journal_tail, scrub_tree
from .runtime import (
    ShardReport,
    ShardSpec,
    ShardedRuntime,
    _compute_referrals,
    _run_epoch_task,
    _shard_dir,
    _shard_report,
    build_shard_runtime,
)

__all__ = [
    "QUARANTINED",
    "QUARANTINE_FILE",
    "SupervisorConfig",
    "QuarantinedBlock",
    "SupervisedShardReport",
    "SupervisedOutcome",
    "FleetSupervisor",
]

#: Fourth health state the supervisor adds to healthy/degraded/halted.
QUARANTINED = "quarantined"

QUARANTINE_FILE = "quarantine.jsonl"
"""Fleet-root ledger of dead-lettered poison blocks."""

EPOCH_FILE = "supervisor_epoch.json"
"""Fleet-root record of the last finished supervised epoch's number."""

_HEALTH_RANK = {HEALTHY: 0, DEGRADED: 1, QUARANTINED: 2, HALTED: 3}


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry budgets and backoff policy of the supervision tree.

    Attributes:
        max_restarts: supervised generations a shard may consume per
            epoch before it is halted for the epoch.
        poison_retries: consecutive failed generations a single block
            may cause before it is quarantined (the K of the
            poison-block contract).
        backoff_base_s: base sleep before restart ``n`` (doubles per
            restart, capped; tests inject a no-op sleeper).
        backoff_cap_s: ceiling of the exponential backoff.
        seed: seed of the backoff jitter — drawn only on failures, so a
            clean epoch consumes no randomness.
        quarantine_keep: ledger rows retained in memory and on disk.
        incident_keep: fleet incident rows retained in memory.
        scrub_after_epoch: run the storage scrubber over the fleet tree
            at the end of every epoch (post-checkpoint).

    Raises:
        ValueError: on non-positive budgets or negative backoff.
    """

    max_restarts: int = 6
    poison_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    seed: int = 0
    quarantine_keep: int = 10_000
    incident_keep: int = 10_000
    scrub_after_epoch: bool = True

    def __post_init__(self) -> None:
        if self.max_restarts <= 0:
            raise ValueError(f"max_restarts must be positive, got {self.max_restarts}")
        if self.poison_retries <= 0:
            raise ValueError(
                f"poison_retries must be positive, got {self.poison_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff must be >= 0")
        if self.quarantine_keep <= 0 or self.incident_keep <= 0:
            raise ValueError("quarantine_keep and incident_keep must be positive")


@dataclass(frozen=True)
class QuarantinedBlock:
    """Full provenance of one dead-lettered poison block.

    Attributes:
        shard_id: shard the block kept crashing.
        epoch: supervisor epoch it was quarantined in.
        block_index: 0-based chunk index within the shard's bucket.
        order_ids: order ids of the block's trips.
        attempts: failed generations the block caused before quarantine.
        journaled: how many of its order ids were already durable in the
            shard's journal when the epoch ended (an intact prefix of a
            torn group commit is journaled — and therefore applied on
            recovery — even though the block as a whole was
            quarantined); ``-1`` when the shard halted and the count
            could not be taken.
        error: repr of the last exception the block caused.
    """

    shard_id: int
    epoch: int
    block_index: int
    order_ids: Tuple[int, ...]
    attempts: int
    journaled: int
    error: str

    def to_json(self) -> Dict:
        """The ledger row persisted to ``quarantine.jsonl``."""
        return {
            "shard_id": self.shard_id,
            "epoch": self.epoch,
            "block_index": self.block_index,
            "order_ids": list(self.order_ids),
            "attempts": self.attempts,
            "journaled": self.journaled,
            "error": self.error,
        }

    @classmethod
    def from_json(cls, row: Dict) -> "QuarantinedBlock":
        return cls(
            shard_id=int(row["shard_id"]),
            epoch=int(row["epoch"]),
            block_index=int(row["block_index"]),
            order_ids=tuple(int(o) for o in row["order_ids"]),
            attempts=int(row["attempts"]),
            journaled=int(row["journaled"]),
            error=str(row["error"]),
        )


@dataclass(frozen=True)
class SupervisedShardReport:
    """One shard's supervised outcome for one epoch.

    ``report`` is the underlying epoch report (the clean attempt's, or
    the final successful generation's); ``None`` when the shard ended
    the epoch halted.
    """

    shard_id: int
    state: str
    restarts: int
    quarantined: Tuple[QuarantinedBlock, ...]
    report: Optional[ShardReport]
    error: Optional[str] = None


@dataclass(frozen=True)
class SupervisedOutcome:
    """Aggregate of one supervised epoch (shard-id order)."""

    reports: Tuple[SupervisedShardReport, ...]
    quarantined: Tuple[QuarantinedBlock, ...]
    restarts: int
    scrub: Optional[ScrubReport] = None

    @property
    def health(self) -> str:
        worst = HEALTHY
        for r in self.reports:
            if _HEALTH_RANK[r.state] > _HEALTH_RANK[worst]:
                worst = r.state
        return worst

    @property
    def served(self) -> int:
        return sum(r.report.served for r in self.reports if r.report)

    @property
    def deadlettered(self) -> int:
        return sum(r.report.deadlettered for r in self.reports if r.report)

    @property
    def shed(self) -> int:
        return sum(r.report.shed for r in self.reports if r.report)

    @property
    def deferred(self) -> int:
        return sum(r.report.deferred for r in self.reports if r.report)


def _safe_id(trip: TripRecord) -> int:
    try:
        return int(trip.order_id)
    except (TypeError, ValueError):
        return -1


class FleetSupervisor:
    """Self-healing supervision over a :class:`ShardedRuntime`.

    Args:
        fleet: the sharded runtime to supervise (fresh or recovered).
        config: retry budgets / backoff policy.
        sleep: backoff sleeper (tests inject a no-op).
        runtime_factory: shard-stack constructor used for supervised
            restarts; defaults to :func:`build_shard_runtime` (tests
            inject failing factories to exercise the halt path).
        pre_block_hook: test seam called as ``hook(shard_id, epoch,
            generation, block_index)`` before the clean attempt
            (``generation 0, block -1``) and before each supervised
            chunk; exceptions it raises are treated as shard faults.
    """

    def __init__(
        self,
        fleet: ShardedRuntime,
        config: Optional[SupervisorConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        runtime_factory: Callable[[ShardSpec, Path], GuardedRuntime] = build_shard_runtime,
        pre_block_hook: Optional[Callable[[int, int, int, int], None]] = None,
    ) -> None:
        self.fleet = fleet
        self.config = config or SupervisorConfig()
        self._sleep = sleep
        self._factory = runtime_factory
        self._hook = pre_block_hook
        self._rng = np.random.default_rng(self.config.seed)
        self.incidents = IncidentLog(keep=self.config.incident_keep)
        self.quarantine: List[QuarantinedBlock] = []
        self.health: Dict[int, str] = {
            sid: HEALTHY for sid in range(fleet.plan.n_shards)
        }
        self.epoch = 0
        self.total_restarts = 0
        self._load_quarantine()
        self._load_epoch()

    # ------------------------------------------------------------------
    # ledgers
    def _quarantine_path(self) -> Path:
        return self.fleet.directory / QUARANTINE_FILE

    def _load_quarantine(self) -> None:
        path = self._quarantine_path()
        if not path.exists():
            return
        rows: List[QuarantinedBlock] = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                rows.append(QuarantinedBlock.from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                continue  # torn line — the scrubber cleans these up
        self.quarantine = rows

    def _load_epoch(self) -> None:
        """Resume the epoch counter: the larger of the recorded counter
        and the quarantine ledger's newest epoch (the ledger alone when
        the record is missing or unreadable)."""
        try:
            record = json.loads((self.fleet.directory / EPOCH_FILE).read_text())
            recorded = int(record["epoch"])
        except (OSError, ValueError, KeyError, TypeError):
            recorded = 0
        self.epoch = max([recorded] + [r.epoch for r in self.quarantine])

    def _save_epoch(self) -> None:
        atomic_write_text(
            self.fleet.directory / EPOCH_FILE,
            json.dumps({"epoch": self.epoch}) + "\n",
            durable=self.fleet.durable,
        )

    def _save_quarantine(self) -> None:
        rows = self.quarantine[-self.config.quarantine_keep:]
        payload = "".join(json.dumps(r.to_json()) + "\n" for r in rows)
        atomic_write_text(
            self._quarantine_path(), payload, durable=self.fleet.durable
        )

    def _incident(self, kind: str, detail: str) -> None:
        self.incidents.add(self.epoch, kind, detail)

    def _flush_incidents(self) -> None:
        logs = self.fleet.directory / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.incidents.append_jsonl(
            logs / "incidents.jsonl", durable=self.fleet.durable
        )

    # ------------------------------------------------------------------
    def _backoff(self, restarts: int) -> None:
        base = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2 ** max(0, restarts - 1)),
        )
        if base > 0:
            # Jitter in [1, 2): restarting shards never sync up.  Drawn
            # only here, so fault-free epochs consume no randomness.
            self._sleep(base * (1.0 + float(self._rng.uniform())))
        else:
            self._sleep(0.0)

    # ------------------------------------------------------------------
    def serve(
        self,
        trips: Sequence[TripRecord],
        block_size: Optional[int] = None,
        checkpoint: bool = True,
    ) -> SupervisedOutcome:
        """Run one supervised epoch across the fleet.

        Mirrors :meth:`ShardedRuntime.serve` — same routing, same epoch
        body on the same resident services, same halo update — but no
        shard fault can fail the epoch: faulted shards are restarted
        under budget, poison blocks are quarantined, and only a shard
        that exhausts its budget ends the epoch halted (the rest keep
        their results).
        """
        self.epoch += 1
        cfg = self.config
        buckets = self.fleet.router.split_trips(trips)
        results: Dict[int, SupervisedShardReport] = {}
        epoch_quarantined: List[QuarantinedBlock] = []
        epoch_restarts = 0

        # -- first attempt: the fleet's own resident epoch --------------
        pending: List[Tuple[int, str]] = []
        for sid, bucket in enumerate(buckets):
            if not bucket:
                continue
            try:
                if self._hook is not None:
                    self._hook(sid, self.epoch, 0, -1)
                report = _run_epoch_task(
                    self.fleet, sid, bucket, block_size, checkpoint
                )
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                # The restart recovers from disk: the resident service
                # (still open when the hook raised) must let go first.
                self.fleet._release(sid)
                self._incident(
                    "shard_fault", f"shard {sid} first attempt: {exc!r}"
                )
                pending.append((sid, repr(exc)))
            else:
                results[sid] = self._clean_result(sid, report)

        # -- supervised mode for everything that failed -----------------
        for sid, first_error in pending:
            supervised, restarts = self._supervise_shard(
                sid, buckets[sid], block_size, checkpoint, first_error
            )
            results[sid] = supervised
            epoch_restarts += restarts
            epoch_quarantined.extend(supervised.quarantined)

        # -- merge: halo, health, ledgers -------------------------------
        ordered = tuple(results[sid] for sid in sorted(results))
        for supervised in ordered:
            self.health[supervised.shard_id] = supervised.state
        self.fleet._publish([s.report for s in ordered if s.report is not None])
        self.quarantine.extend(epoch_quarantined)
        self.total_restarts += epoch_restarts
        if epoch_quarantined:
            self._save_quarantine()
        self._save_epoch()
        self._flush_incidents()
        scrub = None
        if cfg.scrub_after_epoch:
            try:
                scrub = scrub_tree(
                    self.fleet.directory, repair=True, durable=self.fleet.durable
                )
                note = None if scrub.clean else (
                    f"{scrub.repaired} repaired, {scrub.refused} refused"
                )
            except Exception as exc:  # noqa: BLE001 — the shards checkpointed
                note = f"scrub failed: {exc!r}"
            if note is not None:
                self._incident("scrub", f"epoch {self.epoch}: {note}")
                self._flush_incidents()
        return SupervisedOutcome(
            reports=ordered,
            quarantined=tuple(epoch_quarantined),
            restarts=epoch_restarts,
            scrub=scrub,
        )

    # ------------------------------------------------------------------
    def _clean_result(self, sid: int, report: ShardReport) -> SupervisedShardReport:
        return SupervisedShardReport(
            shard_id=sid,
            state=report.health,
            restarts=0,
            quarantined=(),
            report=report,
        )

    def _supervise_shard(
        self,
        sid: int,
        bucket: List[TripRecord],
        block_size: Optional[int],
        checkpoint: bool,
        first_error: Optional[str],
    ) -> Tuple[SupervisedShardReport, int]:
        """Restart-with-recover loop for one faulted shard.

        Each generation: backoff → repair the journal tail → rebuild via
        ``recover()`` → re-serve the whole bucket chunk by chunk (dedup
        screens what the journal already holds), skipping quarantined
        chunks.  A chunk failing ``poison_retries`` generations is
        quarantined.  Success finishes the stream, checkpoints, flushes
        logs; budget exhaustion halts the shard for the epoch.
        """
        cfg = self.config
        spec = self.fleet.spec(sid)
        sdir = _shard_dir(self.fleet.directory, sid)
        size = block_size if block_size is not None else spec.guard_config().block_size
        chunks = [bucket[lo: lo + size] for lo in range(0, len(bucket), size)]
        quarantined_idx: set = set()
        attempts_by_block: Dict[int, int] = {}
        quarantine_info: Dict[int, Dict] = {}
        restarts = 0
        last_error = first_error
        runtime: Optional[GuardedRuntime] = None
        outcomes: List = []
        offered_before = 0
        while restarts < cfg.max_restarts:
            restarts += 1
            self._backoff(restarts)
            try:
                for finding in repair_journal_tail(
                    sdir / "journal.jsonl", durable=spec.durable
                ):
                    self._incident(
                        "journal_repair", f"shard {sid}: {finding.detail}"
                    )
                    if finding.action == "refused":
                        raise RuntimeError(
                            f"journal unrepairable: {finding.detail}"
                        )
                runtime = self._factory(spec, sdir)
            except Exception as exc:  # noqa: BLE001 — recovery itself failed
                last_error = repr(exc)
                self._incident(
                    "recovery_failed",
                    f"shard {sid} restart {restarts}: {exc!r}",
                )
                runtime = None
                continue
            outcomes = []
            offered_before = runtime.validator.offered
            failed_at: Optional[int] = None
            for idx, chunk in enumerate(chunks):
                if idx in quarantined_idx:
                    continue
                try:
                    if self._hook is not None:
                        self._hook(sid, self.epoch, restarts, idx)
                    outcomes.extend(runtime.ingest_many(chunk, block_size=size))
                except Exception as exc:  # noqa: BLE001 — supervision boundary
                    last_error = repr(exc)
                    failed_at = idx
                    count = attempts_by_block.get(idx, 0) + 1
                    attempts_by_block[idx] = count
                    self._incident(
                        "shard_fault",
                        f"shard {sid} restart {restarts} block {idx} "
                        f"(attempt {count}/{cfg.poison_retries}): {exc!r}",
                    )
                    if count >= cfg.poison_retries:
                        quarantined_idx.add(idx)
                        quarantine_info[idx] = {
                            "attempts": count,
                            "error": repr(exc),
                            "order_ids": tuple(_safe_id(t) for t in chunk),
                        }
                        self._incident(
                            "quarantine",
                            f"shard {sid} block {idx} quarantined after "
                            f"{count} attempt(s): {exc!r}",
                        )
                    break
            if failed_at is not None:
                self._close_quietly(runtime)
                runtime = None
                continue
            try:
                outcomes.extend(runtime.finish())
                runtime.consistency_check()
                if checkpoint and not runtime.halted:
                    runtime.inner.checkpoint()
                runtime.flush_logs(sdir / "logs", durable=spec.durable)
            except Exception as exc:  # noqa: BLE001 — end-of-epoch fault
                last_error = repr(exc)
                self._incident(
                    "shard_fault",
                    f"shard {sid} restart {restarts} epoch finish: {exc!r}",
                )
                self._close_quietly(runtime)
                runtime = None
                continue
            break
        if runtime is None:
            # Budget exhausted (or recovery terminally failed): halted.
            self._incident(
                "halt",
                f"shard {sid} halted after {restarts} restart(s): {last_error}",
            )
            rows = tuple(
                QuarantinedBlock(
                    shard_id=sid,
                    epoch=self.epoch,
                    block_index=idx,
                    order_ids=info["order_ids"],
                    attempts=info["attempts"],
                    journaled=-1,
                    error=info["error"],
                )
                for idx, info in sorted(quarantine_info.items())
            )
            return (
                SupervisedShardReport(
                    shard_id=sid,
                    state=HALTED,
                    restarts=restarts,
                    quarantined=rows,
                    report=None,
                    error=last_error,
                ),
                restarts,
            )
        report = self._final_report(
            sid, spec, bucket, runtime, outcomes, offered_before
        )
        seen = runtime.inner._seen
        rows = tuple(
            QuarantinedBlock(
                shard_id=sid,
                epoch=self.epoch,
                block_index=idx,
                order_ids=info["order_ids"],
                attempts=info["attempts"],
                journaled=sum(1 for oid in info["order_ids"] if oid in seen),
                error=info["error"],
            )
            for idx, info in sorted(quarantine_info.items())
        )
        runtime.close()
        state = QUARANTINED if rows else (
            DEGRADED if report.health == HEALTHY else report.health
        )
        return (
            SupervisedShardReport(
                shard_id=sid,
                state=state,
                restarts=restarts,
                quarantined=rows,
                report=report,
                error=last_error,
            ),
            restarts,
        )

    def _final_report(
        self,
        sid: int,
        spec: ShardSpec,
        bucket: List[TripRecord],
        runtime: GuardedRuntime,
        outcomes: Sequence,
        offered_before: int,
    ) -> ShardReport:
        """Epoch report from the final successful generation.

        Counters are the final generation's own (internally consistent:
        trips served in crashed generations re-arrive as duplicates).
        Referrals are computed from this generation's served responses
        only — trips that became duplicates across the restart lose
        their advisory referral, never their journaled decision.
        """
        referrals = _compute_referrals(
            spec, self.fleet.plan, bucket, outcomes, self.fleet._halo_for(sid)
        )
        return _shard_report(sid, runtime, offered_before, outcomes, referrals)

    @staticmethod
    def _close_quietly(runtime: Optional[GuardedRuntime]) -> None:
        if runtime is None:
            return
        try:
            runtime.close()
        except Exception:  # noqa: BLE001 — already failing
            pass

    # ------------------------------------------------------------------
    def scrub(self, repair: bool = True) -> ScrubReport:
        """Run the storage scrubber over the fleet tree on demand."""
        return scrub_tree(
            self.fleet.directory, repair=repair, durable=self.fleet.durable,
            record=repair,
        )

    def health_summary(self) -> str:
        """One line per shard — the operator/CI view."""
        lines = []
        for sid in sorted(self.health):
            blocks = sum(1 for q in self.quarantine if q.shard_id == sid)
            extra = f", {blocks} quarantined block(s)" if blocks else ""
            lines.append(f"shard {sid:03d}: {self.health[sid]}{extra}")
        return "\n".join(lines)

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        config: Optional[SupervisorConfig] = None,
        **kwargs,
    ) -> "FleetSupervisor":
        """Rebuild a supervised fleet from its root directory.

        Recovers the :class:`ShardedRuntime` from ``shardplan.json`` and
        reloads the quarantine ledger, so previously dead-lettered
        blocks stay dead-lettered across process restarts.
        """
        fleet = ShardedRuntime.recover(directory)
        return cls(fleet, config=config, **kwargs)
