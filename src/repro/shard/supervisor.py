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
  planner).  Once every shard's first attempt has run, the supervisor
  backs off (seeded exponential backoff with jitter — drawn only on
  failures, so clean runs consume no randomness), repairs the shard's
  journal tail and runs the same epoch body again, which recovers the
  shard from disk and re-serves the *whole* bucket from the start:
  order-id dedup screens everything the journal already holds, which
  makes restart-from-start both simple and exactly-once.
* **quarantined** — a block that failed ``poison_retries`` restarts
  (a first-attempt fault counts against no block) is dead-lettered
  with full provenance (shard, epoch, block index, order ids, how many
  were already durable, the error) and skipped thereafter; the shard
  serves everything else.
* **halted** — the restart budget is exhausted or recovery itself
  failed.  The shard keeps its durable state for an operator; the rest
  of the fleet keeps serving.

Only a faulted shard recovers from disk, and only in the epoch it
faulted: a failed attempt closes its service, so no journal ever has
two append handles, and a healed shard that ended its epoch with its
checkpoint stays resident like any other.

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
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.trips import TripRecord
from ..guard.runtime import DEGRADED, HALTED, HEALTHY, GuardedRuntime, IncidentLog
from ..ioutil import ROW_KEEP, atomic_write_text
from ..resilience.scrub import ScrubReport, repair_journal_tail, scrub_tree
from .runtime import ShardReport, ShardedRuntime, _run_epoch_task, _shard_dir

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
        scrub_after_epoch: run the storage scrubber over the fleet tree
            at the end of every epoch (post-checkpoint).

    The quarantine ledger (in memory and on disk) and the fleet incident
    log keep the newest :data:`~repro.ioutil.ROW_KEEP` rows.

    Raises:
        ValueError: on non-positive budgets or negative backoff.
    """

    max_restarts: int = 6
    poison_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    seed: int = 0
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
        pre_block_hook: test seam called as ``hook(shard_id, epoch,
            generation, block_index)`` before each chunk of every
            generation (``0`` is the first attempt); exceptions it
            raises are treated as shard faults in that chunk.
    """

    def __init__(
        self,
        fleet: ShardedRuntime,
        config: Optional[SupervisorConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        pre_block_hook: Optional[Callable[[int, int, int, int], None]] = None,
    ) -> None:
        self.fleet = fleet
        self.config = config or SupervisorConfig()
        self._sleep = sleep
        self._hook = pre_block_hook
        self._rng = np.random.default_rng(self.config.seed)
        self.incidents = IncidentLog()
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
        rows = self.quarantine[-ROW_KEEP:]
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

        # -- first attempts, in shard order, before any restart -----------
        pending: List[Tuple[int, str]] = []
        for sid, bucket in enumerate(buckets):
            if not bucket:
                continue
            try:
                report = self._attempt(sid, bucket, block_size, checkpoint, 0, (), [])
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                self._incident(
                    "shard_fault", f"shard {sid} first attempt: {exc!r}"
                )
                pending.append((sid, repr(exc)))
            else:
                results[sid] = SupervisedShardReport(
                    shard_id=sid, state=report.health, restarts=0,
                    quarantined=(), report=report,
                )
        for sid, first_error in pending:
            results[sid] = self._restart(
                sid, buckets[sid], block_size, checkpoint, first_error
            )

        # -- merge: halo, health, ledgers -------------------------------
        ordered = tuple(results[sid] for sid in sorted(results))
        for supervised in ordered:
            self.health[supervised.shard_id] = supervised.state
        self.fleet._publish([s.report for s in ordered if s.report is not None])
        epoch_quarantined = tuple(q for s in ordered for q in s.quarantined)
        epoch_restarts = sum(s.restarts for s in ordered)
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
            quarantined=epoch_quarantined,
            restarts=epoch_restarts,
            scrub=scrub,
        )

    # ------------------------------------------------------------------
    def _attempt(
        self,
        sid: int,
        bucket: List[TripRecord],
        block_size: Optional[int],
        checkpoint: bool,
        generation: int,
        skip: Collection[int],
        reached: List,
    ) -> ShardReport:
        """One generation of a shard's epoch: the fleet's own epoch body,
        with the test hook before each chunk.  ``reached`` is left
        holding ``(runtime, chunk index)`` of the last step begun
        (``None`` for the epoch tail; empty while adopting the service).
        """

        def on_chunk(runtime: GuardedRuntime, index: Optional[int]) -> None:
            reached[:] = [(runtime, index)]
            if index is not None and self._hook is not None:
                self._hook(sid, self.epoch, generation, index)

        return _run_epoch_task(
            self.fleet, sid, bucket, block_size, checkpoint, skip, on_chunk
        )

    def _restart(
        self,
        sid: int,
        bucket: List[TripRecord],
        block_size: Optional[int],
        checkpoint: bool,
        last_error: str,
    ) -> SupervisedShardReport:
        """Restart-with-recover loop for one faulted shard.

        Each generation: backoff → repair the journal tail → the epoch
        body again, which recovers the shard from disk and re-serves the
        whole bucket chunk by chunk (dedup screens what the journal
        already holds), skipping quarantined chunks.  Where a generation
        failed classifies it: recovery, chunk ``k`` (which counts
        towards ``k``'s ``poison_retries``), or the epoch tail.  Budget
        exhaustion halts the shard for the epoch.
        """
        cfg = self.config
        journal = _shard_dir(self.fleet.directory, sid) / "journal.jsonl"
        size = self.fleet.guard.block_size if block_size is None else block_size
        failures: Dict[int, int] = {}
        held: Dict[int, Tuple[Tuple[int, ...], int, str]] = {}
        report: Optional[ShardReport] = None
        restarts = 0
        while report is None and restarts < cfg.max_restarts:
            restarts += 1
            self._backoff(restarts)
            reached: List = []
            try:
                for finding in repair_journal_tail(journal, durable=self.fleet.durable):
                    self._incident("journal_repair", f"shard {sid}: {finding.detail}")
                    if finding.action == "refused":
                        raise RuntimeError(f"journal unrepairable: {finding.detail}")
                report = self._attempt(
                    sid, bucket, block_size, checkpoint, restarts, held, reached
                )
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                last_error = repr(exc)
                if not reached:
                    self._incident(
                        "recovery_failed", f"shard {sid} restart {restarts}: {exc!r}"
                    )
                    continue
                index = reached[0][1]
                if index is None:
                    self._incident(
                        "shard_fault",
                        f"shard {sid} restart {restarts} epoch finish: {exc!r}",
                    )
                    continue
                count = failures[index] = failures.get(index, 0) + 1
                self._incident(
                    "shard_fault",
                    f"shard {sid} restart {restarts} block {index} "
                    f"(attempt {count}/{cfg.poison_retries}): {exc!r}",
                )
                if count >= cfg.poison_retries:
                    chunk = bucket[index * size : (index + 1) * size]
                    held[index] = (tuple(_safe_id(t) for t in chunk), count, repr(exc))
                    self._incident(
                        "quarantine",
                        f"shard {sid} block {index} quarantined after "
                        f"{count} attempt(s): {exc!r}",
                    )
        if report is None:
            # Budget exhausted (or recovery terminally failed): halted.
            self._incident(
                "halt",
                f"shard {sid} halted after {restarts} restart(s): {last_error}",
            )
            seen, state = None, HALTED
        else:
            # The final generation's runtime holds the applied order ids.
            seen = reached[0][0].inner._seen
            state = QUARANTINED if held else (
                DEGRADED if report.health == HEALTHY else report.health
            )
        rows = tuple(
            QuarantinedBlock(
                shard_id=sid,
                epoch=self.epoch,
                block_index=index,
                order_ids=ids,
                attempts=attempts,
                journaled=-1 if seen is None else sum(1 for o in ids if o in seen),
                error=error,
            )
            for index, (ids, attempts, error) in sorted(held.items())
        )
        return SupervisedShardReport(
            shard_id=sid, state=state, restarts=restarts, quarantined=rows,
            report=report, error=last_error,
        )

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
