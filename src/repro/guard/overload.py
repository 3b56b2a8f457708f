"""Admission control under overload: rate limit, shed, degrade, recover.

The guard layer validates and reorders arrivals but serves everything
it is given — past saturation the backlog (and its latency) just grows
without bound.  :class:`OverloadController` closes that gap with three
cooperating mechanisms, sitting between the validator and the
watermark buffer::

    validated block ──▶ token bucket ──▶ bounded FIFO queue ──▶ buffer
                          │ no tokens        │ overflow            ▲
                          ▼                  ▼                     │
                        queue          priority shedder      rung-2 drain
                                       (dead-lettered)      (nearest-only)

* **Token-bucket rate limiter** — admission capacity in trips/sec,
  measured on *event time* (the stream's own timestamps), so a replay
  of the same stream admits, queues and sheds at exactly the same
  positions regardless of wall clock.
* **Bounded ingest queue with backpressure** — admitted-but-ungranted
  rows wait in a columnar FIFO (a list of zero-copy
  :class:`~repro.core.tripblock.TripBlock` segments).  Crossing the
  high-water mark raises an explicit ``backpressure`` incident (the
  signal an upstream feed would subscribe to); falling under the
  low-water mark clears it.
* **Priority load-shedder** — when even the queue is full, the incoming
  rows are ranked by priority class (synthetic/low-value trips first,
  journal-bound real trips last) with a *seeded* tie-break inside each
  class, and the overflow is shed.  Every shed row is dead-lettered
  with rule ``overload_shed`` and a reason, so accounting stays exact;
  the tie-break RNG is consumed only on overflow, so runs that never
  overload draw nothing.
* **Degradation ladder** — three rungs driven by queue depth, with
  streak-based hysteresis so the ladder climbs and descends
  deliberately instead of flapping.  Only event-time state drives it,
  never wall clock, so journal content does not depend on host speed:

  ====  ================  ==============================================
  rung  name              behaviour
  ====  ================  ==============================================
  0     ``full``          everything runs
  1     ``defer_aux``     KS / incentive breakers suspended
                          (their existing fallbacks answer instead)
  2     ``nearest_only``  journaled serving stops; every queued and
                          incoming trip is answered from the
                          nearest-station fallback as a *deferred*
                          decision (own ledger, never journaled)
  ====  ================  ==============================================

**The zero-overload contract.**  While the queue is empty, the ladder
is on rung 0 and the bucket has tokens for the whole block, ``offer``
returns the *same block object* untouched and draws no randomness —
the controlled pipeline is bit-identical (journal bytes, checkpoints,
responses) to an uncontrolled one.  The gauntlet and the property
suite pin this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.tripblock import TripBlock, us_to_datetime
from ..errors import StateDriftError
from .breakers import CircuitBreaker
from .validation import DeadLetterSink, RejectedTrip

__all__ = [
    "RUNGS",
    "SHED_RULE",
    "LadderConfig",
    "OverloadConfig",
    "TokenBucket",
    "OverloadController",
]

#: Ladder rung names, by rung index.
RUNGS = ("full", "defer_aux", "nearest_only")

#: Dead-letter rule of rows removed by the priority shedder.
SHED_RULE = "overload_shed"

#: Breakers the ladder suspends on rung >= 1 (their fallbacks serve).
_AUX_BREAKERS = ("ks", "incentive")


@dataclass(frozen=True)
class LadderConfig:
    """Hysteresis policy of the degradation ladder.

    Queue depth alone drives the ladder: it is event-time state, so
    journal content never depends on host speed.

    Attributes:
        high_queue: queue-depth fraction (of ``queue_limit``) at or
            above which an observation counts toward escalation.
        low_queue: fraction at or below which an observation counts
            toward de-escalation.  Depths between the two reset both
            streaks — the dead band of the hysteresis.
        escalate_after: consecutive high observations before climbing
            one rung.
        deescalate_after: consecutive low observations before stepping
            down one rung (higher than ``escalate_after`` by default:
            degrade fast, recover deliberately).

    Raises:
        ValueError: on fractions outside ``[0, 1]``, inverted bands, or
            non-positive streak lengths.
    """

    high_queue: float = 0.6
    low_queue: float = 0.2
    escalate_after: int = 2
    deescalate_after: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_queue <= self.high_queue <= 1.0:
            raise ValueError(
                f"need 0 <= low_queue <= high_queue <= 1, got "
                f"{self.low_queue}/{self.high_queue}"
            )
        if self.escalate_after <= 0 or self.deescalate_after <= 0:
            raise ValueError("escalate_after and deescalate_after must be positive")


@dataclass(frozen=True)
class OverloadConfig:
    """Admission-control policy of one guarded runtime (one shard).

    Attributes:
        rate_per_s: sustained admission rate of the token bucket, in
            trips per *event-time* second.
        burst: bucket capacity — the largest instantaneous burst
            admitted without queueing (and the bucket's genesis fill).
        queue_limit: bounded-ingest-queue capacity in rows; beyond it
            the shedder runs.
        high_water / low_water: queue-depth fractions at which the
            explicit backpressure signal raises / clears.
        seed: RNG seed of the within-class shed tie-break — consumed
            only on overflow, so non-overloaded runs draw nothing.
        ladder: degradation-ladder hysteresis policy.

    Raises:
        ValueError: on non-positive rate/burst/queue or inverted water
            marks.

    The shedder always ranks synthetic / low-value trips (marked by
    ``user_id < 0``) before journal-bound real trips.
    """

    rate_per_s: float = 50.0
    burst: int = 512
    queue_limit: int = 2048
    high_water: float = 0.75
    low_water: float = 0.25
    seed: int = 0
    ladder: LadderConfig = field(default_factory=LadderConfig)

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {self.rate_per_s}")
        if self.burst <= 0 or self.queue_limit <= 0:
            raise ValueError("burst and queue_limit must be positive")
        if not 0.0 <= self.low_water <= self.high_water <= 1.0:
            raise ValueError(
                f"need 0 <= low_water <= high_water <= 1, got "
                f"{self.low_water}/{self.high_water}"
            )


class TokenBucket:
    """Token bucket on the stream's own event clock.

    Refill is driven by :meth:`advance` with the running maximum of the
    observed trip timestamps — never wall clock — so a replay of the
    same stream is granted tokens at exactly the same positions.
    """

    def __init__(self, rate_per_s: float, burst: int) -> None:
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_us: Optional[int] = None

    def advance(self, now_us: int) -> None:
        """Refill for event time reaching ``now_us`` (monotone)."""
        now_us = int(now_us)
        if self._last_us is None:
            self._last_us = now_us
            return
        if now_us > self._last_us:
            self.tokens = min(
                self.burst,
                self.tokens + (now_us - self._last_us) * self.rate_per_s / 1e6,
            )
            self._last_us = now_us

    def try_consume(self, n: int) -> bool:
        """Take exactly ``n`` tokens, or none at all."""
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def consume_up_to(self, want: int) -> int:
        """Take as many whole tokens as available, at most ``want``."""
        grant = int(min(int(want), math.floor(self.tokens)))
        if grant > 0:
            self.tokens -= grant
        return grant


class OverloadController:
    """Admission control + degradation ladder for one guarded runtime.

    Args:
        config: the policy.
        sink: dead-letter sink shed rows are recorded into (shared with
            the validator, so ``deadletter.jsonl`` holds both).
        incident: ``(kind, detail)`` callback into the runtime's
            incident log (``backpressure`` / ``overload_shed`` /
            ``ladder`` / ``overload_deferred`` kinds).
        breakers: the aux breakers (ks/incentive) the ladder
            suspends on rung >= 1; optional for standalone use.
    """

    def __init__(
        self,
        config: OverloadConfig,
        sink: DeadLetterSink,
        incident: Optional[Callable[[str, str], None]] = None,
        breakers: Optional[Dict[str, CircuitBreaker]] = None,
    ) -> None:
        self.config = config
        self.sink = sink
        self._incident = incident or (lambda kind, detail: None)
        self.breakers = breakers or {}
        self.bucket = TokenBucket(config.rate_per_s, config.burst)
        self._segments: List[TripBlock] = []
        self._depth = 0
        self._max_us: Optional[int] = None
        self._rng = np.random.default_rng(config.seed)
        self._high_streak = 0
        self._low_streak = 0
        self.rung = 0
        self.backpressure = False
        #: ``(event_us, old_rung, new_rung)`` ladder history.
        self.transitions: List[Tuple[int, int, int]] = []
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.deferred = 0
        self.backpressure_signals = 0
        self.shed_events = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Rows currently waiting in the bounded ingest queue."""
        return self._depth

    @property
    def rung_name(self) -> str:
        return RUNGS[self.rung]

    # ------------------------------------------------------------------
    def offer(
        self, block: TripBlock, seqs: np.ndarray
    ) -> Tuple[TripBlock, TripBlock]:
        """Offer validated rows; returns ``(granted, deferred)`` blocks.

        ``granted`` rows proceed into the watermark buffer (the
        journaled path); ``deferred`` rows (rung 2 only) must be
        answered from the nearest-station fallback.  ``seqs`` carries
        each row's offered-stream position for dead-letter provenance.

        Zero-overload fast path: with an empty queue, rung 0 and tokens
        for the whole block, the input object itself is returned —
        bit-identical downstream behaviour, no copies, no RNG.
        """
        n = len(block)
        self.offered += n
        if n:
            latest = int(block.start_us.max())
            if self._max_us is None or latest > self._max_us:
                self._max_us = latest
            self.bucket.advance(self._max_us)
        if not self._segments and self.rung == 0 and self.bucket.try_consume(n):
            self.admitted += n
            return block, TripBlock.empty()

        # -- overflow: rank incoming rows, shed the excess -------------
        excess = self._depth + n - self.config.queue_limit
        if excess > 0:
            block, seqs, n = self._shed_overflow(block, seqs, excess)
        if n:
            self._segments.append(block)
            self._depth += n
        # Ladder and backpressure observe the post-enqueue, pre-dequeue
        # depth: the pressure the queue actually reached this round.
        self._observe(self._depth)

        if self.rung >= 2:
            deferred = self._pop(self._depth)
            count = len(deferred)
            if count:
                self.deferred += count
                self._incident(
                    "overload_deferred",
                    f"{count} trip(s) answered nearest-station on rung "
                    f"{RUNGS[self.rung]!r}",
                )
            return TripBlock.empty(), deferred
        granted = self._pop(self.bucket.consume_up_to(self._depth))
        self.admitted += len(granted)
        return granted, TripBlock.empty()

    def drain(self) -> Tuple[TripBlock, TripBlock]:
        """End of stream: empty the queue, ignoring the token budget.

        On rungs 0–1 the backlog is granted into the journaled path (a
        drain is not an admission decision — the trips were already
        admitted into the queue); on rung 2 it is deferred like
        everything else.
        """
        if self._depth == 0:
            return TripBlock.empty(), TripBlock.empty()
        rest = self._pop(self._depth)
        if self.rung >= 2:
            self.deferred += len(rest)
            self._incident(
                "overload_deferred",
                f"{len(rest)} queued trip(s) deferred at end of stream "
                f"(rung {RUNGS[self.rung]!r})",
            )
            return TripBlock.empty(), rest
        self.admitted += len(rest)
        return rest, TripBlock.empty()

    # ------------------------------------------------------------------
    def _shed_overflow(
        self, block: TripBlock, seqs: np.ndarray, excess: int
    ) -> Tuple[TripBlock, np.ndarray, int]:
        """Shed ``excess`` incoming rows, lowest priority class first.

        Queued rows are never shed — they were admitted into the queue
        under an earlier decision; revoking it would make admission
        order-dependent.  The within-class tie-break is the only RNG
        draw in the controller, consumed exclusively here.
        """
        n = len(block)
        excess = min(excess, n)
        # Priority class per row: synthetic trips (class 0) shed first.
        classes = np.where(block.user_id < 0, 0, 1).astype(np.int8)
        keys = self._rng.random(n)
        order = np.lexsort((keys, classes))
        victims = np.sort(order[:excess])
        survivors = np.sort(order[excess:])
        limit = self.config.queue_limit
        for i in victims.tolist():
            self.sink.add(
                RejectedTrip(
                    seq=int(seqs[i]),
                    rule=SHED_RULE,
                    reason=(
                        f"ingest queue full ({limit} rows): shed priority "
                        f"class {int(classes[i])}"
                    ),
                    order_id=int(block.order_id[i]),
                    start_time=us_to_datetime(block.start_us[i]).isoformat(),
                )
            )
        self.shed += int(victims.size)
        self.shed_events += 1
        self._incident(
            SHED_RULE,
            f"shed {victims.size} of {n} incoming row(s) at queue "
            f"{self._depth}/{limit}",
        )
        return block.take(survivors), seqs[survivors], int(survivors.size)

    def _pop(self, k: int) -> TripBlock:
        """Dequeue the first ``k`` rows (FIFO, zero-copy where possible)."""
        if k <= 0:
            return TripBlock.empty()
        parts: List[TripBlock] = []
        need = k
        while need and self._segments:
            seg = self._segments[0]
            if len(seg) <= need:
                parts.append(seg)
                self._segments.pop(0)
                need -= len(seg)
            else:
                parts.append(seg[:need])
                self._segments[0] = seg[need:]
                need = 0
        taken = k - need
        self._depth -= taken
        if not parts:
            return TripBlock.empty()
        return parts[0] if len(parts) == 1 else TripBlock.concat(parts)

    # ------------------------------------------------------------------
    def _observe(self, depth: int) -> None:
        limit = self.config.queue_limit
        if not self.backpressure and depth >= self.config.high_water * limit:
            self.backpressure = True
            self.backpressure_signals += 1
            self._incident("backpressure", f"raised: queue {depth}/{limit}")
        elif self.backpressure and depth <= self.config.low_water * limit:
            self.backpressure = False
            self._incident("backpressure", f"cleared: queue {depth}/{limit}")

        lad = self.config.ladder
        high = depth >= lad.high_queue * limit
        low = depth <= lad.low_queue * limit
        if high:
            self._high_streak += 1
            self._low_streak = 0
        elif low:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0
        if self._high_streak >= lad.escalate_after and self.rung < len(RUNGS) - 1:
            self._set_rung(self.rung + 1, depth)
            self._high_streak = 0
        elif self._low_streak >= lad.deescalate_after and self.rung > 0:
            self._set_rung(self.rung - 1, depth)
            self._low_streak = 0

    def _set_rung(self, new: int, depth: int) -> None:
        old, self.rung = self.rung, new
        self.transitions.append((self._max_us or 0, old, new))
        self._incident(
            "ladder",
            f"{RUNGS[old]} -> {RUNGS[new]} (queue {depth}/"
            f"{self.config.queue_limit})",
        )
        if old == 0 and new >= 1:
            for name in _AUX_BREAKERS:
                breaker = self.breakers.get(name)
                if breaker is not None:
                    breaker.suspend()
        elif new == 0:
            for name in _AUX_BREAKERS:
                breaker = self.breakers.get(name)
                if breaker is not None:
                    breaker.resume()

    # ------------------------------------------------------------------
    def consistency_check(self) -> None:
        """Conservation: every offered row is accounted exactly once.

        Raises:
            StateDriftError: when
                ``offered != admitted + shed + deferred + depth``.
        """
        accounted = self.admitted + self.shed + self.deferred + self._depth
        if self.offered != accounted:
            raise StateDriftError(
                f"overload accounting drift: offered={self.offered} but "
                f"admitted={self.admitted} + shed={self.shed} + "
                f"deferred={self.deferred} + queued={self._depth} "
                f"= {accounted}"
            )
        if self._depth != sum(len(s) for s in self._segments):
            raise StateDriftError(
                f"queue depth counter {self._depth} disagrees with "
                f"segments ({sum(len(s) for s in self._segments)} rows)"
            )
