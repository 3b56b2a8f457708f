"""Watermark-based reordering of a late/out-of-order event stream.

Real feeds deliver events *approximately* in order: device batching and
retried uploads displace an event by seconds, not hours.  The chaos
harness models the benign end of this as adjacent swaps
(``ChaosConfig.p_swap``); :class:`WatermarkBuffer` generalises the
tolerance to *arbitrary bounded disorder* — the standard streaming
watermark construction:

* the **watermark** is ``max(event time seen) - lateness``: the point
  up to which the stream is declared complete;
* arriving events are held in ``(start_time, arrival_seq)`` order;
  whenever the watermark advances, every
  buffered event at or below it is released in timestamp order (the
  arrival sequence breaks timestamp ties, so the emission order is a
  deterministic function of the input — no wall clock anywhere);
* an event older than the watermark arrives *too late* to reorder —
  emitting it would un-sort the output — so it is dead-lettered, never
  silently dropped;
* the buffer is bounded: an arrival that finds ``max_pending`` events
  in flight is shed to the dead-letter sink, which keeps memory finite
  under a stalled watermark (an upstream that stops advancing time).
  Shedding latches: a full buffer admits nothing more, so its watermark
  cannot advance and nothing is released until :meth:`flush`.

For an already-sorted stream with ``lateness`` zero or more the buffer
is an identity (modulo buffering delay): every event is eventually
emitted exactly once and in input order — the bit-identity anchor the
guarded runtime's zero-fault parity test relies on.
"""

from __future__ import annotations

from datetime import timedelta
from typing import List, Optional

import numpy as np

from ..core.tripblock import TripBlock, datetime_to_us, us_to_datetime
from ..datasets.trips import TripRecord
from .validation import DeadLetterSink, RejectedTrip

__all__ = ["WatermarkBuffer"]


class WatermarkBuffer:
    """Bounded-lateness reordering buffer for :class:`TripRecord` streams.

    Args:
        lateness_s: how far behind the newest event time an arrival may
            be and still get reordered into place.  ``0`` means only
            exact in-order streams pass untouched (anything older than
            the max seen is late).
        sink: dead-letter sink for too-late and shed events; a private
            one when omitted.
        max_pending: cap on buffered (admitted but unreleased) events;
            arrivals beyond it are shed, and a full buffer stays full
            until :meth:`flush`.

    Raises:
        ValueError: on a negative lateness or non-positive capacity.
    """

    def __init__(
        self,
        lateness_s: float = 120.0,
        sink: Optional[DeadLetterSink] = None,
        max_pending: int = 10_000,
    ) -> None:
        if lateness_s < 0:
            raise ValueError(f"lateness_s must be non-negative, got {lateness_s}")
        if max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self.lateness = timedelta(seconds=lateness_s)
        self.sink = sink if sink is not None else DeadLetterSink()
        self.max_pending = max_pending
        # Pending (admitted, unreleased) events as one columnar block in
        # ``(start_time, arrival seq)`` order, with their arrival seqs.
        self._pending = TripBlock.empty()
        self._pending_seqs = np.empty(0, dtype=np.int64)
        self._max_seen = None
        self._seq = 0
        self.admitted = 0
        self.emitted = 0
        self.too_late = 0
        self.shed = 0

    def __len__(self) -> int:
        """Events currently held (admitted, not yet emitted)."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def push(self, trip: TripRecord) -> List[TripRecord]:
        """Offer one arrival: a block of one (see :meth:`push_block`)."""
        return self.push_block(TripBlock.from_trips([trip])).to_trips()

    def push_block(self, block: TripBlock) -> TripBlock:
        """Offer a block of arrivals; returns the released trips in
        ``(start_time, arrival)`` order.

        The one implementation of the buffer (:meth:`push` is a block of
        one).  The emission sequence, dead-letter rows, counters and
        pending set do not depend on how the stream is cut into blocks.
        An arrival older than the watermark is dead-lettered
        ``too_late``; an arrival that finds ``max_pending`` events held
        is dead-lettered ``shed``.  Neither releases anything.  Two
        routes:

        * **sorted streams** (the overwhelmingly common case: the loader
          sorts by ``start_time``): when the block is non-decreasing,
          nothing is late, nothing pending postdates it and the block
          fits in the free capacity, the release is a pending prefix
          plus a block prefix, each one ``searchsorted`` cut; on an
          empty buffer the released run is a zero-copy slice of the
          block;
        * **general case**: each arrival's watermark is a running
          maximum, so late arrivals fall out of one comparison, and each
          candidate's release step is a ``searchsorted`` over the
          per-arrival watermark.  The emission order is one ``lexsort``
          by ``(step, start_time, seq)``, which is exactly the per-push
          interleaving: within a step the pending set pops in
          ``(start_time, seq)`` order, and steps are ordered.

        Shedding latches: a full buffer admits nothing, so its watermark
        and pending set stay frozen until :meth:`flush`.  The general
        route counts the events held after each arrival; from the first
        arrival that leaves ``max_pending`` held, the rest of the block
        is judged against the frozen watermark, ``too_late`` behind it
        and ``shed`` otherwise.
        """
        n = len(block)
        if n == 0:
            return block
        S = block.start_us
        lat_us = self.lateness // timedelta(microseconds=1)
        max0_us = None if self._max_seen is None else datetime_to_us(self._max_seen)
        base = self._seq
        self._seq += n
        pending, P = self._pending, self._pending.start_us

        first_us = int(S[0])
        if (
            len(pending) + n <= self.max_pending
            and (n == 1 or bool(np.all(S[1:] >= S[:-1])))
            and (max0_us is None or first_us >= max0_us - lat_us)
            and (len(P) == 0 or int(P[-1]) <= first_us)
        ):
            # Every pending event predates the block, so all of them
            # emit before any block row: the release is (pending prefix
            # + block prefix) and the pending set stays sorted.
            self.admitted += n
            last_max = int(S[-1]) if max0_us is None else max(max0_us, int(S[-1]))
            watermark_us = last_max - lat_us
            pcut = int(np.searchsorted(P, watermark_us, side="right"))
            cut = int(np.searchsorted(S, watermark_us, side="right"))
            released = TripBlock.concat([pending[:pcut], block[:cut]])
            self._pending = TripBlock.concat([pending[pcut:], block[cut:]])
            self._pending_seqs = np.concatenate([
                self._pending_seqs[pcut:],
                np.arange(base + 1 + cut, base + 1 + n, dtype=np.int64),
            ])
            self._max_seen = us_to_datetime(last_max)
            self.emitted += len(released)
            return released

        # M[i]: max event time after arrival i.  A late arrival never
        # advances it (its time is below the watermark, hence below the
        # maximum), so one cumulative max serves both; ``before`` is the
        # watermark each arrival is judged against (on an empty history
        # the first arrival is judged against itself: never late).
        cum = np.maximum.accumulate(S)
        M = cum if max0_us is None else np.maximum(cum, max0_us)
        W = M - lat_us  # watermark after each arrival (non-decreasing)
        before = np.empty(n, dtype=np.int64)
        before[0] = first_us if max0_us is None else max0_us - lat_us
        before[1:] = W[:-1]
        late = S < before

        # Release step of every candidate: the first arrival whose
        # watermark reaches its timestamp (new arrivals no earlier than
        # their own); a step of ``live`` or more means still pending.
        # Only the pending prefix the last watermark reaches can release.
        rows = np.arange(n)
        cand = int(np.searchsorted(P, W[-1], side="right"))
        old_step = np.searchsorted(W, P[:cand], side="left")
        new_step = np.maximum(rows, np.searchsorted(W, S, side="left"))
        released_at = np.bincount(
            np.concatenate([old_step, new_step[~late]]), minlength=n + 1
        )[:n]
        held = len(P) + np.cumsum(~late) - np.cumsum(released_at)
        live = n
        if len(P) >= self.max_pending:
            live = 0
        elif held.max() >= self.max_pending:
            live = int(np.argmax(held >= self.max_pending)) + 1
        if live < n:  # the latch: the rest meets the frozen watermark
            before[live:] = before[live]
            late = S < before
        admit = ~late & (rows < live)
        self._dead_letter(block, base, late, before - S, ~late & ~admit)
        self.admitted += int(np.count_nonzero(admit))

        k = int(np.count_nonzero(old_step < live))  # a prefix of pending
        rel_rows = np.flatnonzero(admit & (new_step < live))
        seqs = self._pending_seqs
        order = np.lexsort((
            np.concatenate([seqs[:k], base + 1 + rel_rows]),
            np.concatenate([P[:k], S[rel_rows]]),
            np.concatenate([old_step[:k], new_step[rel_rows]]),
        ))
        released = TripBlock.concat([pending[:k], block.take(rel_rows)]).take(order)

        # Merge the still-held rows into the sorted pending rest: every
        # held seq postdates every pending one, so pending rows up to the
        # earliest held time keep their place and only the suffix sorts.
        keep_rows = np.flatnonzero(admit & (new_step >= live))
        lo = len(P)
        if len(keep_rows):
            lo = int(np.searchsorted(P, S[keep_rows].min(), side="right"))
        lo = max(lo, k)
        suffix_seqs = np.concatenate([seqs[lo:], base + 1 + keep_rows])
        order = np.lexsort((suffix_seqs, np.concatenate([P[lo:], S[keep_rows]])))
        suffix = TripBlock.concat([pending[lo:], block.take(keep_rows)])
        self._pending = TripBlock.concat([pending[k:lo], suffix.take(order)])
        self._pending_seqs = np.concatenate([seqs[k:lo], suffix_seqs[order]])
        if live:
            self._max_seen = us_to_datetime(M[live - 1])
        self.emitted += len(released)
        return released

    def _dead_letter(
        self,
        block: TripBlock,
        base: int,
        late: np.ndarray,
        behind_us: np.ndarray,
        shed: np.ndarray,
    ) -> None:
        """Dead-letter the ``late`` rows of ``block`` as ``too_late``
        (``behind_us`` behind the watermark) and the ``shed`` rows as
        ``shed``; row ``i`` arrived as seq ``base + i``."""
        self.too_late += int(np.count_nonzero(late))
        self.shed += int(np.count_nonzero(shed))
        lateness_s = self.lateness.total_seconds()
        for i in np.flatnonzero(late | shed).tolist():
            if late[i]:
                rule = "too_late"
                reason = (
                    f"arrived {behind_us[i] / 1e6:.0f}s behind the watermark "
                    f"(lateness {lateness_s:.0f}s)"
                )
            else:
                rule = "shed"
                reason = f"reorder buffer full ({self.max_pending} pending)"
            self.sink.add(
                RejectedTrip(
                    seq=base + i,
                    rule=rule,
                    reason=reason,
                    order_id=int(block.order_id[i]),
                    start_time=us_to_datetime(block.start_us[i]).isoformat(),
                )
            )

    def flush(self) -> TripBlock:
        """End of stream: emit everything still buffered, in
        ``(start_time, arrival)`` order, as one block."""
        out = self._pending
        self._pending = TripBlock.empty()
        self._pending_seqs = self._pending_seqs[:0]
        self.emitted += len(out)
        return out

    # ------------------------------------------------------------------
    def consistency_check(self) -> None:
        """Accounting invariant: every offered event is emitted, held,
        or dead-lettered — never two of those, never none.

        Raises:
            RuntimeError: on drift.
        """
        held = len(self)
        accounted = self.emitted + held + self.too_late + self.shed
        if accounted != self._seq or self.admitted != self.emitted + held:
            raise RuntimeError(
                f"reorder accounting drift: offered={self._seq} "
                f"emitted={self.emitted} held={held} "
                f"late={self.too_late} shed={self.shed}"
            )
