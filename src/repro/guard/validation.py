"""Semantic input validation at the ingest boundary.

A live dockless feed is never clean: coordinates wander outside the
city plane, timestamps jump backwards across device clock resets,
battery telemetry reports 470%, and a bike occasionally "teleports"
across town between two consecutive trips.  The CSV loader already
quarantines *syntactically* broken rows; :class:`TripValidator` is the
second line of defence — it checks rows that parsed fine but are
*semantically* impossible, before they can reach the planner and
corrupt online state (a NaN coordinate poisons every later
nearest-station query; a 50 km "trip" drains a battery model built for
a city).

Every rule keeps its own rejection counter and every rejected trip is
diverted — with the rule name and a human-readable reason — into a
:class:`DeadLetterSink`, the streaming sibling of the loader's
:class:`~repro.datasets.mobike.QuarantineReport`.  The sink can be
dumped atomically to a JSONL file for offline triage, so a rejected
event is never silently lost: ``accepted + dead-lettered == offered``
is an invariant the property tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.tripblock import TripBlock, datetime_to_us, us_to_datetime
from ..datasets.trips import TripRecord
from ..geo.points import BoundingBox, Point
from ..ioutil import ROW_KEEP, RowLog

__all__ = [
    "ValidationConfig",
    "RejectedTrip",
    "DeadLetterSink",
    "TripValidator",
]


@dataclass(frozen=True)
class ValidationConfig:
    """Semantic invariants enforced at the ingest boundary.

    Attributes:
        bounds: the city plane; both trip endpoints must fall inside
            (use the demand grid's box with a margin).  ``None`` skips
            the bounds rule.
        max_backwards_s: how far a trip's ``start_time`` may precede the
            latest one already accepted before it counts as a clock
            fault rather than benign jitter.  The watermark buffer
            downstream tolerates *bounded* disorder; this rule rejects
            the unbounded kind (a device clock reset to last year).
        max_trip_m: longest plausible straight-line trip (a length
            that overflows to inf fails this rule).  Non-finite inputs
            never reach it: the always-on ``finite`` rule rejects a
            NaN/inf coordinate and a present NaN/inf ``geodesic_m``
            first.
        max_bike_speed_mps: fastest a bike may travel between the end
            of its previous trip and the start of the next one (the
            teleport rule).  ``0`` (the default) disables the rule:
            feeds whose rebalancing moves are invisible — including the
            synthetic workloads, which place each trip independently —
            would reject legitimate trips, so the rule is opt-in for
            feeds that report every movement.  Exact redeliveries of
            the previous trip (same order id) are exempt; the duplicate
            screen downstream owns those.  The rule is judged inside
            :meth:`TripValidator.admit_block` like every other rule.
        battery_range: valid closed range for the optional per-trip
            battery reading; readings outside it (the 470% case) are
            rejected, absent readings pass.

    Raises:
        ValueError: on non-positive limits or an inverted battery range.
    """

    bounds: Optional[BoundingBox] = None
    max_backwards_s: float = 300.0
    max_trip_m: float = 50_000.0
    max_bike_speed_mps: float = 0.0
    battery_range: Tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.max_backwards_s < 0:
            raise ValueError(
                f"max_backwards_s must be non-negative, got {self.max_backwards_s}"
            )
        if self.max_trip_m <= 0:
            raise ValueError(f"max_trip_m must be positive, got {self.max_trip_m}")
        if self.max_bike_speed_mps < 0:
            raise ValueError(
                f"max_bike_speed_mps must be non-negative, got {self.max_bike_speed_mps}"
            )
        lo, hi = self.battery_range
        if not lo <= hi:
            raise ValueError(f"battery_range is inverted: {self.battery_range}")


@dataclass(frozen=True)
class RejectedTrip:
    """One dead-lettered event: the trip, which rule fired, and why.

    ``seq`` is the 0-based position in the offered stream, so a triage
    run can line rejections back up against the upstream feed.
    """

    seq: int
    rule: str
    reason: str
    order_id: int
    start_time: str


class DeadLetterSink(RowLog[RejectedTrip]):
    """Collects rejected events instead of dropping them on the floor.

    The streaming counterpart of the CSV loader's
    :class:`~repro.datasets.mobike.QuarantineReport`: bounded memory
    (the full :class:`RejectedTrip` detail is kept for the most recent
    ``keep`` rejections, counters are exact forever) and an append-only,
    size-capped JSONL log (:meth:`~repro.ioutil.RowLog.append_jsonl`)
    for offline inspection.
    """

    def __init__(self, keep: int = ROW_KEEP) -> None:
        super().__init__(keep)
        self.by_rule: Dict[str, int] = {}

    def __bool__(self) -> bool:
        return self.total > 0

    def add(self, rejected: RejectedTrip) -> None:
        """Record one rejection (detail rows rotate past ``keep``)."""
        self.by_rule[rejected.rule] = self.by_rule.get(rejected.rule, 0) + 1
        self._record(rejected)

    def _json(self, row: RejectedTrip) -> Dict[str, object]:
        return {
            "seq": row.seq,
            "rule": row.rule,
            "reason": row.reason,
            "order_id": row.order_id,
            "start_time": row.start_time,
        }

    def to_text(self, limit: int = 20) -> str:
        """Human-readable summary, at most ``limit`` detail lines."""
        per_rule = ", ".join(
            f"{rule}={count}" for rule, count in sorted(self.by_rule.items())
        )
        lines = [f"{self.total} event(s) dead-lettered ({per_rule or 'none'})"]
        for entry in self.rows[-limit:]:
            lines.append(
                f"  seq {entry.seq} order {entry.order_id}: "
                f"{entry.rule}: {entry.reason}"
            )
        return "\n".join(lines)


class TripValidator:
    """Stateful semantic validator for a live trip stream.

    Rules run in a fixed order and the *first* failure names the
    rejection (one rejection per trip, so per-rule counters sum to the
    rejected total).  The validator is stateful — the monotonicity rule
    tracks the latest accepted timestamp, the teleport rule the last
    known position and time of each bike — and deterministic: the same
    stream always yields the same accept/reject sequence, which is what
    lets the guarded runtime's recovery path re-derive identical
    decisions by re-feeding the stream.

    Args:
        config: the invariants to enforce.
        sink: where rejections go; a fresh private sink when omitted.
    """

    #: Rule names in evaluation order (also the counter keys; a rule's
    #: index is its code in :meth:`admit_block`).
    RULES = (
        "malformed",
        "finite",
        "bounds",
        "clock",
        "distance",
        "battery",
        "teleport",
    )

    def __init__(
        self,
        config: Optional[ValidationConfig] = None,
        sink: Optional[DeadLetterSink] = None,
    ) -> None:
        self.config = config or ValidationConfig()
        self.sink = sink if sink is not None else DeadLetterSink()
        self.offered = 0
        self.accepted = 0
        self.counters: Dict[str, int] = {rule: 0 for rule in self.RULES}
        self._latest: Optional[datetime] = None
        self._bike_last: Dict[int, Tuple[int, datetime, float, float]] = {}

    # ------------------------------------------------------------------
    def admit(self, trip: TripRecord) -> bool:
        """Validate one event: a block of one (see :meth:`admit_block`)."""
        return bool(self.admit_block(TripBlock.from_trips([trip]))[0])

    def admit_block(self, block: TripBlock) -> np.ndarray:
        """Validate a block of arrivals; returns the per-trip accept mask.

        The one implementation of the rules (:meth:`admit` is a block of
        one).  Decisions, counters, dead-letter rows (rule, reason, seq)
        and the carried state do not depend on how the stream is cut into
        blocks.  Every rule is a vectorized mask over the block's columns,
        and the first failing rule in :attr:`RULES` order names the
        rejection.

        The two stateful rules judge a trip against the trips *accepted*
        before it: the clock rule against the latest accepted start, the
        teleport rule against the same bike's previous accepted trip.
        With the teleport rule off, one prefix maximum settles the clock
        rule: a trip failing only the clock rule starts before the
        running maximum, so rejecting it leaves the maximum unchanged.
        With it on, a rejected hop changes which trip the bike's next hop
        is measured from, so the rows that pass every stateless rule are
        judged in one arrival-order pass that carries the clock and the
        per-bike table (linear in the block).

        Rows whose trip length lands within a few ulps of its limit are
        re-judged with ``math.hypot`` (``np.hypot`` is not bitwise
        interchangeable with it; see ``core/replay.py``); hops are
        measured with ``math.hypot`` directly.

        Accepted trips advance the clock (``_latest``) and, while the
        teleport rule is on (its only reader), each bike's last known
        position (``_bike_last``); rejected trips leave the state
        untouched, so a garbage event cannot poison the judgement of the
        next one.
        """
        cfg = self.config
        n = len(block)
        if n == 0:
            return np.zeros(0, dtype=bool)

        sx, sy = block.start_x, block.start_y
        ex, ey = block.end_x, block.end_y
        S = block.start_us
        finite_ok = (
            np.isfinite(sx) & np.isfinite(sy) & np.isfinite(ex) & np.isfinite(ey)
            & (np.isfinite(block.geodesic_m) | ~block.has_geodesic)
        )
        if cfg.bounds is not None:
            b = cfg.bounds
            bounds_ok = (
                (b.min_x <= sx) & (sx <= b.max_x)
                & (b.min_y <= sy) & (sy <= b.max_y)
                & (b.min_x <= ex) & (ex <= b.max_x)
                & (b.min_y <= ey) & (ey <= b.max_y)
            )
        else:
            bounds_ok = np.ones(n, dtype=bool)
        dist_fail = _exceeds(sx - ex, sy - ey, np.full(n, float(cfg.max_trip_m)))
        lo, hi = cfg.battery_range
        bat = block.battery
        bat_fail = block.has_battery & ~(
            np.isfinite(bat) & (lo <= bat) & (bat <= hi)
        )

        latest_us = None if self._latest is None else datetime_to_us(self._latest)
        ok = finite_ok & bounds_ok & ~dist_fail & ~bat_fail
        hops: Dict[int, Tuple[float, float]] = {}
        mask = ok
        if cfg.max_bike_speed_mps > 0:
            mask = self._judge_in_order(block, ok, latest_us, hops)
        back_us = _behind_latest(S, mask, latest_us)
        clock_fail = back_us / 1e6 > cfg.max_backwards_s
        mask = mask & ~clock_fail
        codes = np.select(
            [~finite_ok, ~bounds_ok, clock_fail, dist_fail, bat_fail, mask],
            [1, 2, 3, 4, 5, 0],
            6,  # failed nothing stateless, yet rejected: the teleport rule
        )

        base = self.offered
        self.offered += n
        n_accept = int(np.count_nonzero(mask))
        self.accepted += n_accept
        if n_accept:
            new_latest = int(S[mask].max())
            if latest_us is None or new_latest > latest_us:
                self._latest = us_to_datetime(new_latest)

        for i in np.flatnonzero(~mask).tolist():
            rule = self.RULES[codes[i]]
            self.counters[rule] += 1
            self.sink.add(
                RejectedTrip(
                    seq=base + i,
                    rule=rule,
                    reason=self._reason(block, i, rule, back_us[i], hops.get(i)),
                    order_id=int(block.order_id[i]),
                    start_time=us_to_datetime(S[i]).isoformat(),
                )
            )
        return mask

    def _judge_in_order(
        self,
        block: TripBlock,
        ok: np.ndarray,
        latest_us: Optional[int],
        hops: Dict[int, Tuple[float, float]],
    ) -> np.ndarray:
        """Accept mask of the ``ok`` rows under the clock and teleport
        rules, judged in arrival order; advances ``_bike_last`` and
        records each teleport rejection's ``(hop_m, gap_s)`` in ``hops``."""
        cfg = self.config
        speed, back_limit = cfg.max_bike_speed_mps, cfg.max_backwards_s
        seen: Dict[int, tuple] = {}  # bike -> (order, start µs, end x, end y)
        accepted: List[int] = []
        for i, bike, order, s_us, sx, sy, ex, ey in zip(
            np.flatnonzero(ok).tolist(),
            block.bike_id[ok].tolist(),
            block.order_id[ok].tolist(),
            block.start_us[ok].tolist(),
            block.start_x[ok].tolist(),
            block.start_y[ok].tolist(),
            block.end_x[ok].tolist(),
            block.end_y[ok].tolist(),
        ):
            if latest_us is not None and (latest_us - s_us) / 1e6 > back_limit:
                continue
            last = seen.get(bike)
            if last is None and bike in self._bike_last:
                order0, moment, x0, y0 = self._bike_last[bike]
                last = seen[bike] = (order0, datetime_to_us(moment), x0, y0)
            if last is not None and last[0] != order:  # redelivery: dedup's job
                gap_s = (s_us - last[1]) / 1e6
                hop_m = math.hypot(sx - last[2], sy - last[3])
                if hop_m > max(gap_s, 0.0) * speed:
                    hops[i] = (hop_m, gap_s)
                    continue
            accepted.append(i)
            if latest_us is None or s_us > latest_us:
                latest_us = s_us
            seen[bike] = (order, s_us, ex, ey)
        for bike, (order, s_us, x, y) in seen.items():
            self._bike_last[bike] = (order, us_to_datetime(s_us), x, y)
        mask = np.zeros(len(block), dtype=bool)
        mask[accepted] = True
        return mask

    def _reason(
        self,
        block: TripBlock,
        i: int,
        rule: str,
        back_us: int,
        hop: Optional[Tuple[float, float]],
    ) -> str:
        """The human-readable reason ``rule`` rejected block row ``i``."""
        cfg = self.config
        sx, sy = float(block.start_x[i]), float(block.start_y[i])
        ex, ey = float(block.end_x[i]), float(block.end_y[i])
        if rule == "finite":
            coords = (sx, sy, ex, ey)
            if all(math.isfinite(c) for c in coords):
                return f"non-finite geodesic_m {float(block.geodesic_m[i])!r}"
            shown = ", ".join(f"{c:.1f}" for c in coords)
            return f"non-finite coordinate in ({shown})"
        if rule == "bounds":
            if not cfg.bounds.contains(Point(sx, sy)):
                label, px, py = "start", sx, sy
            else:
                label, px, py = "end", ex, ey
            return f"{label} ({px:.1f}, {py:.1f}) outside the city plane"
        if rule == "clock":
            return (
                f"start_time {back_us / 1e6:.0f}s behind the stream "
                f"(limit {cfg.max_backwards_s:.0f}s)"
            )
        if rule == "distance":
            d = math.hypot(sx - ex, sy - ey)
            return f"trip length {d:.0f} m exceeds {cfg.max_trip_m:.0f} m"
        if rule == "battery":
            lo, hi = cfg.battery_range
            return f"battery {float(block.battery[i])!r} outside [{lo}, {hi}]"
        hop_m, gap_s = hop
        return (
            f"bike {int(block.bike_id[i])} moved {hop_m:.0f} m in "
            f"{max(gap_s, 0.0):.0f}s"
        )

    def reject_malformed(self, trip: TripRecord, reason: str) -> None:
        """Dead-letter one row a :class:`TripBlock` cannot hold.

        The ``malformed`` rule runs before every other one: a row whose
        fields do not even form typed columns (a string coordinate, a
        float or out-of-range id, a timezone-aware timestamp) is offered
        and rejected here, with its raw order id, and never reaches the
        semantic rules.  Validator state is untouched.
        """
        seq = self.offered
        self.offered += 1
        self.counters["malformed"] += 1
        moment = trip.start_time
        self.sink.add(
            RejectedTrip(
                seq=seq,
                rule="malformed",
                reason=reason,
                order_id=trip.order_id,
                start_time=(
                    moment.isoformat() if isinstance(moment, datetime) else repr(moment)
                ),
            )
        )

    # ------------------------------------------------------------------
    @property
    def rejected(self) -> int:
        """Events dead-lettered by this validator so far."""
        return self.offered - self.accepted

    def consistency_check(self) -> None:
        """Accounting invariant: counters sum to the rejected total.

        Raises:
            RuntimeError: when a rejection was lost or double-counted.
        """
        total = sum(self.counters.values())
        if total != self.rejected or self.accepted + total != self.offered:
            raise RuntimeError(
                f"validator accounting drift: offered={self.offered} "
                f"accepted={self.accepted} rule counts={total}"
            )


_INT64_MIN = np.iinfo(np.int64).min


def _exceeds(dx: np.ndarray, dy: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Per row ``not hypot(dx, dy) <= limit`` (NaN lengths exceed),
    exactly as ``math.hypot`` judges it.

    ``np.hypot`` and ``math.hypot`` agree to ~1 ulp, so only rows within
    a few ulps of their limit can flip; those are re-judged scalar.
    """
    d = np.hypot(dx, dy)
    fail = ~(d <= limit)
    near = np.isfinite(d) & (np.abs(d - limit) <= 4.0 * np.spacing(limit))
    for i in np.flatnonzero(near).tolist():
        fail[i] = not math.hypot(float(dx[i]), float(dy[i])) <= limit[i]
    return fail


def _behind_latest(
    S: np.ndarray, accepted: np.ndarray, latest_us: Optional[int]
) -> np.ndarray:
    """How far (µs) each row starts behind the latest start accepted
    before it, seeded with ``latest_us``; 0 where nothing precedes it."""
    n = len(S)
    prev = np.empty(n, dtype=np.int64)
    prev[0] = _INT64_MIN
    np.maximum.accumulate(np.where(accepted[:-1], S[:-1], _INT64_MIN), out=prev[1:])
    if latest_us is not None:
        np.maximum(prev, latest_us, out=prev)
    return np.subtract(
        prev, S, out=np.zeros(n, dtype=np.int64), where=prev != _INT64_MIN
    )
