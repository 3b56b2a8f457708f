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

import json
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.tripblock import TripBlock, datetime_to_us, us_to_datetime
from ..datasets.trips import TripRecord
from ..geo.points import BoundingBox, Point
from ..ioutil import atomic_write_text

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
        max_trip_m: longest plausible straight-line trip; also the
            finiteness guard (NaN/inf distances fail this rule).
        max_bike_speed_mps: fastest a bike may travel between the end
            of its previous trip and the start of the next one (the
            teleport rule).  ``0`` (the default) disables the rule:
            feeds whose rebalancing moves are invisible — including the
            synthetic workloads, which place each trip independently —
            would reject legitimate trips, so the rule is opt-in for
            feeds that report every movement.  Exact redeliveries of
            the previous trip (same order id) are exempt; the duplicate
            screen downstream owns those.
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


class DeadLetterSink:
    """Collects rejected events instead of dropping them on the floor.

    The streaming counterpart of the CSV loader's
    :class:`~repro.datasets.mobike.QuarantineReport`: bounded memory
    (the full :class:`RejectedTrip` detail is kept for the most recent
    ``keep`` rejections, counters are exact forever) and an atomic JSONL
    dump for offline inspection.
    """

    def __init__(self, keep: int = 10_000) -> None:
        if keep <= 0:
            raise ValueError(f"keep must be positive, got {keep}")
        self.keep = keep
        self.rows: List[RejectedTrip] = []
        self.total = 0
        self.by_rule: Dict[str, int] = {}

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    def __iter__(self):
        return iter(self.rows)

    def add(self, rejected: RejectedTrip) -> None:
        """Record one rejection (detail rows rotate past ``keep``)."""
        self.total += 1
        self.by_rule[rejected.rule] = self.by_rule.get(rejected.rule, 0) + 1
        self.rows.append(rejected)
        if len(self.rows) > self.keep:
            del self.rows[: len(self.rows) - self.keep]

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

    def write_jsonl(self, path: Union[str, Path], durable: bool = True) -> Path:
        """Dump the retained detail rows atomically as JSON lines."""
        lines = [
            json.dumps(
                {
                    "seq": r.seq,
                    "rule": r.rule,
                    "reason": r.reason,
                    "order_id": r.order_id,
                    "start_time": r.start_time,
                }
            )
            for r in self.rows
        ]
        return atomic_write_text(path, "\n".join(lines) + "\n", durable=durable)


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

    #: Rule names in evaluation order (also the counter keys).
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
    def _first_violation(self, trip: TripRecord) -> Optional[Tuple[str, str]]:
        cfg = self.config
        coords = (trip.start.x, trip.start.y, trip.end.x, trip.end.y)
        if not all(math.isfinite(c) for c in coords):
            shown = ", ".join(f"{float(c):.1f}" for c in coords)
            return "finite", f"non-finite coordinate in ({shown})"
        if cfg.bounds is not None:
            for label, point in (("start", trip.start), ("end", trip.end)):
                if not cfg.bounds.contains(point):
                    return (
                        "bounds",
                        f"{label} ({point.x:.1f}, {point.y:.1f}) outside the "
                        "city plane",
                    )
        if self._latest is not None:
            back = (self._latest - trip.start_time).total_seconds()
            if back > cfg.max_backwards_s:
                return (
                    "clock",
                    f"start_time {back:.0f}s behind the stream "
                    f"(limit {cfg.max_backwards_s:.0f}s)",
                )
        if not trip.distance <= cfg.max_trip_m:  # also catches NaN
            return (
                "distance",
                f"trip length {trip.distance:.0f} m exceeds {cfg.max_trip_m:.0f} m",
            )
        battery = getattr(trip, "battery", None)
        if battery is not None:
            lo, hi = cfg.battery_range
            if not (math.isfinite(battery) and lo <= battery <= hi):
                return (
                    "battery",
                    f"battery {battery!r} outside [{lo}, {hi}]",
                )
        if cfg.max_bike_speed_mps > 0:
            last = self._bike_last.get(trip.bike_id)
            if last is not None:
                last_order, t_prev, x_prev, y_prev = last
                gap_s = (trip.start_time - t_prev).total_seconds()
                hop_m = math.hypot(trip.start.x - x_prev, trip.start.y - y_prev)
                if (
                    trip.order_id != last_order  # redelivery: dedup's job
                    and hop_m > max(gap_s, 0.0) * cfg.max_bike_speed_mps
                ):
                    return (
                        "teleport",
                        f"bike {trip.bike_id} moved {hop_m:.0f} m in "
                        f"{max(gap_s, 0.0):.0f}s",
                    )
        return None

    def admit(self, trip: TripRecord) -> bool:
        """Validate one event; dead-letters and returns False on failure.

        Accepted trips advance the validator's clock and the bike's last
        known position; rejected trips leave the state untouched (a
        garbage event must not poison the invariants used to judge the
        next one).
        """
        seq = self.offered
        self.offered += 1
        violation = self._first_violation(trip)
        if violation is not None:
            rule, reason = violation
            self.counters[rule] += 1
            self.sink.add(
                RejectedTrip(
                    seq=seq,
                    rule=rule,
                    reason=reason,
                    order_id=trip.order_id,
                    start_time=trip.start_time.isoformat(),
                )
            )
            return False
        self.accepted += 1
        if self._latest is None or trip.start_time > self._latest:
            self._latest = trip.start_time
        self._bike_last[trip.bike_id] = (
            trip.order_id, trip.start_time, trip.end.x, trip.end.y,
        )
        return True

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
    def admit_block(self, block: TripBlock) -> np.ndarray:
        """Validate a whole block; returns the per-trip accept mask.

        Bit-identical to calling :meth:`admit` once per trip in order —
        same counters, same dead-letter rows (rule, reason string, seq),
        same ``_latest`` clock — but every rule is evaluated as one
        vectorized mask over the block's columns.  The first-violation
        attribution is reproduced by masking each rule with the
        negations of the rules before it.

        Two scalar escape hatches preserve exactness:

        * the **teleport** rule is inherently sequential per bike, so a
          config that enables it routes the whole block through the
          scalar :meth:`admit` loop;
        * rows whose vectorized trip length lands within a few ulps of
          ``max_trip_m`` are re-judged with the scalar ``math.hypot``
          (``np.hypot`` is not bitwise interchangeable with it — see
          ``core/replay.py``).

        The blocked path does not maintain the per-bike last-position
        table (``_bike_last``): with the teleport rule disabled — the
        only configuration that reaches this path — nothing reads it.
        """
        cfg = self.config
        n = len(block)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if cfg.max_bike_speed_mps > 0:
            return np.asarray([self.admit(t) for t in block.to_trips()], dtype=bool)

        sx, sy = block.start_x, block.start_y
        ex, ey = block.end_x, block.end_y
        finite_ok = (
            np.isfinite(sx) & np.isfinite(sy) & np.isfinite(ex) & np.isfinite(ey)
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

        dist = np.hypot(sx - ex, sy - ey)
        dist_fail = ~(dist <= cfg.max_trip_m)  # NaN/inf distances fail too
        # Ulp guard: np.hypot and math.hypot agree to ~1 ulp; only rows
        # within a few ulps of the limit can flip, re-judge those scalar.
        tol = 4.0 * np.spacing(np.float64(cfg.max_trip_m))
        near = np.isfinite(dist) & (np.abs(dist - cfg.max_trip_m) <= tol)
        for i in np.flatnonzero(near):
            d = math.hypot(float(sx[i]) - float(ex[i]), float(sy[i]) - float(ey[i]))
            dist_fail[i] = not d <= cfg.max_trip_m

        lo, hi = cfg.battery_range
        bat = block.battery
        bat_fail = block.has_battery & ~(
            np.isfinite(bat) & (lo <= bat) & (bat <= hi)
        )

        # Clock rule: the running "latest accepted" is a prefix maximum.
        # Trips failing only the clock rule have start < running max, so
        # the prefix max over stateless-passing trips equals the prefix
        # max over fully-accepted trips — the recurrence vectorizes.
        stateless_ok = finite_ok & bounds_ok & ~dist_fail & ~bat_fail
        S = block.start_us
        int_min = np.iinfo(np.int64).min
        cum = np.maximum.accumulate(np.where(stateless_ok, S, int_min))
        prev = np.empty(n, dtype=np.int64)
        prev[0] = int_min
        prev[1:] = cum[:-1]
        latest_us = None if self._latest is None else datetime_to_us(self._latest)
        if latest_us is not None:
            np.maximum(prev, latest_us, out=prev)
        has_prev = prev != int_min
        back_us = np.subtract(
            prev, S, out=np.zeros(n, dtype=np.int64), where=has_prev
        )
        clock_fail = has_prev & ((back_us / 1e6) > cfg.max_backwards_s)

        fail_finite = ~finite_ok
        fail_bounds = finite_ok & ~bounds_ok
        fail_clock = finite_ok & bounds_ok & clock_fail
        fail_dist = finite_ok & bounds_ok & ~clock_fail & dist_fail
        fail_bat = finite_ok & bounds_ok & ~clock_fail & ~dist_fail & bat_fail
        mask = stateless_ok & ~clock_fail

        base = self.offered
        self.offered += n
        n_accept = int(np.count_nonzero(mask))
        self.accepted += n_accept
        if n_accept:
            new_latest = int(S[mask].max())
            if latest_us is None or new_latest > latest_us:
                self._latest = us_to_datetime(new_latest)

        if n_accept < n:
            rules = np.zeros(n, dtype=np.int8)
            for code, rule_mask in enumerate(
                (fail_finite, fail_bounds, fail_clock, fail_dist, fail_bat),
                start=1,
            ):
                rules[rule_mask] = code
            back_s = back_us / 1e6
            for i in np.flatnonzero(~mask):
                rule, reason = self._block_reason(
                    block, int(i), int(rules[i]), float(back_s[i])
                )
                self.counters[rule] += 1
                self.sink.add(
                    RejectedTrip(
                        seq=base + int(i),
                        rule=rule,
                        reason=reason,
                        order_id=int(block.order_id[i]),
                        start_time=us_to_datetime(block.start_us[i]).isoformat(),
                    )
                )
        return mask

    def _block_reason(
        self, block: TripBlock, i: int, code: int, back_s: float
    ) -> Tuple[str, str]:
        """Rebuild the scalar rejection (rule, reason) for block row ``i``."""
        cfg = self.config
        sx, sy = float(block.start_x[i]), float(block.start_y[i])
        ex, ey = float(block.end_x[i]), float(block.end_y[i])
        if code == 1:
            shown = ", ".join(f"{c:.1f}" for c in (sx, sy, ex, ey))
            return "finite", f"non-finite coordinate in ({shown})"
        if code == 2:
            if not cfg.bounds.contains(Point(sx, sy)):
                label, px, py = "start", sx, sy
            else:
                label, px, py = "end", ex, ey
            return (
                "bounds",
                f"{label} ({px:.1f}, {py:.1f}) outside the city plane",
            )
        if code == 3:
            return (
                "clock",
                f"start_time {back_s:.0f}s behind the stream "
                f"(limit {cfg.max_backwards_s:.0f}s)",
            )
        if code == 4:
            d = math.hypot(sx - ex, sy - ey)
            return (
                "distance",
                f"trip length {d:.0f} m exceeds {cfg.max_trip_m:.0f} m",
            )
        battery = float(block.battery[i])
        lo, hi = cfg.battery_range
        return "battery", f"battery {battery!r} outside [{lo}, {hi}]"

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
