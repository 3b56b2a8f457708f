"""Per-trip oracles for the guarded serve path.

``GuardedRuntime`` has one route — validator masks, watermark release
and group commits over blocks of any size — and ``TripValidator.admit``
and ``WatermarkBuffer.push`` are blocks of one.  This module keeps the
independent per-trip implementations they are checked against:

* :class:`ReferenceValidator` judges one trip at a time, rule by rule,
  against the latest accepted start and each bike's last accepted trip;
* :class:`ReferenceBuffer` keeps a plain heap, releases on every push
  and sheds the newest arrival while the buffer is full;
* :func:`serve_reference` composes them with the service's per-trip
  ``handle_trip``:

    validator.admit(trip) → buffer.push(trip) → inner.handle_trip(t)
    for every released trip, then buffer.flush()

"Clean" means nothing downstream fails: no planner fault, no open
breaker, no overload control, no incentives.  On such a stream the
guarded runtime at any block size must match it in responses, end
state, journal bytes and every validator and buffer counter.
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.datasets import TripRecord
from repro.guard import (
    DeadLetterSink,
    GuardConfig,
    RejectedTrip,
    TripValidator,
    WatermarkBuffer,
)
from repro.resilience import CheckpointingService


class ReferenceValidator(TripValidator):
    """:class:`TripValidator` with the per-trip rule evaluation."""

    def _first_violation(self, trip: TripRecord) -> Optional[Tuple[str, str]]:
        cfg = self.config
        coords = (trip.start.x, trip.start.y, trip.end.x, trip.end.y)
        if not all(math.isfinite(c) for c in coords):
            shown = ", ".join(f"{float(c):.1f}" for c in coords)
            return "finite", f"non-finite coordinate in ({shown})"
        if trip.geodesic_m is not None and not math.isfinite(trip.geodesic_m):
            return "finite", f"non-finite geodesic_m {float(trip.geodesic_m)!r}"
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
        known position; rejected trips leave the state untouched.
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


class ReferenceBuffer(WatermarkBuffer):
    """:class:`WatermarkBuffer` on a plain heap, one push at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._heap: List[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    def _reject(self, trip: TripRecord, rule: str, reason: str) -> None:
        self.sink.add(
            RejectedTrip(
                seq=self._seq - 1,
                rule=rule,
                reason=reason,
                order_id=trip.order_id,
                start_time=trip.start_time.isoformat(),
            )
        )

    def _release(self) -> List[TripRecord]:
        """Emit every buffered event the watermark has passed."""
        out: List[TripRecord] = []
        watermark = self._max_seen - self.lateness
        while self._heap and self._heap[0][0] <= watermark:
            _, _, trip = heapq.heappop(self._heap)
            out.append(trip)
        self.emitted += len(out)
        return out

    def push(self, trip: TripRecord) -> List[TripRecord]:
        """Offer one arrival; returns the events released by it (in
        timestamp order), possibly empty.

        A too-late arrival (older than the current watermark) and an
        arrival that overflows ``max_pending`` are dead-lettered and
        release nothing.
        """
        self._seq += 1
        if self._max_seen is not None:
            watermark = self._max_seen - self.lateness
            if trip.start_time < watermark:
                self.too_late += 1
                behind = (watermark - trip.start_time).total_seconds()
                self._reject(
                    trip, "too_late",
                    f"arrived {behind:.0f}s behind the watermark "
                    f"(lateness {self.lateness.total_seconds():.0f}s)",
                )
                return []
        if len(self) >= self.max_pending:
            self.shed += 1
            self._reject(
                trip, "shed",
                f"reorder buffer full ({self.max_pending} pending)",
            )
            return []
        heapq.heappush(self._heap, (trip.start_time, self._seq, trip))
        self.admitted += 1
        if self._max_seen is None or trip.start_time > self._max_seen:
            self._max_seen = trip.start_time
        return self._release()

    def flush(self) -> List[TripRecord]:
        """End of stream: emit everything still buffered, in order."""
        out: List[TripRecord] = []
        while self._heap:
            _, _, trip = heapq.heappop(self._heap)
            out.append(trip)
        self.emitted += len(out)
        return out


@dataclass
class Reference:
    """What the reference run produced, named like the runtime's fields."""

    inner: CheckpointingService
    validator: ReferenceValidator
    buffer: ReferenceBuffer
    sink: DeadLetterSink
    outcomes: List = field(default_factory=list)
    served: int = 0
    duplicates: int = 0

    def close(self) -> None:
        self.inner.close()


def serve_reference(inner: CheckpointingService, config: GuardConfig, trips) -> Reference:
    """Serve ``trips`` trip by trip through ``inner`` under ``config``."""
    sink = DeadLetterSink()
    ref = Reference(
        inner=inner,
        validator=ReferenceValidator(config.validation, sink=sink),
        buffer=ReferenceBuffer(
            lateness_s=config.lateness_s, sink=sink, max_pending=config.max_pending
        ),
        sink=sink,
    )

    def apply(released):
        for trip in released:
            response = inner.handle_trip(trip)
            if response is None:
                ref.duplicates += 1
            else:
                ref.served += 1
            ref.outcomes.append(response)

    for trip in trips:
        if ref.validator.admit(trip):
            apply(ref.buffer.push(trip))
    apply(ref.buffer.flush())
    return ref
