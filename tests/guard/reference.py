"""Per-trip reference for the guarded serve path on a clean stream.

``GuardedRuntime`` has one route — validator masks, watermark release
and group commits over blocks of any size.  This module is the oracle
it is checked against, built from the per-trip primitives instead:

    validator.admit(trip) → buffer.push(trip) → inner.handle_trip(t)
    for every released trip, then buffer.flush()

"Clean" means nothing downstream fails: no planner fault, no open
breaker, no overload control, no incentives.  On such a stream the
guarded runtime at any block size must match it in responses, end
state, journal bytes and every validator and buffer counter.
"""

from dataclasses import dataclass, field
from typing import List

from repro.guard import DeadLetterSink, GuardConfig, TripValidator, WatermarkBuffer
from repro.resilience import CheckpointingService


@dataclass
class Reference:
    """What the reference run produced, named like the runtime's fields."""

    inner: CheckpointingService
    validator: TripValidator
    buffer: WatermarkBuffer
    sink: DeadLetterSink
    outcomes: List = field(default_factory=list)
    served: int = 0
    duplicates: int = 0

    def close(self) -> None:
        self.inner.close()


def serve_reference(inner: CheckpointingService, config: GuardConfig, trips) -> Reference:
    """Serve ``trips`` trip by trip through ``inner`` under ``config``."""
    sink = DeadLetterSink(keep=config.deadletter_keep)
    ref = Reference(
        inner=inner,
        validator=TripValidator(config.validation, sink=sink),
        buffer=WatermarkBuffer(
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
