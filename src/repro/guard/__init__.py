"""Guarded online runtime: the robustness layer of the live service.

Everything between the raw event feed and the crash-safe placement
service lives here:

* :mod:`~repro.guard.validation` — semantic input validation with
  per-rule counters and a dead-letter sink;
* :mod:`~repro.guard.reorder` — watermark-based reordering of bounded
  out-of-order streams;
* :mod:`~repro.guard.breakers` — deterministic circuit breakers and the
  per-subsystem degradations (KS test, incentives);
* :mod:`~repro.guard.overload` — admission control for traffic past
  saturation: event-time token bucket, bounded ingest queue with
  backpressure, seeded priority load-shedder, and a three-rung
  degradation ladder with hysteresis;
* :mod:`~repro.guard.runtime` — the :class:`GuardedRuntime` supervisor
  tying it together with a healthy/degraded/halted state machine,
  self-healing through crash recovery, and a structured incident log.

``python -m repro.gauntlet chaos`` runs the chaos gauntlet: a faulted
2k-trip stream through the full guarded stack, with end-to-end
accounting and a zero-fault bit-identity check against the unguarded
service (``chaos-block1`` and ``chaos-sharded`` are its block-of-one and
2-shard variants).
"""

from .breakers import (
    BreakerConfig,
    CircuitBreaker,
    GuardedIncentives,
    GuardedKS2D,
)
from .overload import (
    RUNGS,
    SHED_RULE,
    LadderConfig,
    OverloadConfig,
    OverloadController,
    TokenBucket,
)
from .reorder import WatermarkBuffer
from .runtime import (
    DEGRADED,
    HALTED,
    HEALTHY,
    DegradedDecision,
    GuardConfig,
    GuardedRuntime,
    Incident,
    IncidentLog,
)
from .validation import (
    DeadLetterSink,
    RejectedTrip,
    TripValidator,
    ValidationConfig,
)

__all__ = [
    "ValidationConfig",
    "RejectedTrip",
    "DeadLetterSink",
    "TripValidator",
    "WatermarkBuffer",
    "BreakerConfig",
    "CircuitBreaker",
    "GuardedKS2D",
    "GuardedIncentives",
    "GuardConfig",
    "GuardedRuntime",
    "Incident",
    "IncidentLog",
    "DegradedDecision",
    "HEALTHY",
    "DEGRADED",
    "HALTED",
    "RUNGS",
    "SHED_RULE",
    "LadderConfig",
    "OverloadConfig",
    "OverloadController",
    "TokenBucket",
]
