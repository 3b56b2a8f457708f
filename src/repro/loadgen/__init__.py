"""Data-driven load generation for overload testing.

Seeded OD-matrix trip streams with routed waypoints and composable
surge scenarios, emitted as columnar
:class:`~repro.core.tripblock.TripBlock` batches — the exact shape the
guarded hot path ingests:

* :mod:`~repro.loadgen.odmatrix` — gravity-model OD rates, Poisson
  emission, rectilinear waypoint routing, low-value row marking;
* :mod:`~repro.loadgen.scenarios` — rate pulses and trip-side events
  (festival/stadium spikes, weather shutoffs, rush-hour waves) with a
  vectorized ``apply`` pinned bit-identical to its scalar oracle.

``python -m repro.gauntlet overload`` runs the overload gauntlet: every
named scenario against a sharded fleet under admission control, with
exact shed/deferred/served accounting, ladder-recovery checks, and a
zero-overload byte-identity check against the uncontrolled runtime.
"""

from .odmatrix import ODConfig, ODMatrix, TripStream, WaypointRouter
from .scenarios import (
    SCENARIOS,
    RatePulse,
    ScenarioSchedule,
    ScheduledEvent,
    make_scenario,
)

__all__ = [
    "ODConfig",
    "ODMatrix",
    "WaypointRouter",
    "TripStream",
    "RatePulse",
    "ScheduledEvent",
    "ScenarioSchedule",
    "SCENARIOS",
    "make_scenario",
]
