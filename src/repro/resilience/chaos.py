"""Fault injection: crashes, torn files, and unreliable trip delivery.

A long-running deployment will eventually see every failure this module
can manufacture: the process dies mid-trip, the checkpoint file is torn
by power loss, the upstream queue redelivers, drops or reorders trips.
:class:`FaultInjector` produces those faults deterministically (seeded)
so the recovery tests and the gauntlet can assert that

* recovery from the latest *good* snapshot + journal tail is
  bit-identical to an uninterrupted run;
* a torn snapshot file (:meth:`FaultInjector.corrupt_file`) is detected
  by checksum and recovery falls back to the previous good generation;
* duplicated trips are screened, dropped/reordered trips leave the
  accounting invariants intact.

``python -m repro.gauntlet recovery`` runs the crash, torn-snapshot and
unreliable-delivery scenario end to end.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from datetime import timedelta
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.esharing import EsharingPlanner
from ..core.costs import FacilityCostFn
from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..errors import InjectedCrash, InjectedSubsystemError
from ..geo.points import Point

__all__ = [
    "ChaosConfig",
    "FaultInjector",
    "FaultSummary",
    "crashing_stream",
    "simulate_period_crash",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates for a :class:`FaultInjector`.

    New fault categories draw from the RNG *only when their rate is
    non-zero*, so configs that leave them at the default keep the exact
    fault sequence older seeds produced.  Storage faults (torn, failed
    or unsynced writes) are scheduled by
    :class:`~repro.resilience.faultfs.FaultFSConfig` instead.

    Attributes:
        seed: RNG seed — identical configs inject identical faults.
        p_duplicate: per-trip probability of an immediate redelivery.
        p_drop: per-trip probability the trip is lost upstream.
        p_swap: per-position probability two adjacent trips arrive
            reordered.
        p_clock_skew: per-trip probability the device clock skews the
            ``start_time`` by up to ``skew_max_s`` seconds either way.
        skew_max_s: bound of the injected clock skew.
        p_garbage: per-trip probability one field is garbage — a NaN
            coordinate, a far-out-of-plane endpoint, or a 470% battery
            reading (rotating deterministically).
        p_late: per-trip probability the trip is delivered *late*:
            displaced up to ``late_max_positions`` positions toward the
            end of the stream (bounded disorder beyond adjacent swaps).
        late_max_positions: bound of the late displacement.
        p_subsystem_error: per-call probability a wrapped subsystem call
            (see :meth:`FaultInjector.failing`) raises
            :class:`~repro.errors.InjectedSubsystemError`.

    Raises:
        ValueError: if any probability is outside [0, 1], the skew bound
            is negative, or the displacement bound is non-positive.
    """

    seed: int = 0
    p_duplicate: float = 0.0
    p_drop: float = 0.0
    p_swap: float = 0.0
    p_clock_skew: float = 0.0
    skew_max_s: float = 600.0
    p_garbage: float = 0.0
    p_late: float = 0.0
    late_max_positions: int = 5
    p_subsystem_error: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "p_duplicate", "p_drop", "p_swap", "p_clock_skew", "p_garbage", "p_late", "p_subsystem_error",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.skew_max_s < 0:
            raise ValueError(f"skew_max_s must be >= 0, got {self.skew_max_s}")
        if self.late_max_positions <= 0:
            raise ValueError(
                f"late_max_positions must be positive, got {self.late_max_positions}"
            )


@dataclass(frozen=True)
class FaultSummary:
    """Exact per-category counts of the faults an injector produced.

    The chaos smoke and the guard gauntlet assert against these, so an
    injected fault that silently stops firing (or fires twice) fails CI
    instead of quietly weakening the test.
    """

    duplicates: int = 0
    drops: int = 0
    swaps: int = 0
    clock_skews: int = 0
    garbage_fields: int = 0
    late_deliveries: int = 0
    subsystem_errors: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """All injected faults, across every category."""
        return (
            self.duplicates + self.drops + self.swaps + self.clock_skews
            + self.garbage_fields + self.late_deliveries
            + sum(self.subsystem_errors.values())
        )

    def to_text(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"dup={self.duplicates}", f"drop={self.drops}", f"swap={self.swaps}",
            f"skew={self.clock_skews}", f"garbage={self.garbage_fields}",
            f"late={self.late_deliveries}",
        ]
        for label, count in sorted(self.subsystem_errors.items()):
            parts.append(f"{label}!={count}")
        return f"{self.total} fault(s): " + " ".join(parts)


def crashing_stream(
    trips: Iterable[TripRecord], crash_after: int
) -> Iterator[TripRecord]:
    """Yield ``trips``, then die: raises after ``crash_after`` yields.

    Raises:
        InjectedCrash: once ``crash_after`` trips have been yielded.
        ValueError: if ``crash_after`` is negative.
    """
    if crash_after < 0:
        raise ValueError(f"crash_after must be non-negative, got {crash_after}")
    for i, trip in enumerate(trips):
        if i >= crash_after:
            raise InjectedCrash(f"injected crash after {crash_after} trips")
        yield trip
    raise InjectedCrash(
        f"injected crash at end of stream ({crash_after} requested)"
    )


class FaultInjector:
    """Deterministic fault source for trip streams and subsystem calls.

    Torn durable writes come from the ``repro.ioutil`` fault seam
    (:class:`~repro.resilience.faultfs.FaultFS`); a file torn at rest
    from :meth:`corrupt_file`.

    Args:
        config: fault rates and seed.
    """

    def __init__(self, config: Optional[ChaosConfig] = None) -> None:
        self.config = config or ChaosConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.counts: Dict[str, int] = {
            "duplicates": 0, "drops": 0, "swaps": 0, "clock_skews": 0,
            "garbage_fields": 0, "late_deliveries": 0,
        }
        self._subsystem_errors: Dict[str, int] = {}
        self._garbage_kind = 0  # rotates through the garbage variants

    def summary(self) -> FaultSummary:
        """Exact counts of every fault injected so far."""
        return FaultSummary(
            duplicates=self.counts["duplicates"],
            drops=self.counts["drops"],
            swaps=self.counts["swaps"],
            clock_skews=self.counts["clock_skews"],
            garbage_fields=self.counts["garbage_fields"],
            late_deliveries=self.counts["late_deliveries"],
            subsystem_errors=dict(self._subsystem_errors),
        )

    # ------------------------------------------------------------------
    def _garbage(self, trip: TripRecord) -> TripRecord:
        """Corrupt exactly one field, rotating through the variants."""
        kind = self._garbage_kind % 3
        self._garbage_kind += 1
        if kind == 0:
            return trip.with_end(Point(float("nan"), trip.end.y))
        if kind == 1:
            return replace(trip, start=Point(trip.start.x + 1e9, trip.start.y))
        return replace(trip, battery=4.7)

    def mutate_trips(self, trips: Sequence[TripRecord]) -> List[TripRecord]:
        """An unreliable upstream's view of ``trips``.

        Applies drops, garbage fields, clock skew, immediate
        redeliveries (exact duplicates), bounded late deliveries and
        adjacent reorderings at the configured rates, deterministically
        for a given seed.  Every fault increments :attr:`counts`;
        categories with a zero rate consume no RNG draws, so legacy
        configs reproduce their historical fault sequences exactly.
        """
        cfg = self.config
        out: List[TripRecord] = []
        for trip in trips:
            if self._rng.uniform() < cfg.p_drop:
                self.counts["drops"] += 1
                continue
            if cfg.p_garbage > 0 and self._rng.uniform() < cfg.p_garbage:
                self.counts["garbage_fields"] += 1
                trip = self._garbage(trip)
            if cfg.p_clock_skew > 0 and self._rng.uniform() < cfg.p_clock_skew:
                self.counts["clock_skews"] += 1
                skew = float(self._rng.uniform(-cfg.skew_max_s, cfg.skew_max_s))
                trip = replace(
                    trip, start_time=trip.start_time + timedelta(seconds=skew)
                )
            out.append(trip)
            if self._rng.uniform() < cfg.p_duplicate:
                self.counts["duplicates"] += 1
                out.append(trip)
        if cfg.p_late > 0:
            i = 0
            while i < len(out):
                if self._rng.uniform() < cfg.p_late:
                    self.counts["late_deliveries"] += 1
                    hop = int(self._rng.integers(1, cfg.late_max_positions + 1))
                    target = min(i + hop, len(out) - 1)
                    out.insert(target, out.pop(i))
                i += 1
        i = 0
        while i + 1 < len(out):
            if self._rng.uniform() < cfg.p_swap:
                self.counts["swaps"] += 1
                out[i], out[i + 1] = out[i + 1], out[i]
                i += 2
            else:
                i += 1
        return out

    # ------------------------------------------------------------------
    def failing(
        self,
        fn: Callable,
        label: str,
        rate: Optional[float] = None,
    ) -> Callable:
        """Wrap a subsystem call so it sometimes raises (deterministic).

        Each label gets its own RNG substream (seeded from the injector
        seed plus a stable hash of the label), so wrapping one more
        subsystem never shifts another's fault positions, and the stream
        RNG stays untouched.

        Args:
            fn: the callable to sabotage.
            label: subsystem name for the error counter and message.
            rate: per-call failure probability; defaults to the config's
                ``p_subsystem_error``.

        Raises:
            ValueError: on a rate outside [0, 1].
        """
        p = self.config.p_subsystem_error if rate is None else rate
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {p}")
        rng = np.random.default_rng(
            [self.config.seed, zlib.crc32(label.encode("utf-8"))]
        )

        def sabotaged(*args, **kwargs):
            if p > 0 and rng.uniform() < p:
                self._subsystem_errors[label] = (
                    self._subsystem_errors.get(label, 0) + 1
                )
                raise InjectedSubsystemError(f"injected {label} failure")
            return fn(*args, **kwargs)

        return sabotaged

    # ------------------------------------------------------------------
    @staticmethod
    def corrupt_file(path: Union[str, Path], mode: str = "truncate") -> None:
        """Damage an existing file in place (test utility).

        Args:
            path: the victim file.
            mode: ``"truncate"`` keeps only the first half;
                ``"flip"`` XOR-flips one byte in the middle.

        Raises:
            ValueError: on an unknown mode or an empty file.
        """
        path = Path(path)
        data = path.read_bytes()
        if not data:
            raise ValueError(f"cannot corrupt empty file {path}")
        if mode == "truncate":
            path.write_bytes(data[: max(1, len(data) // 2)])
        elif mode == "flip":
            mid = len(data) // 2
            path.write_bytes(data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :])
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")


def simulate_period_crash(
    make_simulator: Callable[[EsharingPlanner, Fleet], "object"],
    planner: EsharingPlanner,
    fleet: Fleet,
    facility_cost: FacilityCostFn,
    trips: Sequence[TripRecord],
    crash_after: int,
):
    """Crash a :class:`~repro.sim.simulator.SystemSimulator` mid-period
    and recover it from the pre-period planner/fleet checkpoint.

    The planner and fleet state are snapshotted in memory, the period is
    run against a stream that dies after ``crash_after`` trips, the
    half-mutated simulator is discarded (that is what a crash does), and
    a fresh simulator is rebuilt around the restored state to re-run the
    whole period — at-least-once semantics, validated by the simulator's
    own :meth:`~repro.sim.simulator.SystemSimulator.consistency_check`.

    Args:
        make_simulator: factory wiring a simulator around a planner and
            fleet (incentive/operator/rng configuration lives here).
        planner: the live planner (left half-mutated, like a real crash).
        fleet: the live fleet (ditto).
        facility_cost: opening-cost function for the restored planner.
        trips: the period's trip stream.
        crash_after: how many trips are served before the injected crash.

    Returns:
        ``(simulator, report)`` — the recovered simulator and the report
        of the re-run period.
    """
    pre_planner = planner.state_dict()
    pre_fleet = fleet.state_dict()
    crashed_sim = make_simulator(planner, fleet)
    try:
        crashed_sim.run_period(crashing_stream(trips, crash_after))
    except InjectedCrash:
        pass
    restored_planner = EsharingPlanner.from_state(pre_planner, facility_cost)
    restored_fleet = Fleet.from_state(pre_fleet)
    simulator = make_simulator(restored_planner, restored_fleet)
    report = simulator.run_period(list(trips))
    simulator.consistency_check()
    return simulator, report
