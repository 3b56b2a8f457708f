"""End-to-end E-Sharing system simulation.

Glues the two tiers together the way Fig. 3 describes: streaming trip
requests flow through the online placement (Tier 1) to get a destination
parking; departing riders receive incentive offers (Tier 2) that relocate
low-energy bikes; the fleet's batteries drain as trips execute; and at the
end of each period the charging operator runs its tour.  The per-period
reports carry every metric the evaluation section tabulates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..core.esharing import EsharingPlanner
from ..core.streaming import pickup_station
from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..errors import StateDriftError
from ..incentives.adaptive import AdaptiveAlphaController
from ..incentives.charging_cost import ChargingCostParams
from ..incentives.mechanism import IncentiveConfig, IncentiveMechanism
from ..incentives.user_model import UserPopulation
from .events import (
    EventLog,
    OfferMade,
    OperatorStop,
    PeriodClosed,
    PlacementDecided,
    StationOpened,
    TripExecuted,
    TripRequested,
    TripSkipped,
)
from .metrics import PhaseTimers
from .operator import ChargingOperator, OperatorConfig, ServiceReport

__all__ = ["PeriodReport", "SimulationSummary", "SystemSimulator"]


@dataclass
class PeriodReport:
    """Everything that happened in one simulated service period."""

    trips_requested: int
    trips_executed: int
    trips_skipped_empty: int
    offers_made: int
    offers_accepted: int
    incentives_paid: float
    relocated_bikes: int
    service: ServiceReport
    low_energy_after: int

    @property
    def acceptance_rate(self) -> float:
        if self.offers_made == 0:
            return 0.0
        return self.offers_accepted / self.offers_made


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregate metrics over a multi-period simulation."""

    periods: int
    trips_requested: int
    trips_executed: int
    total_cost: float
    total_incentives: float
    total_bikes_charged: int
    mean_percent_charged: float
    final_station_count: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def service_rate(self) -> float:
        """Fraction of requested trips actually executed."""
        if self.trips_requested == 0:
            return 1.0
        return self.trips_executed / self.trips_requested


class SystemSimulator:
    """Full-system simulation over a fixed station layout.

    Args:
        planner: Tier-1 online placement (already anchored offline).  The
            fleet's station list tracks the planner's: stations opened
            online during the run join the fleet with no bikes.
        fleet: the E-bike fleet.
        charging_params: unit costs for Tier 2.
        incentive_config: Algorithm 3 parameters (``alpha`` etc.).
        population: rider-preference distribution.
        operator_config: service-shift constraints.
        rng: randomness for rider choices.
        alpha_controller: optional adaptive incentive-level controller.
        event_log: optional typed event log receiving every action.
        pickup_radius_m: how far a rider will walk to the nearest station
            that actually holds a bike before giving up (trips beyond it
            count as skipped).
    """

    def __init__(
        self,
        planner: EsharingPlanner,
        fleet: Fleet,
        charging_params: Optional[ChargingCostParams] = None,
        incentive_config: Optional[IncentiveConfig] = None,
        population: Optional[UserPopulation] = None,
        operator_config: Optional[OperatorConfig] = None,
        rng: Optional[np.random.Generator] = None,
        alpha_controller: Optional[AdaptiveAlphaController] = None,
        event_log: Optional[EventLog] = None,
        pickup_radius_m: float = 800.0,
    ) -> None:
        if pickup_radius_m <= 0:
            raise ValueError(f"pickup_radius_m must be positive, got {pickup_radius_m}")
        if planner.station_set.total_assigned != len(fleet.stations):
            raise ValueError(
                f"fleet has {len(fleet.stations)} stations but planner has "
                f"{planner.station_set.total_assigned}; build the fleet on the "
                "planner's anchors"
            )
        self.planner = planner
        self.fleet = fleet
        self.params = charging_params or ChargingCostParams()
        # Inventory hook: stations the planner opens online join the
        # fleet (with no bikes) under the same stable id.
        planner.station_set.subscribe(
            on_add=lambda sid, point: self.fleet.add_station(point)
        )
        self.mechanism = IncentiveMechanism(
            fleet,
            self.params,
            config=incentive_config,
            population=population,
            rng=rng or np.random.default_rng(0),
            alpha_controller=alpha_controller,
            stations=planner.station_set,
        )
        self.operator = ChargingOperator(self.params, operator_config)
        self._rng = rng or np.random.default_rng(0)
        self.reports: List[PeriodReport] = []
        self.event_log = event_log
        self.pickup_radius_m = pickup_radius_m
        self.timers = PhaseTimers()

    def _emit(self, event) -> None:
        if self.event_log is not None:
            self.event_log.emit(event)

    # ------------------------------------------------------------------
    def _station_of(self, point) -> int:
        idx, _ = self.planner.station_set.nearest(point)
        return idx

    # ------------------------------------------------------------------
    def run_period(self, trips: Iterable[TripRecord]) -> PeriodReport:
        """Simulate one service period of streaming trips plus the tour.

        For each trip: Tier 1 assigns the destination parking; Tier 2 may
        convert the ride into a low-energy-bike relocation; otherwise the
        rider takes the healthiest bike to the assigned parking.  After
        the stream, the operator services the fleet.
        """
        requested = executed = skipped = 0
        incentives_before = self.mechanism.total_incentives_paid
        accepted_before = self.mechanism.offers_accepted
        made_before = self.mechanism.offers_made

        for trip in trips:
            requested += 1
            self._emit(TripRequested(
                order_id=trip.order_id,
                origin_x=trip.start.x, origin_y=trip.start.y,
                dest_x=trip.end.x, dest_y=trip.end.y,
            ))
            # Riders walk past an empty rack to the nearest stocked one;
            # beyond the pickup radius they give up and the trip is lost.
            pickup = pickup_station(
                self.planner.station_set, self.fleet, trip.start,
                self.pickup_radius_m,
            )
            if pickup is None:
                skipped += 1
                self._emit(TripSkipped(
                    order_id=trip.order_id,
                    origin_station=self._station_of(trip.start),
                    reason="no bike within pickup radius",
                ))
                continue
            origin = pickup
            phase_start = time.perf_counter()
            decision = self.planner.offer(trip.end)
            self.timers.placement += time.perf_counter() - phase_start
            destination = decision.station_index
            self._emit(PlacementDecided(
                order_id=trip.order_id,
                station_index=destination,
                opened_new=decision.opened,
                walking_cost=decision.walking_cost,
                penalty=decision.penalty_name,
            ))
            if decision.opened:
                opened = self.fleet.stations[destination]
                self._emit(StationOpened(
                    station_index=destination, x=opened.x, y=opened.y,
                ))
            phase_start = time.perf_counter()
            outcome = self.mechanism.offer_ride(origin, destination, trip.end)
            self.timers.incentives += time.perf_counter() - phase_start
            if outcome.offered:
                self._emit(OfferMade(
                    order_id=trip.order_id,
                    origin_station=origin,
                    accepted=outcome.accepted,
                    incentive=outcome.incentive_paid,
                    reason=outcome.reason,
                ))
            if outcome.accepted:
                executed += 1
                self._emit(TripExecuted(
                    order_id=trip.order_id,
                    bike_id=outcome.bike_id if outcome.bike_id is not None else -1,
                    from_station=origin,
                    to_station=outcome.aggregation_station
                    if outcome.aggregation_station is not None else -1,
                ))
                continue  # the rider relocated a low bike instead
            bike = self.fleet.pick_bike(origin)
            if bike is None:
                # The incentive mechanism may have ridden the last bike
                # away between selection and pickup.
                skipped += 1
                self._emit(TripSkipped(order_id=trip.order_id, origin_station=origin))
                continue
            self.fleet.ride(bike.bike_id, destination, trip.distance)
            executed += 1
            self._emit(TripExecuted(
                order_id=trip.order_id,
                bike_id=bike.bike_id,
                from_station=origin,
                to_station=destination,
            ))

        # The KS share of placement time comes straight off the planner's
        # lifetime counter (checkpoints fire inside offer()).
        self.timers.ks = self.planner.ks_seconds
        period_incentives = self.mechanism.total_incentives_paid - incentives_before
        service = self.operator.service_period(self.fleet, incentives_paid=period_incentives)
        for pos, (station, charged, in_shift) in enumerate(
            zip(service.served_stations, service.charged_per_station,
                service.served_within_shift),
            start=1,
        ):
            self._emit(OperatorStop(
                station=station, position=pos,
                bikes_charged=charged, within_shift=in_shift,
            ))
        report = PeriodReport(
            trips_requested=requested,
            trips_executed=executed,
            trips_skipped_empty=skipped,
            offers_made=self.mechanism.offers_made - made_before,
            offers_accepted=self.mechanism.offers_accepted - accepted_before,
            incentives_paid=period_incentives,
            relocated_bikes=self.mechanism.offers_accepted - accepted_before,
            service=service,
            low_energy_after=self.fleet.low_energy_count(),
        )
        self.reports.append(report)
        self._emit(PeriodClosed(
            period=len(self.reports) - 1,
            total_cost=service.total_cost,
            percent_charged=service.percent_charged,
        ))
        return report

    def rebalance(self, demand_weights=None, max_moves=None):
        """Run a static rebalancing pass over the fleet (Section II-B).

        The paper assumes reserves stay balanced by the procedures of
        [9]-[11]; this executes the simplest such procedure so multi-day
        simulations do not starve hot stations.  See
        :func:`repro.sim.rebalancing.rebalance_fleet`.

        Returns:
            The :class:`~repro.sim.rebalancing.RebalanceReport`.
        """
        from .rebalancing import rebalance_fleet, target_distribution

        targets = target_distribution(
            len(self.fleet.stations), len(self.fleet), demand_weights
        )
        return rebalance_fleet(self.fleet, targets, max_moves=max_moves)

    def run_days(
        self,
        trips_by_day: Iterable[Iterable[TripRecord]],
        rebalance_between_days: bool = False,
    ) -> List[PeriodReport]:
        """Simulate consecutive days, one service period per day.

        Fleet energy state, incentive statistics (and the adaptive alpha,
        when a controller is attached) carry over between days — the
        multi-period regime of the Section IV-C Remarks, where bikes the
        operator skipped "have higher chance to be charged during the
        next service period".  With ``rebalance_between_days`` the
        overnight truck restores the uniform bike distribution before
        each new day (the paper's balanced-reserves assumption).

        Returns:
            One :class:`PeriodReport` per day, in order.
        """
        reports = []
        for i, day in enumerate(trips_by_day):
            if rebalance_between_days and i > 0:
                self.rebalance()
            reports.append(self.run_period(day))
        return reports

    # ------------------------------------------------------------------
    def consistency_check(self) -> None:
        """Verify cross-component invariants after a period (or recovery).

        Checks that the planner and fleet agree on the station layout,
        that every period's trip accounting adds up, that the incentive
        counters are coherent, and that the fleet's racks match where
        its bikes are parked — the invariants the chaos
        harness asserts after every crash/recovery cycle.

        Raises:
            StateDriftError: on any violated invariant (a real exception,
                so the guard also holds under ``python -O``).
        """
        store = self.planner.station_set
        if store.total_assigned != len(self.fleet.stations):
            raise StateDriftError(
                f"planner knows {store.total_assigned} station ids but the "
                f"fleet has {len(self.fleet.stations)} racks"
            )
        for sid in store.ids():
            if store.location(sid) != self.fleet.stations[sid]:
                raise StateDriftError(
                    f"station id {sid} diverged between planner and fleet"
                )
        for i, report in enumerate(self.reports):
            if report.trips_executed + report.trips_skipped_empty != report.trips_requested:
                raise StateDriftError(
                    f"period {i}: executed {report.trips_executed} + skipped "
                    f"{report.trips_skipped_empty} != requested "
                    f"{report.trips_requested}"
                )
            if report.offers_accepted > report.offers_made:
                raise StateDriftError(
                    f"period {i}: {report.offers_accepted} offers accepted "
                    f"exceeds {report.offers_made} made"
                )
            if report.incentives_paid < 0:
                raise StateDriftError(
                    f"period {i}: negative incentives paid "
                    f"({report.incentives_paid})"
                )
        self.fleet.verify_racks()

    # ------------------------------------------------------------------
    def merge_worker_timers(self, *snapshots) -> None:
        """Fold phase timers measured in worker processes into this run.

        A sweep that fans ``run_period`` cells through
        :class:`repro.parallel.ParallelRunner` accumulates phase time in
        each worker's own :class:`~repro.sim.metrics.PhaseTimers`; the
        parent's :meth:`summary` would otherwise report only its local
        (near-zero) share.  Pass each worker's
        ``PhaseTimers.snapshot()`` dict here before reading the summary.
        """
        for snap in snapshots:
            self.timers.merge(snap)

    # ------------------------------------------------------------------
    def total_cost(self) -> float:
        """Accumulated Tier-2 cost over all simulated periods."""
        return sum(r.service.total_cost for r in self.reports)

    def summary(self) -> SimulationSummary:
        """Aggregate metrics over every period simulated so far.

        Raises:
            ValueError: if no period has been run yet.
        """
        if not self.reports:
            raise ValueError("no periods simulated yet")
        pct = [r.service.percent_charged for r in self.reports]
        return SimulationSummary(
            periods=len(self.reports),
            trips_requested=sum(r.trips_requested for r in self.reports),
            trips_executed=sum(r.trips_executed for r in self.reports),
            total_cost=self.total_cost(),
            total_incentives=sum(r.incentives_paid for r in self.reports),
            total_bikes_charged=sum(r.service.bikes_charged for r in self.reports),
            mean_percent_charged=float(np.mean(pct)),
            final_station_count=len(self.fleet.stations),
            phase_seconds=self.timers.snapshot(),
        )
