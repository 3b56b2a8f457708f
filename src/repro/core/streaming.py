"""The server backend of Fig. 3: a stateful placement service.

Trip requests "are streamed to the server backend, calculated by
E-sharing and assigned appropriate parking locations" (Section II-B).
:class:`PlacementService` is that backend: it routes each trip through
Algorithm 2, keeps the fleet inventory in sync, and implements
footnote 2 — "when customers pick up all the E-bikes from a station ...
the station is removed from P.  The algorithm can still establish a
station at this location depending on the requests later."

Station identity is owned by the planner's
:class:`~repro.core.station_set.StationSet`: ids are stable across
removals, so the service carries no id-remapping tables of its own — it
subscribes to the set's inventory hooks to grow the fleet's racks and
answers every location query straight from the shared store.

Pickup is one query shared with the system simulator,
:func:`pickup_station`: the nearest active station whose fleet rack
holds a bike, within the distance a rider will walk.  The service
passes no radius (a trip is refused only when no active station holds a
bike); the simulator passes its ``pickup_radius_m``.

:meth:`PlacementService.handle_block` is the one planner step: pickup,
opening rule, pick, ride and retirement run row by row in arrival
order, since a pickup may empty a rack and retire its station
(footnote 2) before the next row's queries.  Each served row's decision
is the planner's own per-arrival step,
:meth:`~repro.core.esharing.EsharingPlanner.arrive`, which records
nothing: the row's response is the only object the step keeps, and a
serving planner's decision trace stays empty (``offer`` and ``replay``
keep that trace for the experiments).  What needs no per-row call is
done per block: the coin flips and the ride noise are
drawn in one call each (:class:`~repro.core.replay.DrawStream`).  The
result is bit for bit the per-row run's: a refused row draws nothing,
so after every return and every raise the generators are rewound to
where one scalar draw per use leaves them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..errors import BlockApplyError, StateDriftError
from ..geo.points import Point
from .costs import FacilityCostFn
from .esharing import EsharingPlanner
from .replay import DrawStream
from .station_set import StationSet
from .tripblock import TripBlock

__all__ = ["ServiceResponse", "PlacementService", "pickup_station"]


def pickup_station(
    stations: StationSet, fleet: Fleet, origin: Point, radius: float = math.inf
) -> Optional[int]:
    """Stable id of the nearest active station with a bike in its rack,
    within ``radius`` of ``origin``; ``None`` when there is none.

    Distance ties go to the lowest id.  Only rack membership is read, so
    the cost does not depend on how many bikes the fleet has.
    """
    hit = stations.nearest_where(origin, fleet.is_stocked)
    if hit is None or hit[1] > radius:
        return None
    return hit[0]


def _raising_cause(step: Callable[..., List[ServiceResponse]], *args) -> List[ServiceResponse]:
    """Run a planner step, re-raising a row's failure as the original
    exception rather than its :class:`BlockApplyError`."""
    try:
        return step(*args)
    except BlockApplyError as exc:
        cause = exc.cause
    raise cause


@dataclass(frozen=True)
class ServiceResponse:
    """Answer to one trip request.

    Attributes:
        order_id: the request's id.
        served: whether a bike was available at the pickup station.
        origin_station: stable id of the pickup station (or -1).
        destination_station: stable id of the assigned parking (or -1).
        opened_new: the request opened a new parking online.
        removed_station: stable id of a station retired because this
            pickup emptied it (footnote 2), or None.
        walking_m: decision-time walking distance to the parking.
    """

    order_id: int
    served: bool
    origin_station: int
    destination_station: int
    opened_new: bool
    removed_station: Optional[int]
    walking_m: float


class PlacementService:
    """Stateful Tier-1 service wiring the planner to the fleet.

    Args:
        planner: an anchored Algorithm-2 planner.  Its stations carry
            stable ids ``0..k-1``; the fleet's rack list must line up
            with them (one rack per ever-assigned id).
        fleet: a fleet whose stations list matches the planner's.

    Raises:
        ValueError: if planner and fleet disagree on the station layout.
    """

    def __init__(self, planner: EsharingPlanner, fleet: Fleet) -> None:
        if planner.station_set.total_assigned != len(fleet.stations):
            raise ValueError(
                f"planner has {planner.station_set.total_assigned} station ids, "
                f"fleet has {len(fleet.stations)} racks; build the fleet on the "
                "planner's stations"
            )
        self.planner = planner
        self.fleet = fleet
        self.retired: List[int] = []
        self.responses: List[ServiceResponse] = []
        # Inventory hook: every station the planner opens online gets a
        # rack in the fleet under the same stable id.
        planner.station_set.subscribe(on_add=self._rack_for_new_station)

    def _rack_for_new_station(self, station_id: int, location: Point) -> None:
        rack = self.fleet.add_station(location)
        if rack != station_id:
            raise StateDriftError(
                f"fleet rack {rack} diverged from station id {station_id}"
            )

    # ------------------------------------------------------------------
    @property
    def active_station_ids(self) -> List[int]:
        """Stable ids of stations currently in the planner's set P."""
        return self.planner.station_set.ids()

    def station_location(self, station_id: int) -> Point:
        """Location of a stable station id (active or retired).

        Raises:
            KeyError: for an unknown id.
        """
        return self.planner.station_set.location(station_id)

    # ------------------------------------------------------------------
    def handle_trip(self, order_id: int, start: Point, end: Point) -> ServiceResponse:
        """Serve one trip end to end: a block of one.

        A failure is re-raised as its original exception.
        """
        return _raising_cause(
            self._serve, [order_id], [start.x], [start.y], [end.x], [end.y]
        )[0]

    def handle_block(self, block: TripBlock) -> List[ServiceResponse]:
        """Serve a block of trips in arrival order: the planner step.

        Reads only the order-id and endpoint columns.  Per row: pickup
        at the nearest active station with a bike to the start (the trip
        is refused when none exists anywhere); Algorithm 2's decision
        for the end; the rider takes the rack's highest-charge bike,
        which rides ``start.distance_to(end)`` (as
        :attr:`TripRecord.distance` measures it); if the pickup emptied
        its station, the station retires from P.  Responses, state and
        both generators end exactly as a per-row step (one scalar coin
        flip per served row in ``planner.offer``, one scalar lognormal
        per noisy ride) leaves them, however the stream is cut into
        blocks.

        Returns:
            The block's responses, in order (also appended to
            :attr:`responses`).

        Raises:
            BlockApplyError: row ``index`` raised ``cause``.  The rows
                before it were applied (their responses are
                ``outcomes``, and in :attr:`responses`), and the
                generators and the KS window are where the per-row run
                leaves them at that raise.
        """
        return self._serve(
            block.order_id.tolist(),
            block.start_x.tolist(),
            block.start_y.tolist(),
            block.end_x.tolist(),
            block.end_y.tolist(),
        )

    def _serve(
        self,
        order_ids: Sequence[int],
        sx: Sequence[float],
        sy: Sequence[float],
        ex: Sequence[float],
        ey: Sequence[float],
    ) -> List[ServiceResponse]:
        """The planner step behind :meth:`handle_block`,
        :meth:`handle_trip`, :meth:`serve` and recovery's tail replay,
        on a block's columns as Python lists.

        Per arrival it keeps only the :class:`ServiceResponse` it
        returns: the decision is read from
        :meth:`~repro.core.esharing.EsharingPlanner.arrive`'s values,
        and no :class:`~repro.core.esharing.EsharingDecision` is built.
        """
        planner, fleet = self.planner, self.fleet
        store = planner.station_set
        n = len(order_ids)
        # One generator behind both the coin and the ride would need
        # the per-row interleaving of its draws: fetch one at a time.
        chunk = 1 if planner.rng is fleet.rng else n
        coins = DrawStream(planner.rng, n, block=chunk)
        rides = DrawStream(fleet.rng, n, "standard_normal", block=chunk)
        coin, normal = coins.next, rides.next
        nearest, arrive = store.nearest, planner.arrive
        is_stocked, pick_bike, ride = fleet.is_stocked, fleet.pick_bike, fleet.ride
        out: List[ServiceResponse] = []
        emit = out.append
        j = 0
        try:
            for j in range(n):
                order_id = order_ids[j]
                start = Point(sx[j], sy[j])
                origin_id = pickup_station(store, fleet, start)
                if origin_id is None:
                    emit(ServiceResponse(order_id, False, -1, -1, False, None, 0.0))
                    continue
                end = Point(ex[j], ey[j])
                dest_id, opened, walking, _ = arrive(end, *nearest(end), coin)

                bike = pick_bike(origin_id)
                if bike is None:  # guaranteed by pickup_station
                    raise StateDriftError(
                        f"station {origin_id} emptied between selection and "
                        f"pickup for order {order_id}"
                    )
                ride(bike.bike_id, dest_id, start.distance_to(end), normal)

                removed: Optional[int] = None
                if not is_stocked(origin_id) and origin_id != dest_id:
                    planner.remove_station(origin_id)
                    self.retired.append(origin_id)
                    removed = origin_id
                emit(ServiceResponse(
                    order_id, True, origin_id, dest_id, opened, removed, walking
                ))
        except Exception as exc:  # noqa: BLE001 — classified by caller
            raise BlockApplyError(
                index=j, outcomes=list(out), remaining_fresh=[True] * (n - j),
                cause=exc,
            ) from exc
        finally:
            coins.settle()
            rides.settle()
            self.responses.extend(out)
        return out

    def degraded_assign(
        self, order_id: int, start: Point, end: Point
    ) -> ServiceResponse:
        """Serve a trip in degraded mode: nearest existing station, no
        state mutation.

        The graceful-degradation answer when the planner is marked
        unhealthy: the rider is pointed at the nearest *active* station
        for both pickup and drop-off, nothing is opened or retired, no
        bike moves, and the response is **not** recorded in
        :attr:`responses` — the caller (the guarded runtime) owns the
        degraded-decision ledger, because these answers are outside the
        journaled history and must not contaminate bit-identical replay.

        Raises:
            StateDriftError: when no station is active at all (nothing
                sane can be served; the supervisor must halt).
        """
        store = self.planner.station_set
        if not store.ids():
            raise StateDriftError(
                f"degraded mode has no active station for order {order_id}"
            )
        origin = store.nearest(start)
        dest = store.nearest(end)
        return ServiceResponse(
            order_id=order_id, served=True,
            origin_station=origin[0], destination_station=dest[0],
            opened_new=False, removed_station=None, walking_m=dest[1],
        )

    def serve(self, trips: Iterable[TripRecord]) -> List[ServiceResponse]:
        """Serve a batch of trip records in arrival order, as one block
        (see :meth:`handle_block`).  A failure is re-raised as its
        original exception.

        Returns:
            The responses for this batch, in order (also appended to
            :attr:`responses`).
        """
        return _raising_cause(self.handle_block, TripBlock.from_trips(list(trips)))

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state of the whole service: planner + fleet +
        the retired-id ledger.

        Everything needed to continue the run bit-identically after a
        crash, except the planner's opening-cost callable — pass that to
        :meth:`from_state` again.  It is O(stations + bikes): the
        per-trip histories (:attr:`responses` and the planner's decision
        and similarity traces) are output, not state, and are left out.
        A crash-safe deployment keeps :attr:`responses` in the
        checkpoint directory's response ledger instead.
        """
        return {
            "planner": self.planner.state_dict(include_history=False),
            "fleet": self.fleet.state_dict(),
            "retired": list(self.retired),
        }

    @classmethod
    def from_state(
        cls, state: dict, facility_cost: FacilityCostFn
    ) -> "PlacementService":
        """Rebuild a service from :meth:`state_dict` output.

        The planner and fleet are restored first, then the service is
        constructed around them — which re-wires the rack-growth
        subscription exactly as the original construction did.  The
        restored service starts with no :attr:`responses`; the caller
        that owns the history puts it back.

        Raises:
            KeyError: on a missing field.
            ValueError: if the restored planner and fleet disagree on the
                station layout (a corrupt or hand-edited snapshot).
        """
        planner = EsharingPlanner.from_state(state["planner"], facility_cost)
        fleet = Fleet.from_state(state["fleet"])
        service = cls(planner, fleet)
        service.retired = [int(sid) for sid in state["retired"]]
        return service

    # ------------------------------------------------------------------
    def consistency_check(self) -> None:
        """Verify the planner/fleet/id bookkeeping is coherent, the
        fleet's racks included.

        Raises:
            StateDriftError: on any drift between the views (real
                exceptions, not ``assert``, so the guard also holds under
                ``python -O``).
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
        for sid in self.retired:
            if store.is_active(sid):
                raise StateDriftError(
                    f"station id {sid} is on the retired ledger but still "
                    "active in the planner"
                )
        self.fleet.verify_racks()
