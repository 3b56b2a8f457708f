"""The online incentive mechanism (Algorithm 3, Section IV-C).

When a rider departs station ``i`` (which holds low-energy bikes
``L_i``) toward destination parking ``j``, the system offers a uniform
incentive

    v = alpha * (q + t*d) / |L_i|,   0 < alpha < 1

to ride a *low-energy* bike to a neighbouring aggregation site ``k``
instead.  ``k`` is chosen mileage-equivalent to the original trip (so no
extra metered charge) and reachable on the bike's residual battery; ``t``
is the station's position in the prospective charging sequence.  The
rider accepts per Eq. 13.  Since at most ``|L_i|`` riders are paid and
``v * |L_i| = alpha * (q + t*d) < Delta_i`` (Eq. 12), the mechanism never
pays more than the cost it saves per station.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.station_set import StationSet
from ..energy.fleet import Fleet
from ..geo.points import Point
from .adaptive import AdaptiveAlphaController
from .charging_cost import ChargingCostParams
from .user_model import UserPopulation, accepts_offer

__all__ = ["IncentiveConfig", "OfferOutcome", "IncentiveMechanism"]


@dataclass(frozen=True)
class IncentiveConfig:
    """Parameters of Algorithm 3.

    Attributes:
        alpha: fraction of the saveable cost paid out as incentives
            (``0`` disables the mechanism; ``< 1`` guarantees a net
            saving per relocated station).
        mileage_slack: relative tolerance when matching the aggregation
            site's distance to the original trip mileage.
        battery_margin: consumption safety factor for the relocation ride.
        position_cap: cap on the service position ``t`` used in the offer
            ``v = alpha * (q + t*d) / |L_i|``.  Eq. 12's saving bound uses
            the station's true sequence position, but budgeting offers on
            the *post-aggregation* tour length (a small cap) keeps the
            payout below the realised saving when stations are only
            partially emptied.  ``None`` uses the uncapped position.
    """

    alpha: float = 0.4
    mileage_slack: float = 0.35
    battery_margin: float = 1.2
    position_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mileage_slack < 0:
            raise ValueError(f"mileage_slack cannot be negative, got {self.mileage_slack}")
        if self.battery_margin < 1.0:
            raise ValueError(f"battery_margin must be >= 1, got {self.battery_margin}")
        if self.position_cap is not None and self.position_cap < 1:
            raise ValueError(f"position_cap must be >= 1, got {self.position_cap}")


@dataclass(frozen=True)
class OfferOutcome:
    """Result of one incentive interaction."""

    offered: bool
    accepted: bool
    incentive_paid: float = 0.0
    bike_id: Optional[int] = None
    aggregation_station: Optional[int] = None
    reason: str = ""

    @classmethod
    def no_offer(cls, reason: str) -> "OfferOutcome":
        """The neutral outcome: nothing offered, fleet untouched.

        The single fallback shape shared by the mechanism's own early
        exits and by :class:`repro.guard.GuardedIncentives` when its
        circuit breaker is open — degrading the incentive tier always
        means "make no offer", never a half-applied relocation.
        """
        return cls(offered=False, accepted=False, reason=reason)


class IncentiveMechanism:
    """Stateful Algorithm 3 bound to a fleet.

    Args:
        fleet: the bike fleet (stations indexed as in ``fleet.stations``).
        params: charging unit costs (``q``, ``d``, ``b``).
        config: mechanism parameters.
        population: rider-preference distribution.
        rng: randomness for sampling rider preferences.
        aggregation_targets: per-station preferred aggregation site; when
            absent the mechanism picks the mileage-matching neighbour
            holding the most low-energy bikes (greedy consolidation).
        alpha_controller: optional adaptive controller; when given, the
            live ``alpha`` it maintains overrides ``config.alpha`` and is
            updated from every offer outcome (Section IV-C Remarks).
        stations: the indexed station store answering the
            mileage-equivalent neighbour search.  Pass the planner's
            :class:`StationSet` to share one spatial index across tiers
            (the simulator does); when absent a private store is built
            over the fleet's stations and kept in sync lazily.
    """

    def __init__(
        self,
        fleet: Fleet,
        params: ChargingCostParams,
        config: Optional[IncentiveConfig] = None,
        population: Optional[UserPopulation] = None,
        rng: Optional[np.random.Generator] = None,
        aggregation_targets: Optional[Dict[int, int]] = None,
        alpha_controller: Optional[AdaptiveAlphaController] = None,
        stations: Optional[StationSet] = None,
    ) -> None:
        self.fleet = fleet
        self.params = params
        self.config = config or IncentiveConfig()
        self.population = population or UserPopulation()
        self._rng = rng or np.random.default_rng(0)
        self._targets = dict(aggregation_targets or {})
        self.alpha_controller = alpha_controller
        self.stations = stations if stations is not None else StationSet(fleet.stations)
        self.total_incentives_paid = 0.0
        self.offers_made = 0
        self.offers_accepted = 0
        self.relocations: List[OfferOutcome] = []

    def _sync_stations(self) -> None:
        """Index any fleet racks added since the last query (only relevant
        for a private store; a shared planner set is already current)."""
        for point in self.fleet.stations[self.stations.total_assigned:]:
            self.stations.add(point)

    # ------------------------------------------------------------------
    @property
    def alpha(self) -> float:
        """The live incentive level (controller-driven when one is set)."""
        if self.alpha_controller is not None:
            return self.alpha_controller.alpha
        return self.config.alpha

    def service_position(self, station: int) -> int:
        """Prospective 1-based service position ``t`` of ``station``.

        Uses the station's rank among stations currently needing service
        (a cheap stand-in for its position in the eventual TSP tour; the
        bound of Eq. 12 holds for any consistent ordering).
        """
        needing = self.fleet.stations_needing_service()
        if station in needing:
            return needing.index(station) + 1
        return len(needing) + 1

    def incentive_for(self, station: int) -> float:
        """The uniform offer ``v = alpha * (q + t*d) / |L_i|``.

        Returns 0 when the station holds no low-energy bikes.
        """
        low = self.fleet.low_bikes_at(station)
        if not low:
            return 0.0
        t = self.service_position(station)
        if self.config.position_cap is not None:
            t = min(t, self.config.position_cap)
        return (
            self.alpha
            * (self.params.service_cost + t * self.params.delay_cost)
            / len(low)
        )

    def choose_aggregation_site(
        self, origin: int, destination: int
    ) -> Optional[int]:
        """Pick the neighbour ``k`` for a rider going ``origin -> destination``.

        Mileage-equivalence: ``|origin -> k|`` must match
        ``|origin -> destination|`` within the configured slack, so the
        rider pays no extra metered distance.  Among valid sites, prefer
        the one already holding the most low-energy bikes (consolidation),
        then the closest match, then the lowest id.  Returns ``None``
        when no site qualifies.

        This is the per-rider hot loop of Tier 2, so the candidate scan
        is batched: masks and the four-way preference key run as NumPy
        array operations over the whole annulus instead of one Python
        tuple comparison per candidate.  The selection is bit-identical
        to the scalar loop ``tests/incentives/aggregation_oracle.py``
        keeps: same float expressions, and ``lexsort``'s
        last-key-primary order mirrors its tuple comparison exactly.
        """
        origin_point = self.fleet.stations[origin]
        trip_len = origin_point.distance_to(self.fleet.stations[destination])
        if trip_len <= 0:
            return None
        self._sync_stations()
        candidates = self.stations.within(
            origin_point, trip_len * (1.0 + self.config.mileage_slack) + 1e-9
        )
        if not candidates:
            return None
        ids = np.fromiter((k for k, _ in candidates), dtype=np.int64,
                          count=len(candidates))
        legs = np.fromiter((d for _, d in candidates), dtype=float,
                           count=len(candidates))
        mismatch = np.abs(legs - trip_len)
        valid = (
            (ids != origin)
            & (ids != destination)
            & (mismatch <= self.config.mileage_slack * trip_len)
        )
        if not valid.any():
            return None
        ids, mismatch = ids[valid], mismatch[valid]
        low_here = np.fromiter(
            (len(self.fleet.low_bikes_at(int(k))) for k in ids), dtype=np.int64,
            count=ids.size,
        )
        explicit = self._targets.get(origin)
        not_explicit = (
            (ids != explicit).astype(np.int8)
            if explicit is not None
            else np.ones(ids.size, dtype=np.int8)
        )
        # Minimize (k != explicit, -low_here, |leg - trip|, k): lexsort
        # takes its keys least-significant first.
        order = np.lexsort((ids, mismatch, -low_here, not_explicit))
        return int(ids[order[0]])

    # ------------------------------------------------------------------
    def offer_ride(
        self, origin: int, destination: int, final_destination: Point
    ) -> OfferOutcome:
        """Run one incentive interaction for a departing rider.

        Args:
            origin: station ``i`` the rider picks up from.
            destination: parking ``j`` assigned for the trip (Algorithm 2).
            final_destination: the rider's true destination ``j*``.

        Returns:
            An :class:`OfferOutcome`; on acceptance the fleet is mutated
            (low bike ridden to the aggregation site, incentive paid).
        """
        if self.alpha == 0.0:
            return OfferOutcome.no_offer("alpha=0")
        if not self.fleet.low_bikes_at(origin):
            return OfferOutcome.no_offer("no low-energy bikes")
        k = self.choose_aggregation_site(origin, destination)
        if k is None:
            return OfferOutcome.no_offer("no mileage-equivalent site")
        bike = self.fleet.pick_bike(origin, prefer_low=True)
        if bike is None:
            return OfferOutcome.no_offer("no low-energy bikes")
        leg = self.fleet.stations[origin].distance_to(self.fleet.stations[k])
        if not bike.battery.can_ride(leg, margin=self.config.battery_margin):
            return OfferOutcome.no_offer("battery too low for relocation")
        v = self.incentive_for(origin)
        extra_walk = self.fleet.stations[k].distance_to(final_destination)
        prefs = self.population.sample(self._rng)
        self.offers_made += 1
        if not accepts_offer(prefs, extra_walk, v):
            if self.alpha_controller is not None:
                self.alpha_controller.observe(False)
            return OfferOutcome(offered=True, accepted=False, reason="declined")
        if self.alpha_controller is not None:
            self.alpha_controller.observe(True)
        self.fleet.ride(bike.bike_id, k, leg)
        self.total_incentives_paid += v
        self.offers_accepted += 1
        outcome = OfferOutcome(
            offered=True,
            accepted=True,
            incentive_paid=v,
            bike_id=bike.bike_id,
            aggregation_station=k,
            reason="accepted",
        )
        self.relocations.append(outcome)
        return outcome

    @property
    def acceptance_rate(self) -> float:
        """Fraction of made offers that were accepted."""
        if self.offers_made == 0:
            return 0.0
        return self.offers_accepted / self.offers_made
