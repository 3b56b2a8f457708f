"""Fleet-level energy state.

Tier 2 operates on *sets of low-energy bikes per station* (the sets
``L_i`` of Section IV).  :class:`Fleet` tracks every bike's battery and
current station, replays trips to evolve the energy state, and reports the
station -> low-energy-bike map that the incentive mechanism and the
operator's tour planner consume.

Each station has a *rack*: the set of bike ids parked there, plus a
charge index over those bikes (a heap of ``(-level, bike_id)``).  Both
are derived from the bikes and kept by the fleet alone: only
:meth:`Fleet.ride`, :meth:`Fleet.move` and :meth:`Fleet.add_station`
change where bikes are (``Bike.station`` is read-only to everyone
else), and only :meth:`Fleet.ride`, :meth:`Fleet.recharge_station` and
:meth:`Fleet.set_level` change a parked bike's charge.  So a per-station
question costs O(bikes at that station), not O(fleet), and a rider's
pick — the highest charge — costs O(log bikes at that station).  A
level written straight onto a battery bypasses the index;
:meth:`Fleet.verify_racks` reports it as drift.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import StateDriftError
from ..geo.points import Point
from ..serialize import rng_from_state, rng_to_state
from .battery import Battery, BatteryConfig, LOW_ENERGY_THRESHOLD

__all__ = ["Bike", "Fleet", "StationEnergySnapshot"]

#: A rack's charge index is rebuilt once it holds more than twice its
#: bikes plus this many entries (stale ones are otherwise dropped only
#: when they reach the top).
_INDEX_SLACK = 16


@dataclass(init=False)
class Bike:
    """One E-bike: identity, battery, and where it is parked.

    ``station`` is read-only: the owning :class:`Fleet` moves bikes, so
    its racks cannot go stale behind its back.
    """

    bike_id: int
    battery: Battery
    _station: int

    def __init__(self, bike_id: int, battery: Battery, station: int) -> None:
        self.bike_id = bike_id
        self.battery = battery
        self._station = station

    @property
    def station(self) -> int:
        return self._station

    @property
    def is_low(self) -> bool:
        return self.battery.is_low


@dataclass(frozen=True)
class StationEnergySnapshot:
    """Energy census of one station at a point in time.

    Attributes:
        station: station index.
        location: station coordinates.
        total_bikes: bikes parked there.
        low_bikes: ids of bikes below the service threshold (the set L_i).
        levels: charge level of every parked bike.
    """

    station: int
    location: Point
    total_bikes: int
    low_bikes: tuple
    levels: tuple

    @property
    def needs_service(self) -> bool:
        return len(self.low_bikes) > 0


class Fleet:
    """All bikes of the system, with per-station energy accounting.

    Args:
        stations: coordinates of the parking locations (index = station id).
        n_bikes: fleet size; bikes start distributed round-robin.
        config: battery parameters shared by the fleet.
        rng: randomness for initial charge levels and ride noise.
        threshold: charge level below which a bike counts as low-energy.
    """

    def __init__(
        self,
        stations: Sequence[Point],
        n_bikes: int,
        config: Optional[BatteryConfig] = None,
        rng: Optional[np.random.Generator] = None,
        threshold: float = LOW_ENERGY_THRESHOLD,
    ) -> None:
        if not stations:
            raise ValueError("fleet needs at least one station")
        if n_bikes <= 0:
            raise ValueError(f"n_bikes must be positive, got {n_bikes}")
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.stations = list(stations)
        self.threshold = threshold
        self._rng = rng or np.random.default_rng(0)
        cfg = config or BatteryConfig()
        bikes = []
        for i in range(n_bikes):
            # Initial charge: most bikes healthy, plus an explicit tail of
            # low-energy bikes — the steady-state shape of Fig. 2(d)
            # (a majority with sufficient residual energy and a tail that
            # "necessitates energy replenishment at each station").
            if self._rng.uniform() < 0.15:
                level = float(self._rng.uniform(0.05, threshold))
            else:
                level = float(np.clip(self._rng.beta(5.0, 1.5), threshold, 1.0))
            bikes.append(
                Bike(bike_id=i, battery=Battery(cfg, level), station=i % len(self.stations))
            )
        self._park(bikes)

    def _park(self, bikes: List[Bike]) -> None:
        """Install the bikes (a tuple: only the fleet adds or moves
        bikes) and build the racks and their charge indexes from the
        bikes' stations and levels."""
        self.bikes: Tuple[Bike, ...] = tuple(bikes)
        self._racks: List[Set[int]] = [set() for _ in self.stations]
        for b in self.bikes:
            self._racks[b.station].add(b.bike_id)
        self._charge: List[List[Tuple[float, int]]] = [
            self._charge_entries(rack) for rack in self._racks
        ]

    def _charge_entries(self, rack: Set[int]) -> List[Tuple[float, int]]:
        """A fresh charge index (a heap) over the bikes of ``rack``."""
        bikes = self.bikes
        heap = [(-bikes[i].battery.level, i) for i in rack]
        heapq.heapify(heap)
        return heap

    def _index(self, bike: Bike) -> None:
        """Record ``bike``'s current level in its rack's charge index.

        The entry it had before is left behind; it no longer matches the
        bike and is dropped lazily, or when the index is rebuilt.
        """
        station = bike._station
        heap = self._charge[station]
        heapq.heappush(heap, (-bike.battery.level, bike.bike_id))
        if len(heap) > 2 * len(self._racks[station]) + _INDEX_SLACK:
            self._charge[station] = self._charge_entries(self._racks[station])

    def __len__(self) -> int:
        return len(self.bikes)

    def state_dict(self) -> dict:
        """Checkpointable state: station locations, every bike, and the
        ride-noise RNG.  The racks are derived from the bikes and left out.

        Charge levels are exact floats and the RNG bit stream is captured
        in full, so a fleet rebuilt by :meth:`from_state` drains batteries
        bit-identically to the uninterrupted run.  The charge indexes are
        derived too, and rebuilt from the levels.  Each distinct battery
        config is converted once per call; every bike gets its own copy.
        """
        configs: Dict[BatteryConfig, dict] = {}
        bikes = []
        for b in self.bikes:
            config = b.battery.config
            if config not in configs:
                configs[config] = asdict(config)
            bikes.append({
                "bike_id": b.bike_id,
                "station": b.station,
                "level": b.battery.level,
                "config": dict(configs[config]),
            })
        return {
            "stations": [[p.x, p.y] for p in self.stations],
            "threshold": self.threshold,
            "rng": rng_to_state(self._rng),
            "bikes": bikes,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Fleet":
        """Rebuild a fleet from :meth:`state_dict` output.

        The racks and charge indexes are derived state: they are rebuilt
        from the bikes' stations and levels, not read from ``state``.

        Raises:
            KeyError: on a missing field.
            ValueError: on out-of-range levels or battery parameters, bike
                ids that are not ``0..n-1`` in order, or a bike parked at
                a station that does not exist.
        """
        fleet = cls.__new__(cls)
        fleet.stations = [Point(float(x), float(y)) for x, y in state["stations"]]
        fleet.threshold = float(state["threshold"])
        fleet._rng = rng_from_state(state["rng"])
        bikes = []
        for position, b in enumerate(state["bikes"]):
            bike_id, station = int(b["bike_id"]), int(b["station"])
            if bike_id != position:
                raise ValueError(
                    f"bike id {bike_id} at position {position}: bike ids must "
                    "be 0..n-1 in order"
                )
            if not 0 <= station < len(fleet.stations):
                raise ValueError(
                    f"bike {bike_id} parked at station {station}, out of "
                    f"range 0..{len(fleet.stations) - 1}"
                )
            bikes.append(Bike(
                bike_id=bike_id,
                battery=Battery(BatteryConfig(**b["config"]), float(b["level"])),
                station=station,
            ))
        fleet._park(bikes)
        return fleet

    def add_station(self, location: Point) -> int:
        """Register a new (empty) station rack; returns its index.

        The index matches the stable id handed out by the planner's
        :class:`~repro.core.station_set.StationSet` when this is wired as
        its ``on_add`` inventory hook, which is how stations opened online
        join the fleet with no bikes.
        """
        self.stations.append(location)
        self._racks.append(set())
        self._charge.append([])
        return len(self.stations) - 1

    @property
    def rng(self) -> np.random.Generator:
        """The ride-noise generator (one standard-normal draw per noisy
        ride)."""
        return self._rng

    def set_level(self, bike_id: int, level: float) -> None:
        """Set one bike's charge level (setup, tests, outside writers).

        The one way to change a level other than a ride or a recharge:
        it keeps the bike's rack index current, which a direct
        ``battery.level`` write does not.

        Raises:
            KeyError: if the bike id is unknown.
            ValueError: if ``level`` is outside [0, 1].
        """
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {level}")
        bike = self._bike(bike_id)
        bike.battery.level = level
        self._index(bike)

    def bikes_at(self, station: int) -> List[Bike]:
        """Bikes currently parked at ``station``, in ascending id order."""
        self._check_station(station)
        return [self.bikes[i] for i in sorted(self._racks[station])]

    def is_stocked(self, station: int) -> bool:
        """Whether ``station``'s rack holds at least one bike.

        O(1) and unchecked, since it is the pickup predicate called for
        every candidate station: ``station`` must be a valid id.
        """
        return bool(self._racks[station])

    def low_bikes_at(self, station: int) -> List[int]:
        """Ids of the low-energy bikes at ``station``, ascending (the set
        ``L_i`` of one station, read from its rack)."""
        self._check_station(station)
        bikes, threshold = self.bikes, self.threshold
        return sorted(
            i for i in self._racks[station] if bikes[i].battery.level < threshold
        )

    def low_energy_map(self) -> Dict[int, List[int]]:
        """Station -> list of low-energy bike ids (the L_i sets)."""
        out: Dict[int, List[int]] = {}
        for b in self.bikes:
            if b.battery.level < self.threshold:
                out.setdefault(b.station, []).append(b.bike_id)
        return {s: sorted(ids) for s, ids in sorted(out.items())}

    def stations_needing_service(self) -> List[int]:
        """Stations holding at least one low-energy bike, ascending."""
        bikes, threshold = self.bikes, self.threshold
        return [
            s for s, rack in enumerate(self._racks)
            if any(bikes[i].battery.level < threshold for i in rack)
        ]

    def snapshot(self, station: int) -> StationEnergySnapshot:
        """Energy census of one station."""
        bikes = self.bikes_at(station)
        low = tuple(b.bike_id for b in bikes if b.battery.level < self.threshold)
        return StationEnergySnapshot(
            station=station,
            location=self.stations[station],
            total_bikes=len(bikes),
            low_bikes=low,
            levels=tuple(b.battery.level for b in bikes),
        )

    def snapshots(self) -> List[StationEnergySnapshot]:
        """Census of every station."""
        return [self.snapshot(s) for s in range(len(self.stations))]

    def ride(
        self,
        bike_id: int,
        to_station: int,
        distance_m: float,
        normal: Optional[Callable[[], float]] = None,
    ) -> float:
        """Move a bike to ``to_station``, draining its battery.

        Args:
            normal: source of the standard-normal draw behind the ride's
                noise (see :meth:`Battery.ride`); the serve path passes
                draws it fetched in one block from :attr:`rng`.  ``None``
                draws the noise from :attr:`rng` here.

        Returns:
            The bike's new charge level.

        Raises:
            KeyError: if the bike id is unknown.
            ValueError: if the target station is invalid, or the
                distance is negative.
        """
        self._check_station(to_station)
        bike = self._bike(bike_id)
        level = bike.battery.ride(distance_m, rng=self._rng, normal=normal)
        self._repark(bike, to_station)
        return level

    def move(self, bike_id: int, station: int) -> None:
        """Move a bike to ``station`` without riding it (a rebalancing
        truck, or test setup): no battery drain, no ride noise drawn.

        Raises:
            KeyError: if the bike id is unknown.
            ValueError: if the target station is invalid.
        """
        self._check_station(station)
        self._repark(self._bike(bike_id), station)

    def _repark(self, bike: Bike, station: int) -> None:
        """The single writer of ``Bike.station``: moves the rack entry
        and indexes the bike's level at its new rack."""
        self._racks[bike._station].discard(bike.bike_id)
        self._racks[station].add(bike.bike_id)
        bike._station = station
        self._index(bike)

    def pick_bike(self, station: int, prefer_low: bool = False) -> Optional[Bike]:
        """A rider's bike choice at ``station``.

        Riders naturally prefer the highest-charge bike; the incentive
        mechanism instead asks for a *low*-energy one (``prefer_low``).
        Returns ``None`` when the station is empty, or when ``prefer_low``
        is set and no low-energy bike is present.
        """
        self._check_station(station)
        bikes = self.bikes
        # Both choices break charge ties to the lowest id, so the rack's
        # set order cannot leak into them.
        if prefer_low:
            low = [
                bikes[i] for i in self._racks[station]
                if bikes[i].battery.level < self.threshold
            ]
            return min(low, key=lambda b: (b.battery.level, b.bike_id)) if low else None
        # Every served trip takes this path: the charge index's top,
        # after dropping entries that no longer describe a parked bike.
        heap = self._charge[station]
        while heap:
            neg_level, i = heap[0]
            bike = bikes[i]
            if bike._station == station and bike.battery.level == -neg_level:
                return bike
            heapq.heappop(heap)
        return None

    def recharge_station(self, station: int) -> int:
        """Operator services a station: recharge all low-energy bikes there.

        Returns:
            Number of bikes recharged.
        """
        count = 0
        for b in self.bikes_at(station):
            if b.battery.level < self.threshold:
                b.battery.recharge()
                self._index(b)
                count += 1
        return count

    def charge_levels(self) -> np.ndarray:
        """Charge level of every bike, indexed by bike id."""
        return np.asarray([b.battery.level for b in self.bikes], dtype=float)

    def low_energy_count(self) -> int:
        """Total bikes below the service threshold."""
        return int(np.count_nonzero(self.charge_levels() < self.threshold))

    def verify_racks(self) -> None:
        """Check every rack against every bike's station, and every
        rack's charge index against its bikes' live levels.

        Raises:
            StateDriftError: if a rack and the bikes disagree, or a
                parked bike's level has no entry in its rack's index (a
                level written around :meth:`set_level`).  A real
                exception, so the check also holds under ``python -O``.
        """
        if not len(self._racks) == len(self._charge) == len(self.stations):
            raise StateDriftError(
                f"fleet has {len(self._racks)} racks and "
                f"{len(self._charge)} charge indexes for "
                f"{len(self.stations)} stations"
            )
        expected: List[Set[int]] = [set() for _ in self.stations]
        for b in self.bikes:
            if not 0 <= b.station < len(self.stations):
                raise StateDriftError(
                    f"bike {b.bike_id} parked at unknown station {b.station}"
                )
            expected[b.station].add(b.bike_id)
        for station, (rack, want) in enumerate(zip(self._racks, expected)):
            if rack != want:
                raise StateDriftError(
                    f"rack {station} holds bikes {sorted(rack)} but bikes "
                    f"{sorted(want)} are parked there"
                )
        bikes = self.bikes
        for station, (rack, heap) in enumerate(zip(self._racks, self._charge)):
            entries = set(heap)
            for i in sorted(rack):
                level = bikes[i].battery.level
                if (-level, i) not in entries:
                    raise StateDriftError(
                        f"rack {station}'s charge index has no entry for bike "
                        f"{i} at level {level!r}; set levels through "
                        "Fleet.set_level"
                    )

    def _bike(self, bike_id: int) -> Bike:
        if not 0 <= bike_id < len(self.bikes):
            raise KeyError(f"unknown bike id {bike_id}")
        return self.bikes[bike_id]

    def _check_station(self, station: int) -> None:
        if not 0 <= station < len(self.stations):
            raise ValueError(f"station {station} out of range 0..{len(self.stations) - 1}")


def replay_trips_onto_fleet(
    fleet: Fleet,
    station_of_point,
    trips: Iterable,
) -> int:
    """Replay trip records through the fleet to evolve energy state.

    Args:
        fleet: the fleet to mutate.
        station_of_point: callable mapping a :class:`Point` to the nearest
            station index (e.g. built from a placement result).
        trips: iterable of :class:`~repro.datasets.trips.TripRecord`.

    Returns:
        Number of trips actually executed (trips from empty stations are
        skipped).
    """
    executed = 0
    for trip in trips:
        origin_station = station_of_point(trip.start)
        dest_station = station_of_point(trip.end)
        bike = fleet.pick_bike(origin_station)
        if bike is None:
            continue
        fleet.ride(bike.bike_id, dest_station, trip.distance)
        executed += 1
    return executed
