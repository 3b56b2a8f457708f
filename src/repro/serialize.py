"""Round-trip-exact state primitives shared by the checkpoint formats.

The crash-recovery contract is *bit identity*: a restored planner must
make the same coin flips, measure the same distances and write the same
responses as the uninterrupted run.  Everything here therefore
round-trips exactly through JSON:

* floats — Python's ``json`` emits ``repr``-shortest decimal strings,
  which parse back to the identical IEEE-754 double;
* NumPy RNGs — captured via ``Generator.bit_generator.state`` (plain
  ints/strings) and restored onto a freshly constructed bit generator of
  the same class;
* a journaled :class:`~repro.datasets.trips.TripRecord` — decoded field
  by field from what the journal encodes from a block's columns, with
  the start time as an ISO-8601 string (microseconds survive).
"""

from __future__ import annotations

import copy
from datetime import datetime
from typing import Any, Dict, Optional

import numpy as np

from .datasets.trips import TripRecord
from .geo.points import Point

__all__ = [
    "rng_to_state",
    "rng_from_state",
    "trip_from_state",
]


def rng_to_state(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-safe snapshot of a NumPy ``Generator``'s full bit stream.

    The returned dict is a deep copy, so later draws on ``rng`` do not
    mutate an already-captured checkpoint.
    """
    return copy.deepcopy(rng.bit_generator.state)


def rng_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """Rebuild a ``Generator`` that continues the captured bit stream.

    Raises:
        ValueError: if the bit-generator class named in ``state`` does
            not exist in :mod:`numpy.random`.
    """
    name = state.get("bit_generator")
    cls = getattr(np.random, str(name), None)
    if cls is None or not isinstance(name, str):
        raise ValueError(f"unknown bit generator {name!r} in RNG state")
    bit_gen = cls()
    bit_gen.state = copy.deepcopy(state)
    return np.random.Generator(bit_gen)


def trip_from_state(state: Dict[str, Any]) -> TripRecord:
    """Decode a journal record's ``trip`` object (written from a
    :class:`~repro.core.tripblock.TripBlock` by the journal's encoder).

    Raises:
        KeyError: if a required field is missing.
    """
    geodesic: Optional[float] = state.get("geodesic_m")
    battery: Optional[float] = state.get("battery")
    return TripRecord(
        order_id=int(state["order_id"]),
        user_id=int(state["user_id"]),
        bike_id=int(state["bike_id"]),
        bike_type=int(state["bike_type"]),
        start_time=datetime.fromisoformat(state["start_time"]),
        start=Point(float(state["start"][0]), float(state["start"][1])),
        end=Point(float(state["end"][0]), float(state["end"][1])),
        geodesic_m=None if geodesic is None else float(geodesic),
        battery=None if battery is None else float(battery),
    )
