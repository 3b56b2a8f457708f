"""Scalar reference of ``IncentiveMechanism.choose_aggregation_site``.

The mechanism scans the mileage-equivalent annulus as NumPy arrays and
picks a site with one ``lexsort``.  This is the loop it must match on
every input: one Python key tuple per candidate, compared in turn.
"""

from __future__ import annotations

from typing import Optional

from repro.incentives import IncentiveMechanism


def choose_aggregation_site_reference(
    mech: IncentiveMechanism, origin: int, destination: int
) -> Optional[int]:
    """The site ``mech.choose_aggregation_site(origin, destination)``
    must return: minimise ``(k != explicit target, -low bikes at k,
    |leg - trip|, k)`` over the valid sites."""
    origin_point = mech.fleet.stations[origin]
    trip_len = origin_point.distance_to(mech.fleet.stations[destination])
    if trip_len <= 0:
        return None
    mech._sync_stations()
    low_map = mech.fleet.low_energy_map()
    explicit = mech._targets.get(origin)
    slack = mech.config.mileage_slack
    best: Optional[int] = None
    best_key = None
    # The mileage-equivalent sites form an annulus around the origin; the
    # tiny epsilon keeps boundary sites that exactly meet the slack from
    # being lost to the radius rounding differently than |leg - trip|.
    radius = trip_len * (1.0 + slack) + 1e-9
    for k, leg in mech.stations.within(origin_point, radius):
        if k in (origin, destination):
            continue
        if abs(leg - trip_len) > slack * trip_len:
            continue
        key = (k != explicit, -len(low_map.get(k, [])), abs(leg - trip_len), k)
        if best_key is None or key < best_key:
            best_key = key
            best = k
    return best
