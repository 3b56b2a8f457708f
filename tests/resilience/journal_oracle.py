"""Per-trip oracle of the durable serve path.

The journal encodes trips from a block's columns only, and
``PlacementService.handle_block`` serves a block with its coin flips and
ride noise drawn in one call each.  This module keeps what both are
checked against: the record encoders (the sort-keys ``json`` encoding of
a record's fields), the planner step one trip at a time with scalar
draws (:func:`handle_trip_per_row`), and a per-trip run of the
write-ahead protocol built on them: the order-id screen, one journal
line per fresh trip, the per-row step on the record's fields, and the
ledger blocks the checkpoint cadence has flushed.
"""

import json

from repro.core.streaming import ServiceResponse, pickup_station
from repro.errors import StateDriftError
from repro.resilience.records import frame


def handle_trip_per_row(service, order_id, start, end):
    """One trip through ``service`` (a ``PlacementService``) row by row:
    pickup, ``planner.offer`` (one scalar coin flip), the rack's
    highest-charge bike, ``fleet.ride`` (one scalar lognormal draw), and
    footnote 2's retirement.  The response is appended to
    ``service.responses``."""
    planner, fleet = service.planner, service.fleet
    origin_id = pickup_station(planner.station_set, fleet, start)
    if origin_id is None:
        response = ServiceResponse(
            order_id=order_id, served=False,
            origin_station=-1, destination_station=-1,
            opened_new=False, removed_station=None, walking_m=0.0,
        )
        service.responses.append(response)
        return response

    decision = planner.offer(end)
    dest_id = decision.station_index
    bike = fleet.pick_bike(origin_id)
    if bike is None:
        raise StateDriftError(f"station {origin_id} emptied before pickup")
    fleet.ride(bike.bike_id, dest_id, start.distance_to(end))

    removed = None
    if not fleet.is_stocked(origin_id) and origin_id != dest_id:
        planner.remove_station(origin_id)
        service.retired.append(origin_id)
        removed = origin_id

    response = ServiceResponse(
        order_id=order_id, served=True,
        origin_station=origin_id, destination_station=dest_id,
        opened_new=decision.opened, removed_station=removed,
        walking_m=decision.walking_cost,
    )
    service.responses.append(response)
    return response


def encode_line(seq, trip):
    """The journal line of ``trip`` at ``seq``, through ``json``.

    ``json`` writes each field as the record holds it, so an int
    coordinate comes out as ``5`` here where the journal's float64
    column writes ``5.0``; a non-finite float raises ``ValueError``.
    """
    body = json.dumps(
        {
            "seq": seq,
            "trip": {
                "order_id": trip.order_id,
                "user_id": trip.user_id,
                "bike_id": trip.bike_id,
                "bike_type": trip.bike_type,
                "start_time": trip.start_time.isoformat(),
                "start": [trip.start.x, trip.start.y],
                "end": [trip.end.x, trip.end.y],
                "geodesic_m": trip.geodesic_m,
                "battery": trip.battery,
            },
        },
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return frame(body)


def encode_ledger_block(first, responses):
    """The ledger block of ``responses`` at seqs ``first ..``, through
    ``json``: each response field as a column."""
    body = json.dumps(
        {
            "count": len(responses),
            "responses": {
                name: [vars(r)[name] for r in responses] for name in vars(responses[0])
            },
            "seq": first,
        },
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return frame(body).encode("utf-8")


def serve_per_trip(service, stream, checkpoint_every):
    """Serve ``stream`` trip by trip on a bare ``PlacementService``,
    through :func:`handle_trip_per_row`.

    Returns ``(outcomes, journal_bytes, ledger_bytes)``: one response
    per trip (``None`` for a repeated order id), the journal a
    ``CheckpointingService`` with that cadence writes, and its ledger,
    which holds the responses through the last checkpoint, one block
    per checkpoint.
    """
    seen = set()
    outcomes, lines = [], []
    for trip in stream:
        if trip.order_id in seen:
            outcomes.append(None)
            continue
        seen.add(trip.order_id)
        lines.append(encode_line(len(lines) + 1, trip))
        outcomes.append(handle_trip_per_row(service, trip.order_id, trip.start, trip.end))
    flushed = len(lines) - len(lines) % checkpoint_every
    ledger = b"".join(
        encode_ledger_block(first, service.responses[first - 1 : first - 1 + checkpoint_every])
        for first in range(1, flushed + 1, checkpoint_every)
    )
    return outcomes, "".join(lines).encode("utf-8"), ledger
