"""Per-trip oracle of the durable serve path.

The journal encodes trips from a block's columns only.  This module
keeps the record encoder those columns are checked against (the
sort-keys ``json`` encoding of a record's fields) and a per-trip run of
the write-ahead protocol built on it: the order-id screen, one journal
line per fresh trip, ``PlacementService.handle_trip`` on the record's
fields, and the ledger lines the checkpoint cadence has flushed.
"""

import json

from repro.resilience.ledger import _encode_line as encode_ledger_line
from repro.resilience.records import frame


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


def serve_per_trip(service, stream, checkpoint_every):
    """Serve ``stream`` trip by trip on a bare ``PlacementService``.

    Returns ``(outcomes, journal_bytes, ledger_bytes)``: one response
    per trip (``None`` for a repeated order id), the journal a
    ``CheckpointingService`` with that cadence writes, and its ledger,
    which holds the responses through the last checkpoint.
    """
    seen = set()
    outcomes, lines = [], []
    for trip in stream:
        if trip.order_id in seen:
            outcomes.append(None)
            continue
        seen.add(trip.order_id)
        lines.append(encode_line(len(lines) + 1, trip))
        outcomes.append(service.handle_trip(trip.order_id, trip.start, trip.end))
    flushed = len(lines) - len(lines) % checkpoint_every
    ledger = b"".join(
        encode_ledger_line(seq, response)
        for seq, response in enumerate(service.responses[:flushed], start=1)
    )
    return outcomes, "".join(lines).encode("utf-8"), ledger
