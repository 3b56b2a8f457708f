"""Write-ahead trip journal with exact replay recovery.

Every trip is appended (and flushed, optionally fsynced) *before* it is
applied to the service, so the durable journal is always at least as
long as any state a snapshot can capture.  Recovery is then::

    restore(latest good snapshot)        # state through journal seq S
    replay(journal entries with seq > S) # the tail the crash cut off

and reproduces the exact state and response stream of an uninterrupted
run — the trips are the only input, and the restored RNG replays the
same coin flips.

Record format, one per line of the record log (:mod:`.records`)::

    <sha256-prefix> {"seq": n, "trip": {...}}

The journal owns one body encoder and the decoding of ``trip``.  Trips
go in as :class:`~repro.core.tripblock.TripBlock` columns (a record is
a block of one) and come back out of :meth:`TripJournal.replay` as
records (:class:`~repro.datasets.trips.TripRecord`), the one place a
journaled trip is materialised.  Coordinates are float64 columns, so
they are always written with a fraction (``5.0``); a line written with
an int coordinate (``5``) by an older version decodes to the same trip.
The record log drops a torn tail (a crash mid-append) on read and cuts
it off before the next append; mid-file damage or a sequence jump means
the file cannot be trusted and raises :class:`~repro.errors.JournalCorruptError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.tripblock import TripBlock, us_to_datetime
from ..datasets.trips import TripRecord
from ..errors import JournalCorruptError
from ..serialize import trip_from_state
from .records import RecordWriter, frame, read_records

__all__ = ["JournalEntry", "TripJournal"]


@dataclass(frozen=True)
class JournalEntry:
    """One replayable journal record.

    Attributes:
        seq: 1-based append sequence number.
        trip: the journaled trip.
    """

    seq: int
    trip: TripRecord


def _encode_block_lines(seqs: Sequence[int], block: TripBlock) -> List[str]:
    """The journal lines of a :class:`TripBlock`, built from its columns.

    The body is ``json.dumps({"seq": seq, "trip": {...}},
    sort_keys=True, separators=(",", ":"))`` written by hand: the trip
    keys in alphabetical order, ints and floats via ``repr`` (the
    ``tolist()`` columns are native Python scalars, and ``json`` renders
    those via ``repr`` too), absent optional fields as ``null``, and the
    start time as an ISO-8601 string, which never needs escaping.  A
    coordinate is a float64, so it is always written with a fraction
    (``5.0``).

    Raises:
        ValueError: a row holds a NaN or infinite coordinate, or a
            present non-finite ``geodesic_m`` or ``battery``, which JSON
            cannot represent.
    """
    if not bool((block.start_us % 1_000_000).any()):
        # Whole-second timestamps (the normal trip feed): numpy renders
        # the ISO strings in one vectorized call, character-identical to
        # ``datetime.isoformat`` at second resolution.
        iso = np.datetime_as_string(
            block.start_us.astype("datetime64[us]").astype("datetime64[s]")
        ).tolist()
    else:
        iso = [us_to_datetime(us).isoformat() for us in block.start_us.tolist()]
    lines = []
    append = lines.append
    for seq, o, u, b, bt, ts, x1, y1, x2, y2, g, hg, ba, hb in zip(
        seqs,
        block.order_id.tolist(),
        block.user_id.tolist(),
        block.bike_id.tolist(),
        block.bike_type.tolist(),
        iso,
        block.start_x.tolist(),
        block.start_y.tolist(),
        block.end_x.tolist(),
        block.end_y.tolist(),
        block.geodesic_m.tolist(),
        block.has_geodesic.tolist(),
        block.battery.tolist(),
        block.has_battery.tolist(),
    ):
        if not (
            isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)
            and (isfinite(g) or not hg) and (isfinite(ba) or not hb)
        ):
            raise ValueError(
                f"order {o}: out of range float values are not JSON compliant"
            )
        battery = repr(ba) if hb else "null"
        geodesic = repr(g) if hg else "null"
        body = (
            f'{{"seq":{seq},"trip":{{'
            f'"battery":{battery},'
            f'"bike_id":{b},'
            f'"bike_type":{bt},'
            f'"end":[{x2!r},{y2!r}],'
            f'"geodesic_m":{geodesic},'
            f'"order_id":{o},'
            f'"start":[{x1!r},{y1!r}],'
            f'"start_time":"{ts}",'
            f'"user_id":{u}}}}}'
        )
        append(frame(body))
    return lines


class TripJournal:
    """Append-only write-ahead log of trips, one checksummed line each.

    Args:
        path: the journal file; created on first append, re-opened for
            append when it already exists (sequence numbering continues
            from the durable tail).
        durable: ``fsync`` after every append so records survive power
            loss, not just process crash.  Tests disable it for speed.
        defer_scan: skip the opening pass over an existing file.  The
            first :meth:`replay`, :attr:`next_seq` read or append then
            makes it, so recovery reads the file once, not twice.

    Raises:
        JournalCorruptError: if an existing file has mid-file damage or
            a sequence jump (at construction, or at the deferred scan).
    """

    def __init__(
        self, path: Union[str, Path], durable: bool = True, defer_scan: bool = False
    ) -> None:
        self.path = Path(path)
        self._writer = RecordWriter(self.path, durable, 0, JournalCorruptError)
        self._next_seq: Optional[int] = None
        if not defer_scan:
            self._scan(after_seq=None)

    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`append` will assign."""
        if self._next_seq is None:
            self._scan(after_seq=None)
        return self._next_seq

    def append(self, trip: TripRecord) -> int:
        """Durably journal one trip record; returns its sequence number.

        A group commit of one block of one: the record is flushed (and
        fsynced when ``durable``) before this returns, so a trip is
        never applied to the service without being recoverable from
        disk.

        Raises:
            TypeError, ValueError: the record does not fit a
                :class:`~repro.core.tripblock.TripBlock`, or holds a
                value JSON cannot represent.
        """
        return self.append_block(TripBlock.from_trips([trip]))[0]

    def append_block(self, block: TripBlock) -> List[int]:
        """Group-commit: durably journal a whole block with **one**
        write + flush + fsync; returns the assigned sequence numbers.

        The bytes written do not depend on how the trips are cut into
        blocks — same records, same order, same sequence numbers — but
        the fsync cost is amortised over the block.  The lines are
        encoded straight from the columns (:func:`_encode_block_lines`).

        Crash semantics: the block goes out as one contiguous write, so
        a crash mid-commit leaves an intact prefix of the block's
        records plus at most one torn final line, which the record
        log's writer cuts off before the next append (a retry here, or
        a recovered process).  Records after the tear were never
        applied either: the caller applies only after this returns.

        Raises:
            ValueError: a row holds a non-finite value; nothing is
                written.
            OSError: the write or fsync failed; a retry journals the
                same records again.
            JournalCorruptError: the file lost records already appended.
        """
        if not len(block):
            return []
        first = self.next_seq
        seqs = list(range(first, first + len(block)))
        lines = _encode_block_lines(seqs, block)
        self._writer.append("".join(lines).encode("utf-8"))
        self._next_seq = seqs[-1] + 1
        return seqs

    def close(self) -> None:
        """Close the underlying file handle (reopened on next append)."""
        self._writer.close()

    # ------------------------------------------------------------------
    def scan(self) -> List[JournalEntry]:
        """Every intact record in order, dropping only a torn tail.

        Raises:
            JournalCorruptError: on mid-file damage or a sequence jump
                (:mod:`.records`), or an intact record whose trip does
                not decode.
        """
        return self._scan(after_seq=0)

    def replay(self, after_seq: int = 0) -> List[JournalEntry]:
        """Records with ``seq > after_seq`` — the tail a recovery applies.

        One pass over the whole file: every record is checksummed and
        sequence-checked, only the tail's trips are decoded, and
        :attr:`next_seq` is re-seeded from the durable end.

        Raises:
            JournalCorruptError: as for :meth:`scan`.
        """
        return self._scan(after_seq)

    def _scan(self, after_seq: Optional[int]) -> List[JournalEntry]:
        """The validating pass behind :meth:`scan`, :meth:`replay` and
        the opening scan (``after_seq=None``: decode no trip)."""
        scan = read_records(self.path, after_seq, error=JournalCorruptError)
        try:
            entries = [
                JournalEntry(seq=r["seq"], trip=trip_from_state(r["trip"]))
                for r in scan.records
            ]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise JournalCorruptError(
                f"{self.path}: an intact record holds a malformed trip: {exc!r}"
            ) from exc
        self._writer.end = scan.end
        self._next_seq = (scan.last_seq or 0) + 1
        return entries
