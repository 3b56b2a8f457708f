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

A snapshot current through seq ``S`` stores a *journal link*,
``{"seq": S, "offset": <byte where record S starts>, "checksum":
<its 16-hex prefix>}`` (:meth:`TripJournal.link`), so recovery reads
only record ``S`` and the tail after it (:meth:`TripJournal.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.tripblock import TripBlock, us_to_datetime
from ..datasets.trips import TripRecord
from ..errors import JournalCorruptError
from ..serialize import trip_from_state
from .records import CHECKSUM_PREFIX_LEN, RecordScan, RecordWriter, frame, read_records

__all__ = ["JOURNAL_NAME", "JournalEntry", "TripJournal", "link_problem"]

JOURNAL_NAME = "journal.jsonl"
"""Filename of the write-ahead trip journal inside a checkpoint directory."""


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


def _checksum_at(path: Union[str, Path], offset: int) -> str:
    """The checksum prefix of the line that starts at byte ``offset``."""
    with open(path, "rb") as f:
        f.seek(offset)
        return f.read(CHECKSUM_PREFIX_LEN).decode("ascii", "replace")


def link_problem(
    path: Union[str, Path], link: Dict[str, Any], scan: Optional[RecordScan] = None
) -> Optional[str]:
    """Why the journal at ``path`` breaks a snapshot's journal ``link``,
    or ``None`` when record ``link["seq"]`` starts at the link's offset
    with the link's checksum.

    ``scan`` is a read from the link's offset that keeps the records from
    the link's seq on; without one, that record is read here.
    """
    seq, offset, checksum = link.get("seq"), link.get("offset"), link.get("checksum")
    if not (type(seq) is int and type(offset) is int and offset >= 0
            and type(checksum) is str):
        return f"malformed journal link {link!r}"
    if scan is None:
        scan = read_records(path, seq - 1, limit=1, start=offset)
    if not scan.records or scan.records[0]["seq"] != seq:
        return f"no intact record {seq} at byte {offset}"
    # Record ``seq`` follows the offset with no damage between; it starts
    # there only if the line there carries its checksum.
    found = _checksum_at(path, offset)
    if found != checksum:
        return f"the line at byte {offset} has checksum {found!r}, not record {seq}'s {checksum}"
    return None


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
        # The records :meth:`link` can place: (first seq, byte where it
        # starts, the lines of the latest commit), or the last record of
        # the latest scan with ``None`` for the lines.
        self._latest: Tuple[int, int, Optional[List[str]]] = (0, 0, None)
        #: Journal bytes the latest scan verified: from where it started
        #: to the end of the last intact record.
        self.scan_bytes = 0
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
        start = self._writer.end
        self._writer.append("".join(lines).encode("utf-8"))
        self._next_seq = seqs[-1] + 1
        self._latest = (first, start, lines)
        return seqs

    def link(self, seq: int) -> Optional[Dict[str, Any]]:
        """The journal link of record ``seq``: ``{"seq", "offset",
        "checksum"}``, the byte where its line starts and that line's
        checksum prefix.

        ``None`` when ``seq`` is 0 (nothing to link) or is neither in the
        latest commit nor the last record of the latest scan (nothing was
        committed since a recovery).  A commit's offsets are summed here,
        not on the commit path.
        """
        first, start, lines = self._latest
        if seq <= 0:
            return None
        if lines is not None and first <= seq < first + len(lines):
            k = seq - first
            # Journal lines are ASCII, so a line's length is its byte count.
            start += sum(map(len, lines[:k]))
            checksum = lines[k][:CHECKSUM_PREFIX_LEN]
        elif lines is None and seq == first:
            checksum = _checksum_at(self.path, start)
        else:
            return None
        return {"seq": seq, "offset": start, "checksum": checksum}

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

    def replay(
        self, after_seq: int = 0, link: Optional[Dict[str, Any]] = None
    ) -> List[JournalEntry]:
        """Records with ``seq > after_seq`` — the tail a recovery applies.

        One pass from the start of the file, or, given ``link`` (the
        journal link of record ``after_seq``, see :meth:`link`), from the
        link's offset: the prefix before it is trusted unread.  Every
        record read is checksummed and sequence-checked, only the tail's
        trips are decoded, and :attr:`next_seq` is re-seeded from the
        durable end.

        Raises:
            JournalCorruptError: as for :meth:`scan`, or the first intact
                record at the link's offset is not record ``after_seq``
                with the link's checksum: the journal does not continue
                the history the link was taken from.
        """
        return self._scan(after_seq, link)

    def _scan(
        self, after_seq: Optional[int], link: Optional[Dict[str, Any]] = None
    ) -> List[JournalEntry]:
        """The validating pass behind :meth:`scan`, :meth:`replay` and
        the opening scan (``after_seq=None``: decode no trip)."""
        start, keep_after = 0, after_seq
        if link is not None:
            # One read from the link: record ``after_seq`` and its tail.
            start, keep_after = link.get("offset"), after_seq - 1
            if type(start) is not int or start < 0 or link.get("seq") != after_seq:
                raise JournalCorruptError(
                    f"{self.path}: malformed journal link {link!r} for seq {after_seq}"
                )
        scan = read_records(self.path, keep_after, error=JournalCorruptError, start=start)
        if link is not None:
            problem = link_problem(self.path, link, scan)
            if problem is not None:
                raise JournalCorruptError(
                    f"{self.path}: {problem}; the journal does not continue "
                    "the snapshot's history"
                )
            del scan.records[0]
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
        self._latest = (scan.last_seq or 0, scan.last_start, None)
        self.scan_bytes = scan.end - start
        return entries
