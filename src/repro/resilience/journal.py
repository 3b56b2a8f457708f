"""Write-ahead trip journal with exact replay recovery.

Every trip is appended (and flushed, optionally fsynced) *before* it is
applied to the service, so the durable journal is always at least as
long as any state a snapshot can capture.  Recovery is then::

    restore(latest good snapshot)        # state through journal seq S
    replay(journal entries with seq > S) # the tail the crash cut off

and reproduces the exact state and response stream of an uninterrupted
run — the trips are the only input, and the restored RNG replays the
same coin flips.

Record format, one per line::

    <sha256-prefix> {"seq": n, "trip": {...}}

The checksum covers the JSON body.  A damaged *final* line is the
expected signature of a crash mid-append and is dropped silently; damage
anywhere earlier means the file cannot be trusted and raises
:class:`~repro.errors.JournalCorruptError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional, Sequence, Union

import numpy as np

from ..core.tripblock import TripBlock, us_to_datetime
from ..datasets.trips import TripRecord
from ..errors import JournalCorruptError
from ..ioutil import checksum_hex, checksum_hex_many, fs_fsync, fs_write
from ..serialize import trip_from_state, trip_to_state

__all__ = ["JournalEntry", "TripJournal", "CHECKSUM_PREFIX_LEN"]

CHECKSUM_PREFIX_LEN = 16
"""Hex chars of the per-record SHA-256 stored in front of each line."""


@dataclass(frozen=True)
class JournalEntry:
    """One replayable journal record.

    Attributes:
        seq: 1-based append sequence number.
        trip: the journaled trip.
    """

    seq: int
    trip: TripRecord


def _encode_line(seq: int, trip: TripRecord) -> str:
    body = json.dumps(
        {"seq": seq, "trip": trip_to_state(trip)},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    digest = checksum_hex(body.encode("utf-8"))[:CHECKSUM_PREFIX_LEN]
    return f"{digest} {body}\n"


def _encode_block_lines(seqs: Sequence[int], block: TripBlock) -> List[str]:
    """Journal lines for a whole :class:`TripBlock`, built straight from
    the columns — byte-identical to :func:`_encode_line` on each
    materialised trip.

    The hand-assembled body relies on three facts about the scalar
    encoding: ``json.dumps(sort_keys=True)`` emits the trip keys in the
    fixed alphabetical order reproduced here; JSON renders Python ints
    and floats via ``repr`` (the ``tolist()`` columns are native Python
    scalars, so ``repr`` matches what the per-trip path serialises); and
    the only string field is an ISO-8601 timestamp, which never needs
    escaping.  Non-finite floats cannot take this shortcut (the scalar
    path raises through ``json.dumps(allow_nan=False)``), so those
    blocks fall back to the per-trip encoder for identical errors.
    """
    finite = np.isfinite(block.start_x) & np.isfinite(block.start_y)
    finite &= np.isfinite(block.end_x) & np.isfinite(block.end_y)
    finite &= np.isfinite(block.geodesic_m) | ~block.has_geodesic
    finite &= np.isfinite(block.battery) | ~block.has_battery
    if not bool(finite.all()):
        return [_encode_line(s, t) for s, t in zip(seqs, block.to_trips())]
    if not bool((block.start_us % 1_000_000).any()):
        # Whole-second timestamps (the normal trip feed): numpy renders
        # the ISO strings in one vectorized call, character-identical to
        # ``datetime.isoformat`` at second resolution.
        iso = np.datetime_as_string(
            block.start_us.astype("datetime64[us]").astype("datetime64[s]")
        ).tolist()
    else:
        iso = [us_to_datetime(us).isoformat() for us in block.start_us.tolist()]
    bodies = []
    append = bodies.append
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
        append(body)
    # Checksums for the whole group commit in one batched pass rather
    # than a fresh hashlib round-trip per line.
    digests = checksum_hex_many(
        (body.encode("utf-8") for body in bodies), CHECKSUM_PREFIX_LEN
    )
    return [f"{d} {body}\n" for d, body in zip(digests, bodies)]


def _decode_line(line: str) -> Optional[JournalEntry]:
    """Parse one journal line; ``None`` signals a damaged record."""
    digest, sep, body = line.rstrip("\n").partition(" ")
    if not sep or len(digest) != CHECKSUM_PREFIX_LEN:
        return None
    if checksum_hex(body.encode("utf-8"))[:CHECKSUM_PREFIX_LEN] != digest:
        return None
    try:
        record = json.loads(body)
        return JournalEntry(seq=int(record["seq"]), trip=trip_from_state(record["trip"]))
    except (ValueError, KeyError, TypeError, IndexError):
        return None


class TripJournal:
    """Append-only write-ahead log of trips, one checksummed line each.

    Args:
        path: the journal file; created on first append, re-opened for
            append when it already exists (sequence numbering continues
            from the durable tail).
        durable: ``fsync`` after every append so records survive power
            loss, not just process crash.  Tests disable it for speed.

    Raises:
        JournalCorruptError: if an existing file is damaged anywhere
            other than its final record.
    """

    def __init__(self, path: Union[str, Path], durable: bool = True) -> None:
        self.path = Path(path)
        self.durable = durable
        self._fh: Optional[IO[str]] = None
        self._next_seq = self._scan_tail() + 1

    def _scan_tail(self) -> int:
        if not self.path.exists():
            return 0
        entries = self.scan()
        return entries[-1].seq if entries else 0

    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`append` will assign."""
        return self._next_seq

    def append(self, trip: TripRecord) -> int:
        """Durably journal one trip; returns its sequence number.

        A group commit of one: the record is flushed (and fsynced when
        ``durable``) before this returns, so a trip is never applied to
        the service without being recoverable from disk.
        """
        return self.append_block([trip])[0]

    def append_block(
        self, trips: Union[Sequence[TripRecord], TripBlock]
    ) -> List[int]:
        """Group-commit: durably journal a whole block with **one**
        write + flush + fsync; returns the assigned sequence numbers.

        The bytes written do not depend on how the trips are cut into
        blocks — same records, same order, same sequence numbers — but
        the fsync cost is amortised over the block, which is where the
        blocked stream path earns most of its speedup on a durable
        journal.  A columnar :class:`~repro.core.tripblock.TripBlock` is
        accepted directly and encoded straight from its arrays
        (:func:`_encode_block_lines`) — same bytes again, without
        materialising per-trip records.

        Crash semantics are unchanged: the block goes out as one
        contiguous write, so a crash mid-commit leaves an intact prefix
        of the block's records plus at most one torn final line — the
        exact shape :meth:`scan` already tolerates.  Records of the
        block *after* the tear are simply absent (never applied either:
        the caller applies only after this returns), so recovery still
        sees a journal that is at least as long as any applied state.
        """
        if not len(trips):
            return []
        first = self._next_seq
        seqs = list(range(first, first + len(trips)))
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        if isinstance(trips, TripBlock):
            lines = _encode_block_lines(seqs, trips)
        else:
            lines = [_encode_line(s, t) for s, t in zip(seqs, trips)]
        fs_write(self._fh, "".join(lines), self.path)
        self._fh.flush()
        if self.durable:
            fs_fsync(self._fh.fileno(), self.path)
        self._next_seq = seqs[-1] + 1
        return seqs

    def close(self) -> None:
        """Close the underlying file handle (reopened on next append)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    def scan(self) -> List[JournalEntry]:
        """Every intact record in order, dropping only a torn tail.

        Raises:
            JournalCorruptError: if a damaged record is followed by an
                intact one (mid-file corruption — the log cannot be
                trusted) or if sequence numbers are not consecutive.
        """
        if not self.path.exists():
            return []
        entries: List[JournalEntry] = []
        torn_at: Optional[int] = None
        with open(self.path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                if line.strip() == "":
                    continue
                entry = _decode_line(line)
                if entry is None:
                    # Tolerated only as the very last record (torn append).
                    torn_at = line_no
                    continue
                if torn_at is not None:
                    raise JournalCorruptError(
                        f"{self.path}: damaged record at line {torn_at} is "
                        "followed by intact records — journal unusable"
                    )
                if entries and entry.seq != entries[-1].seq + 1:
                    raise JournalCorruptError(
                        f"{self.path}: sequence jump {entries[-1].seq} -> "
                        f"{entry.seq} at line {line_no}"
                    )
                entries.append(entry)
        return entries

    def replay(self, after_seq: int = 0) -> List[JournalEntry]:
        """Records with ``seq > after_seq`` — the tail a recovery applies.

        Raises:
            JournalCorruptError: as for :meth:`scan`.
        """
        return [e for e in self.scan() if e.seq > after_seq]
