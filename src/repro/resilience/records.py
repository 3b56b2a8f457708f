"""The checksummed record log under the trip journal and the response ledger.

Both logs store one record per line::

    <first 16 hex chars of the body's SHA-256> <JSON body>\\n

This module owns that framing, so recovery and the scrubber cannot
disagree about what is intact:

* **Reader rule** (:func:`read_records`).  A record is intact only when
  its line ends in ``\\n``, its checksum holds and its body parses to a
  JSON object with an int ``seq`` and, if present, a positive int
  ``count`` (default 1); blank lines are ignored.  A record covers seqs
  ``seq .. seq + count - 1``: every journal record and every
  response-ledger line written before block records covers one, and a
  ledger block covers one checkpoint segment.  Damage followed by an
  intact record is *mid-file damage*, a seq that does not continue the
  seqs its predecessor covers is a *seq jump*, and damage with nothing
  intact after it is a *torn tail* (a crash mid-append).
* **Writer rule** (:class:`RecordWriter`).  A batch of lines goes out
  with one write + flush (+ fsync) through the :mod:`repro.ioutil`
  fault seam.  Before every write the file is cut back to the end of
  the last intact or committed record, so a torn tail, whether a crash
  or a failed write of this writer left it, never ends up mid-file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, List, Optional, Sequence, Type, Union

from ..ioutil import checksum_hex, fs_fsync, fs_write

__all__ = ["CHECKSUM_PREFIX_LEN", "RecordScan", "RecordWriter", "frame", "read_records"]

CHECKSUM_PREFIX_LEN = 16
"""Hex chars of the per-record SHA-256 stored in front of each line."""

TORN_TAIL, MIDFILE, SEQ_JUMP = "torn_tail", "midfile", "seq_jump"

_READ_BYTES = 16 << 10
"""Lines are checksummed and parsed in batches of about this many bytes: one
``json.loads`` per batch, yet few enough parsed bodies alive at once that
the cyclic garbage collector does not keep scanning them (1 MB batches did)."""


def frame(body: str) -> str:
    """The line carrying ``body``: checksum prefix, space, body, newline."""
    return f"{checksum_hex(body.encode('utf-8'))[:CHECKSUM_PREFIX_LEN]} {body}\n"


def _body(line: bytes) -> Optional[bytes]:
    """A complete line's body if its checksum holds, else ``None``."""
    if not line.endswith(b"\n"):
        return None
    digest, sep, body = line[:-1].partition(b" ")
    if not sep or len(digest) != CHECKSUM_PREFIX_LEN:
        return None
    if checksum_hex(body)[:CHECKSUM_PREFIX_LEN].encode("ascii") != digest:
        return None
    return body


def _loads(body: bytes) -> object:
    try:
        return json.loads(body)
    except ValueError:
        return None


def _parse(bodies: Sequence[bytes]) -> List[Optional[dict]]:
    """Each body's JSON object if it has an int ``seq`` and a positive
    int ``count`` or none, else ``None``: one ``json.loads`` for the
    batch, body by body only when one is malformed."""
    try:
        values = json.loads(b"[" + b",".join(bodies) + b"]")
    except ValueError:
        values = None
    if values is None or len(values) != len(bodies):
        values = [_loads(b) for b in bodies]
    return [
        v
        if type(v) is dict
        and type(v.get("seq")) is int
        and type(v.get("count", 1)) is int
        and v.get("count", 1) >= 1
        else None
        for v in values
    ]


@dataclass
class RecordScan:
    """What :func:`read_records` found.

    Attributes:
        records: parsed bodies of the kept intact records, in order.
        last_seq: last seq the intact records cover (``None``: none).
        last_start: byte offset where that record's line begins.
        end: byte offset just past the last intact record (and past the
            blank lines before any damage).
        problem: ``None`` (clean), ``"torn_tail"``, ``"midfile"`` or
            ``"seq_jump"``.
    """

    records: List[dict] = field(default_factory=list)
    last_seq: Optional[int] = None
    last_start: int = 0
    end: int = 0
    problem: Optional[str] = None


def read_records(
    path: Union[str, Path],
    keep_after: Optional[int] = None,
    limit: Optional[int] = None,
    error: Optional[Type[Exception]] = None,
    start: int = 0,
) -> RecordScan:
    """Scan a record log by the reader rule (a missing file is empty).

    Reads from byte ``start``, which must be where a line begins; the
    bytes before it are trusted unread.  Keeps the parsed bodies of
    intact records whose first seq is past ``keep_after`` (``None``: keep
    none) and stops once the intact records read cover ``limit`` seqs, at
    mid-file damage or at a seq jump; those two raise ``error`` when one
    is given.  Every intact record covers at least one seq, so once
    ``k`` seqs are covered the next batch reads at most ``limit - k``
    lines.
    """
    scan = RecordScan(last_start=start, end=start)
    if not os.path.exists(path):
        return scan
    covered = line_no = damaged = 0
    offset = start
    with open(path, "rb") as f:
        f.seek(start)
        while scan.problem is None and (limit is None or covered < limit):
            lines = f.readlines(_READ_BYTES)
            if not lines:
                break
            if limit is not None and len(lines) > limit - covered:
                # Leave the lines no record can need unread for a later batch.
                f.seek(-sum(map(len, lines[limit - covered:])), os.SEEK_CUR)
                del lines[limit - covered:]
            bodies = [_body(line) for line in lines]
            parsed = iter(_parse([b for b in bodies if b is not None]))
            for line, body in zip(lines, bodies):
                line_no += 1
                offset += len(line)
                record = None if body is None else next(parsed)
                if record is None:
                    if line.strip():
                        damaged = damaged or line_no
                    elif not damaged:
                        scan.end = offset
                    continue
                seq = record["seq"]
                if damaged:
                    scan.problem = MIDFILE
                    why = f"damaged record at line {damaged} is followed by intact records"
                elif scan.last_seq is not None and seq != scan.last_seq + 1:
                    scan.problem = SEQ_JUMP
                    why = f"sequence jump {scan.last_seq} -> {seq} at line {line_no}"
                else:
                    span = record.get("count", 1)
                    scan.last_seq, scan.end = seq + span - 1, offset
                    scan.last_start = offset - len(line)
                    covered += span
                    if keep_after is not None and seq > keep_after:
                        scan.records.append(record)
                    if limit is not None and covered >= limit:
                        break
                    continue
                if error is not None:
                    if start:
                        why += f" (lines counted from byte {start})"
                    raise error(f"{path}: {why}; the log cannot be trusted")
                break
    if damaged and scan.problem is None:
        scan.problem = TORN_TAIL
    return scan


class RecordWriter:
    """Appends whole lines to a record log through one open handle.

    ``end`` is the byte offset the writer trusts: the end of the last
    intact record a scan found, advanced by every committed append.
    ``error`` is raised when the file is shorter than that.
    """

    def __init__(
        self, path: Union[str, Path], durable: bool, end: int, error: Type[Exception]
    ) -> None:
        self.path = Path(path)
        self.durable = durable
        self.end = end
        self.error = error
        self._fh: Optional[IO[bytes]] = None

    def append(self, data: bytes) -> None:
        """One write + flush (+ fsync) after cutting the file back to
        ``end``; a failed write or fsync leaves ``end`` where it was, so
        a retry cuts the partial write off and rewrites it."""
        fh = self._fh
        if fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = self._fh = open(self.path, "ab")
        # A failed write may have left part of its data buffered: flush
        # it, so the cut below removes it from the file.
        fh.flush()
        size = os.fstat(fh.fileno()).st_size
        if size < self.end:
            raise self.error(
                f"{self.path} shrank below the {self.end} byte(s) already "
                "committed; refusing to extend a short log"
            )
        if size > self.end:
            fh.truncate(self.end)
        fs_write(fh, data, self.path)
        fh.flush()
        if self.durable:
            fs_fsync(fh.fileno(), self.path)
        self.end += len(data)

    def close(self) -> None:
        """Close the handle (reopened on the next append)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
