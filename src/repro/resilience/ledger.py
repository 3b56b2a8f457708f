"""Append-only response ledger: the served history, out of the snapshot.

A snapshot holds only what Algorithm 2 needs to continue (station set,
cost scale, KS window, RNG, fleet), so it stays O(stations + bikes).
The response history a caller reads back after a restart lives here
instead, one checksummed *block* record per checkpoint segment, its
responses stored as columns::

    <sha256-prefix> {"count": k, "responses": {"destination_station": [...],
        ..., "walking_m": [...]}, "seq": first}

A block covers seqs ``first .. first + k - 1`` (the record log's reader
rule, :mod:`.records`); entry ``i`` of every column belongs to the
response to journal sequence ``first + i``.  Every checkpoint appends
the responses since the previous one with a single write + fsync
*before* it writes its snapshot, one block per run of seqs between two
multiples of the checkpoint cadence, so a snapshot current through seq
``S`` always finds seqs ``1..S`` on disk and ``S`` ends a block.
Cutting at the cadence keeps the ledger's bytes the same whether a
checkpoint follows the previous one or a recovery that resumed behind
it.  Records past ``S`` are legal: a crash between the ledger append
and the snapshot rename, or a recovery that fell back to an older
snapshot generation, leaves them behind.  They are cut off before the
next append, which rewrites them from the replayed journal tail.

A ledger written before block records holds one line per response,
``{"response": {...fields...}, "seq": n}``.  It is read as blocks of
one, and blocks are appended after its lines, so an old directory
recovers and keeps growing; a build that predates blocks cannot read a
block.

A damaged record inside the first ``S`` seqs is refused with
:class:`~repro.errors.LedgerCorruptError`, as is a ledger covering fewer
than ``S`` seqs or a record that runs past ``S``: recovery never hands
back a short history.
"""

from __future__ import annotations

import json
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..core.streaming import ServiceResponse
from ..errors import LedgerCorruptError
from .records import RecordWriter, frame, read_records

__all__ = ["LEDGER_NAME", "ResponseLedger"]

LEDGER_NAME = "responses.jsonl"
"""Filename of the response ledger inside a checkpoint directory."""

_FIELDS = tuple(f.name for f in fields(ServiceResponse))
_row = attrgetter(*_FIELDS)

_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode


def _encode_block(first: int, responses: Sequence[ServiceResponse]) -> str:
    """The block record of ``responses`` at seqs ``first ..``.

    The sort-keys ``json`` encoder writes it, so a NaN or a NumPy
    scalar raises ``ValueError`` or ``TypeError`` as it always has.
    """
    columns = dict(zip(_FIELDS, zip(*map(_row, responses))))
    return frame(_encode({"count": len(responses), "responses": columns, "seq": first}))


def _columns(record: dict) -> List[list]:
    """A record's response fields as columns, in :class:`ServiceResponse`
    field order; a one-response line is a block of one.

    Raises:
        KeyError, TypeError, ValueError, AttributeError: a malformed record.
    """
    if "responses" in record:
        block = record["responses"]
    else:
        block = {name: [value] for name, value in record["response"].items()}
    if type(block) is not dict or block.keys() != set(_FIELDS):
        raise ValueError(f"record at seq {record['seq']} holds no response columns")
    count = record.get("count", 1)
    columns = [block[name] for name in _FIELDS]
    if any(type(c) is not list or len(c) != count for c in columns):
        raise ValueError(f"record at seq {record['seq']} has columns not {count} long")
    return columns


class ResponseLedger:
    """Writer side of the ledger: ``count`` responses end at byte ``end``.

    Use :meth:`open` to resume an existing directory; a fresh ledger
    starts empty and creates its file on the first non-empty append, so
    a service that has served nothing writes nothing.

    Args:
        path: the ledger file.
        durable: fsync every append (tests disable it for speed).
        count: responses already on disk that belong to the history.
        end: byte offset just past the record holding response ``count``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        durable: bool = True,
        count: int = 0,
        end: int = 0,
    ) -> None:
        self.path = Path(path)
        self.count = count
        self._writer = RecordWriter(self.path, durable, end, LedgerCorruptError)

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        count: int,
        durable: bool = True,
        seen: Optional[set] = None,
    ) -> Tuple["ResponseLedger", List[ServiceResponse]]:
        """Read the records covering seqs ``1..count`` of an existing ledger.

        Returns the writer, positioned after seq ``count``, and those
        responses in seq order; their order ids are added to ``seen``
        when one is given.  Anything after them is left on disk until
        the next append cuts it off, so opening is read-only.

        Raises:
            LedgerCorruptError: when the file is missing (and ``count``
                is positive), covers fewer than ``count`` seqs with intact
                records, holds a record that runs past seq ``count``, or a
                record inside them is damaged, out of sequence or
                malformed.
        """
        path = Path(path)
        if count > 0 and not path.exists():
            raise LedgerCorruptError(
                f"{path} is missing but the snapshot is current through "
                f"seq {count}; refusing to recover without the history"
            )
        scan = read_records(path, 0, count, error=LedgerCorruptError)
        records = scan.records
        if count and (scan.last_seq or 0) > count:
            raise LedgerCorruptError(
                f"{path}: a record runs to seq {scan.last_seq}, past seq "
                f"{count} where the snapshot was taken; a snapshot's seq "
                "always ends a ledger record"
            )
        if count and not (records and records[0]["seq"] == 1 and scan.last_seq == count):
            # The reader keeps seqs consecutive: this is seqs 1..count.
            raise LedgerCorruptError(
                f"{path} holds intact records up to seq {scan.last_seq} but "
                f"the snapshot is current through seq {count}; refusing to "
                "recover a short history"
            )
        responses: List[ServiceResponse] = []
        try:
            for record in records:
                columns = _columns(record)
                responses.extend(map(ServiceResponse, *columns))
                if seen is not None:
                    seen.update(columns[0])  # order_id is the first field
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise LedgerCorruptError(f"{path}: malformed record: {exc!r}") from exc
        return cls(path, durable=durable, count=count, end=scan.end), responses

    def append(
        self, responses: Sequence[ServiceResponse], segment: Optional[int] = None
    ) -> None:
        """Durably append the responses to seqs ``count+1 ..`` with one
        write + flush + fsync, after cutting off whatever a failed earlier
        append or an abandoned generation left past seq ``count``.  They
        go out as one block record per run of seqs between two multiples
        of ``segment`` (one block when ``None``).  An empty append
        touches nothing.

        Raises:
            OSError: the write or fsync failed; ``count`` is unchanged, so
                a retry rewrites the same records.
            LedgerCorruptError: the file lost records already appended.
            ValueError, TypeError: a response holds a value JSON cannot
                represent (a NaN, a NumPy integer); nothing is written.
        """
        if not responses:
            return
        first, blocks, lo = self.count + 1, [], 0
        while lo < len(responses):
            hi = len(responses)
            if segment is not None:
                hi = min(hi, lo + segment - (first + lo - 1) % segment)
            blocks.append(_encode_block(first + lo, responses[lo:hi]))
            lo = hi
        self._writer.append("".join(blocks).encode("utf-8"))
        self.count += len(responses)

    def close(self) -> None:
        """Close the append handle (reopened on the next append)."""
        self._writer.close()
