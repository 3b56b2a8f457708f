"""Append-only response ledger: the served history, out of the snapshot.

A snapshot holds only what Algorithm 2 needs to continue (station set,
cost scale, KS window, RNG, fleet), so it stays O(stations + bikes).
The response history a caller reads back after a restart lives here
instead, one checksummed line per applied trip::

    <sha256-prefix> {"response": {...ServiceResponse fields...}, "seq": n}

Record ``n`` is the response to journal sequence ``n``.  Every
checkpoint appends the responses since the previous one with a single
write + fsync *before* it writes its snapshot, so a snapshot current
through seq ``S`` always finds records ``1..S`` on disk.  Records past
``S`` are legal: a crash between the ledger append and the snapshot
rename, or a recovery that fell back to an older snapshot generation,
leaves them behind.  They are cut off before the next append, which
rewrites them from the replayed journal tail.  The framing, the reader
and that cut are the shared record log's (:mod:`.records`); the ledger
owns only its line encoder and the decoding of ``response``.

A damaged record inside the first ``S`` is refused with
:class:`~repro.errors.LedgerCorruptError`, as is a ledger holding fewer
than ``S`` records: recovery never hands back a short history.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from ..core.streaming import ServiceResponse
from ..errors import LedgerCorruptError
from .records import RecordWriter, frame, read_records

__all__ = ["LEDGER_NAME", "ResponseLedger"]

LEDGER_NAME = "responses.jsonl"
"""Filename of the response ledger inside a checkpoint directory."""

_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode


def _encode_line(seq: int, response: ServiceResponse) -> bytes:
    """One ledger line, byte-identical to the sort-keys ``json`` encoder.

    The body is assembled by hand when every field has exactly its plain
    type and ``walking_m`` is finite: the keys are written in sorted
    order, ints and floats through their ``repr`` (what ``json`` emits
    for them), bools and ``None`` as JSON literals.  Anything else (a
    NumPy scalar, a bool in an int field, a NaN) goes through the
    ``json`` encoder, so it gets the same bytes or raises the same
    ``ValueError`` or ``TypeError``.
    """
    r = response
    removed, walking = r.removed_station, r.walking_m
    if (
        type(r.order_id) is int
        and type(r.served) is bool
        and type(r.origin_station) is int
        and type(r.destination_station) is int
        and type(r.opened_new) is bool
        and (removed is None or type(removed) is int)
        and type(walking) is float
        and math.isfinite(walking)
    ):
        text = (
            f'{{"response":{{"destination_station":{r.destination_station},'
            f'"opened_new":{"true" if r.opened_new else "false"},'
            f'"order_id":{r.order_id},'
            f'"origin_station":{r.origin_station},'
            f'"removed_station":{"null" if removed is None else removed},'
            f'"served":{"true" if r.served else "false"},'
            f'"walking_m":{float.__repr__(walking)}}},"seq":{seq}}}'
        )
    else:
        text = _encode({"response": vars(response), "seq": seq})
    return frame(text).encode("utf-8")


class ResponseLedger:
    """Writer side of the ledger: ``count`` records end at byte ``end``.

    Use :meth:`open` to resume an existing directory; a fresh ledger
    starts empty and creates its file on the first non-empty append, so
    a service that has served nothing writes nothing.

    Args:
        path: the ledger file.
        durable: fsync every append (tests disable it for speed).
        count: records already on disk that belong to the history.
        end: byte offset just past record ``count``.
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
        cls, path: Union[str, Path], count: int, durable: bool = True
    ) -> Tuple["ResponseLedger", List[ServiceResponse]]:
        """Read the first ``count`` records of an existing ledger.

        Returns the writer, positioned after record ``count``, and those
        records' responses in seq order.  Anything after them is left on
        disk until the next append cuts it off, so opening is read-only.

        Raises:
            LedgerCorruptError: when the file is missing (and ``count``
                is positive), holds fewer than ``count`` intact records,
                or a record inside them is damaged or out of sequence.
        """
        path = Path(path)
        if count > 0 and not path.exists():
            raise LedgerCorruptError(
                f"{path} is missing but the snapshot is current through "
                f"seq {count}; refusing to recover without the history"
            )
        scan = read_records(path, 0, count, error=LedgerCorruptError)
        if count and not len(scan.records) == scan.last_seq == count:
            # The reader keeps seqs consecutive: this is records 1..count.
            raise LedgerCorruptError(
                f"{path} holds {len(scan.records)} intact record(s) up to seq "
                f"{scan.last_seq} but the snapshot is current through seq "
                f"{count}; refusing to recover a short history"
            )
        try:
            responses = [ServiceResponse(**r["response"]) for r in scan.records]
        except (KeyError, TypeError) as exc:
            raise LedgerCorruptError(f"{path}: malformed record: {exc!r}") from exc
        return cls(path, durable=durable, count=count, end=scan.end), responses

    def append(self, responses: Sequence[ServiceResponse]) -> None:
        """Durably append the responses to seqs ``count+1 ..`` with one
        write + flush + fsync, after cutting off whatever a failed earlier
        append or an abandoned generation left past record ``count``.  An
        empty append touches nothing.

        Raises:
            OSError: the write or fsync failed; ``count`` is unchanged, so
                a retry rewrites the same records.
            LedgerCorruptError: the file lost records already appended.
        """
        if not responses:
            return
        first = self.count + 1
        self._writer.append(b"".join(
            _encode_line(seq, r) for seq, r in enumerate(responses, start=first)
        ))
        self.count += len(responses)

    def close(self) -> None:
        """Close the append handle (reopened on the next append)."""
        self._writer.close()
