"""Versioned, checksummed, atomically-written state snapshots.

File format (two lines of JSON):

.. code-block:: text

    {"format": "esharing-snapshot", "version": 2, "checksum": "<sha256>"}
    {... payload ...}

The payload line is canonical JSON (sorted keys, no whitespace) and the
header's checksum is the SHA-256 of exactly those bytes, so

* a **torn or bit-flipped file** fails the checksum (or fails to parse at
  all) and is classified :class:`~repro.errors.SnapshotCorruptError` —
  recovery skips it and falls back to the previous good snapshot;
* an **incompatible format version** is detected from the intact header
  and refused with :class:`~repro.errors.SnapshotVersionError` — never
  silently skipped, because the file is *valid*, just not ours to read.

Writes go through :func:`repro.ioutil.atomic_write_bytes` (tmp + fsync +
rename), so a crash mid-write can never leave a partial file under a
snapshot name; corruption only enters through outside forces (disk
errors, the ``repro.ioutil`` fault seam, the chaos harness's
:meth:`~repro.resilience.chaos.FaultInjector.corrupt_file`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from ..errors import SnapshotCorruptError, SnapshotError, SnapshotVersionError
from ..ioutil import atomic_write_bytes, checksum_hex

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotStore",
    "encode_snapshot",
    "decode_snapshot",
]

SNAPSHOT_FORMAT = "esharing-snapshot"
"""Magic format name embedded in every snapshot header."""

SNAPSHOT_VERSION = 2
"""Current snapshot format version; bumped on incompatible changes.

Version 2 moved the response history out of the snapshot into the
checkpoint directory's response ledger.  A version-1 directory holds
its history only inside its snapshots, so it is refused rather than
recovered with a short history."""

_NAME_RE = re.compile(r"^snapshot-(\d{10})\.json$")


@dataclass(frozen=True)
class Snapshot:
    """A decoded snapshot: its sequence number, payload and origin path.

    Attributes:
        seq: journal sequence number the payload is current through.
        payload: the decoded state payload.
        path: file the snapshot was loaded from (None for in-memory).
    """

    seq: int
    payload: Any
    path: Optional[Path] = None


def encode_snapshot(payload: Any, version: int = SNAPSHOT_VERSION) -> bytes:
    """Serialise ``payload`` into the two-line snapshot file format.

    Raises:
        ValueError: if the payload is not strict-JSON-serialisable
            (``NaN``/``Infinity`` are rejected so every written file is
            readable by any JSON parser).
    """
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    header = json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "version": version,
            "checksum": checksum_hex(body),
        },
        sort_keys=True,
    ).encode("utf-8")
    return header + b"\n" + body + b"\n"


def _verified_body(data: bytes) -> bytes:
    """The payload bytes of a snapshot file whose header and checksum
    verify; the payload itself is not parsed.

    Raises:
        SnapshotCorruptError: on a torn header, a foreign format or a
            checksum mismatch.
        SnapshotVersionError: on an intact header of another version.
    """
    head, sep, rest = data.partition(b"\n")
    if not sep:
        raise SnapshotCorruptError("snapshot truncated: no header line")
    try:
        header = json.loads(head)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotCorruptError(f"unreadable snapshot header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotCorruptError(
            f"not an {SNAPSHOT_FORMAT} file (format={header.get('format') if isinstance(header, dict) else None!r})"
        )
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format version {version!r} is not supported by this "
            f"build (expected {SNAPSHOT_VERSION}); refusing to load — "
            "migrate the checkpoint directory or match the software version"
        )
    body = rest.rstrip(b"\n")
    if checksum_hex(body) != header.get("checksum"):
        raise SnapshotCorruptError(
            "snapshot payload failed its checksum (torn or corrupted write)"
        )
    return body


def decode_snapshot(data: bytes) -> Any:
    """Parse and verify a snapshot file's bytes; returns the payload.

    Raises:
        SnapshotCorruptError: on any parse or checksum failure — the
            signature of a torn or bit-rotted file.
        SnapshotVersionError: when the header is intact but written by an
            incompatible format version; loading must be refused, not
            skipped.
    """
    body = _verified_body(data)
    try:
        return json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:  # pragma: no cover - checksum catches first
        raise SnapshotCorruptError(f"unreadable snapshot payload: {exc}") from exc


class SnapshotStore:
    """A directory of rotated snapshots with corrupt-tolerant loading.

    Files are named ``snapshot-<seq>.json`` where ``seq`` is the journal
    sequence number the state is current through; :meth:`save` deletes
    only files older than the ``keep``-th newest *good* generation, so
    torn files never push the good ones out.

    Args:
        directory: where snapshots live; created if missing.
        keep: how many snapshot generations to retain (>= 1).
        durable: fsync file and directory on every save (tests disable
            for speed; atomicity is kept either way).

    Raises:
        ValueError: if ``keep`` is not positive.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        keep: int = 3,
        durable: bool = True,
    ) -> None:
        if keep <= 0:
            raise ValueError(f"keep must be positive, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.durable = durable

    # ------------------------------------------------------------------
    def path_for(self, seq: int) -> Path:
        """Filename a snapshot at journal sequence ``seq`` is stored under."""
        return self.directory / f"snapshot-{seq:010d}.json"

    def list(self) -> List[Tuple[int, Path]]:
        """``(seq, path)`` of every snapshot file, ascending by seq."""
        out = []
        for path in self.directory.iterdir():
            match = _NAME_RE.match(path.name)
            if match:
                out.append((int(match.group(1)), path))
        return sorted(out)

    def save(self, payload: Any, seq: int) -> Path:
        """Write a snapshot current through journal sequence ``seq``.

        The write is atomic; afterwards the files older than the
        ``keep``-th newest good generation are pruned.

        Raises:
            ValueError: on a negative sequence number.
            OSError: on filesystem failure (the previous snapshots are
                untouched).
        """
        if seq < 0:
            raise ValueError(f"seq must be non-negative, got {seq}")
        path = self.path_for(seq)
        atomic_write_bytes(path, encode_snapshot(payload), durable=self.durable)
        self._prune(path)
        return path

    def _prune(self, written: Path) -> None:
        """Delete the files older than the ``keep``-th good generation.

        Files are walked newest first; ``written`` (just saved) counts as
        good, the others by their header and checksum alone.  A corrupt
        file never counts, so it cannot push a good one out; one newer
        than the ``keep``-th good generation is left for
        :meth:`load_latest` to skip.
        """
        good = 0
        entries = self.list()
        for i in range(len(entries) - 1, -1, -1):
            path = entries[i][1]
            if path != written:
                try:
                    _verified_body(path.read_bytes())
                except (OSError, SnapshotError):
                    continue
            good += 1
            if good == self.keep:
                for _seq, old in entries[:i]:
                    try:
                        old.unlink()
                    except OSError:
                        pass
                return

    def load_latest(self) -> Snapshot:
        """The newest snapshot that passes verification.

        Corrupt (torn) files are skipped, newest first, falling back to
        the previous good generation; a version mismatch is refused.

        Raises:
            SnapshotError: when no usable snapshot exists at all.
            SnapshotVersionError: when a snapshot is intact but written
                by an incompatible format version.
        """
        corrupt: List[str] = []
        for seq, path in reversed(self.list()):
            try:
                payload = decode_snapshot(path.read_bytes())
            except SnapshotCorruptError as exc:
                corrupt.append(f"{path.name}: {exc}")
                continue
            return Snapshot(seq=seq, payload=payload, path=path)
        detail = f" (skipped corrupt: {'; '.join(corrupt)})" if corrupt else ""
        raise SnapshotError(
            f"no usable snapshot in {self.directory}{detail}"
        )
