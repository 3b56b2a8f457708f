"""Durable file I/O: atomic writes and content checksums.

Every file the system must be able to trust after a crash — checkpoint
snapshots, the trip journal's rotation target, CSV exports, event-log
dumps — goes through :func:`atomic_write_bytes`: write to a temporary
sibling, flush, ``fsync``, then ``os.replace`` onto the final name.  On
POSIX the rename is atomic, so a reader can never observe a
partially-written file under the final path; a crash mid-write leaves
only a ``*.tmp-*`` sibling that the next writer ignores.

Checksums use SHA-256; :func:`checksum_hex` is the single definition the
snapshot and journal formats both embed.

Long-running logs (dead letters, incidents, scrub history) are the
other disk form: :func:`append_rotating` appends to a JSONL file and
rotates it past a size cap (:func:`rotate_file`); :class:`RowLog` uses
it to append only the rows recorded since its last flush.

Every durable write and fsync funnels through a module-level **fault
seam** (:func:`fs_write` / :func:`fs_fsync`): a passthrough by default,
but :func:`install_fs_seam` lets the storage fault injector
(:class:`repro.resilience.faultfs.FaultFS`) interpose deterministic
``ENOSPC``, torn writes and fsync failures without monkey-patching the
callers.  Production code never installs a seam; the passthrough adds
one function call per write.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import IO, Any, Generic, List, TypeVar, Union

__all__ = [
    "ROW_KEEP",
    "RowLog",
    "append_rotating",
    "atomic_write_bytes",
    "atomic_write_text",
    "checksum_hex",
    "fsync_dir",
    "fs_write",
    "fs_fsync",
    "install_fs_seam",
    "rotate_file",
]


class _PassthroughFS:
    """Default seam: real writes, real fsyncs, no bookkeeping."""

    def write(self, fh: IO, data, path: Path) -> None:
        fh.write(data)

    def fsync(self, fileno: int, path: Path) -> None:
        os.fsync(fileno)


_FS = _PassthroughFS()


def install_fs_seam(seam) -> object:
    """Install a write/fsync interposer; returns the previous seam.

    The seam object must expose ``write(fh, data, path)`` and
    ``fsync(fileno, path)``.  Passing ``None`` restores the passthrough.
    Callers are expected to restore the previous seam when done (the
    fault injector's context manager does this), because the seam is
    process-global: every durable write in the process flows through it.
    """
    global _FS
    previous = _FS
    _FS = seam if seam is not None else _PassthroughFS()
    return previous


def fs_write(fh: IO, data, path: Union[str, Path]) -> None:
    """Write ``data`` (bytes or str, matching the handle's mode) to an
    open handle through the installed fault seam."""
    _FS.write(fh, data, Path(path))


def fs_fsync(fileno: int, path: Union[str, Path]) -> None:
    """``os.fsync`` through the installed fault seam."""
    _FS.fsync(fileno, Path(path))


def checksum_hex(data: bytes) -> str:
    """SHA-256 hex digest of ``data`` — the checkpoint/journal checksum."""
    return hashlib.sha256(data).hexdigest()


def fsync_dir(directory: Union[str, Path]) -> None:
    """Flush a directory entry so a completed rename survives power loss.

    Best-effort: platforms without directory fsync (e.g. Windows) are
    silently tolerated — the rename itself is still atomic there.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path], data: bytes, durable: bool = True
) -> Path:
    """Write ``data`` to ``path`` via tmp + (fsync) + rename.

    Args:
        path: final destination; its parent must exist.
        data: full file contents.
        durable: also ``fsync`` the file and its directory, so the write
            survives power loss as well as process crash.  Tests disable
            this for speed — atomicity (no torn file under ``path``) is
            preserved either way.

    Returns:
        The destination as a :class:`~pathlib.Path`.

    Raises:
        OSError: on any filesystem failure; the temporary file is removed
            when possible and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{uuid.uuid4().hex[:8]}")
    try:
        with open(tmp, "wb") as f:
            fs_write(f, data, tmp)
            f.flush()
            if durable:
                fs_fsync(f.fileno(), tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(path.parent)
    return path


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    encoding: str = "utf-8",
    durable: bool = True,
) -> Path:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding), durable=durable)


def rotate_file(
    path: Union[str, Path],
    max_bytes: int,
    pending_bytes: int = 0,
    durable: bool = True,
) -> bool:
    """Size-capped log rotation: ``foo.jsonl`` → ``foo.1.jsonl``.

    When ``path`` exists and its size plus ``pending_bytes`` (the append
    about to happen) would exceed ``max_bytes``, the file is atomically
    renamed to its ``.1`` sibling — replacing any previous generation —
    so the caller can start a fresh file.  Returns whether a rotation
    happened.  A missing or empty file never rotates (a single oversized
    record still lands somewhere).

    Raises:
        ValueError: if ``max_bytes`` is not positive.
    """
    if max_bytes <= 0:
        raise ValueError(f"max_bytes must be positive, got {max_bytes}")
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return False
    if size == 0 or size + pending_bytes <= max_bytes:
        return False
    rotated = path.with_name(f"{path.stem}.1{path.suffix}")
    os.replace(path, rotated)
    if durable:
        fsync_dir(path.parent)
    return True


def append_rotating(
    path: Union[str, Path], text: str, max_bytes: int, durable: bool = True
) -> None:
    """Append ``text`` to a size-capped log through the fault seam,
    first rotating the file (:func:`rotate_file`) when the append would
    take it past ``max_bytes``."""
    rotate_file(path, max_bytes, len(text), durable=durable)
    with open(path, "a", encoding="utf-8") as f:
        fs_write(f, text, path)
        f.flush()
        if durable:
            fs_fsync(f.fileno(), path)


Row = TypeVar("Row")

#: Detail rows an in-memory log (dead letters, incidents, the
#: supervisor's quarantine ledger) retains; counters stay exact.
ROW_KEEP = 10_000


class RowLog(Generic[Row]):
    """Bounded in-memory rows with an append-only, size-capped JSONL flush.

    :attr:`total` counts every row ever recorded; the detail rows in
    :attr:`rows` rotate past ``keep``.  Subclasses record through
    :meth:`_record` and turn a row into its JSON object with
    :meth:`_json`.
    """

    def __init__(self, keep: int = ROW_KEEP) -> None:
        if keep <= 0:
            raise ValueError(f"keep must be positive, got {keep}")
        self.keep = keep
        self.rows: List[Row] = []
        self.total = 0
        self._flushed_total = 0

    def __len__(self) -> int:
        return self.total

    def __iter__(self):
        return iter(self.rows)

    def _record(self, row: Row) -> None:
        self.total += 1
        self.rows.append(row)
        if len(self.rows) > self.keep:
            del self.rows[: len(self.rows) - self.keep]

    def _json(self, row: Row) -> Any:
        raise NotImplementedError

    def append_jsonl(
        self,
        path: Union[str, Path],
        durable: bool = True,
        max_bytes: int = 1_000_000,
    ) -> Path:
        """Append the rows not yet flushed; rotate past ``max_bytes``.

        Each call flushes only rows recorded since the previous call, so
        repeated flushes (one per epoch, one per supervised restart
        generation) grow one continuous history instead of rewriting
        it.  When the file plus the pending append would exceed
        ``max_bytes`` it is first renamed to ``<stem>.1<suffix>``
        (atomic ``os.replace``), replacing the previous rotated
        generation, so on-disk history is bounded by roughly two caps.
        A flush with nothing new only makes sure the file exists, and
        writes and syncs nothing.  Rows that rotated out of memory
        before ever being flushed are skipped (:attr:`total` stays
        exact).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        start = max(self._flushed_total, self.total - len(self.rows))
        fresh = self.rows[len(self.rows) - (self.total - start):] if self.total > start else []
        self._flushed_total = self.total
        if not fresh:
            # The file must exist after a flush: an operator greps an
            # empty log, not a missing one.
            path.touch()
            return path
        payload = "".join(json.dumps(self._json(row)) + "\n" for row in fresh)
        append_rotating(path, payload, max_bytes, durable=durable)
        return path
