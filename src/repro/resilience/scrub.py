"""Background integrity scrubbing of checkpoint storage.

Recovery trusts the disk at the worst possible moment — after a crash.
The scrubber moves that trust check to a quiet moment instead: it walks
a checkpoint directory (or a whole sharded fleet root) verifying every
checksum the formats embed, and repairs what the formats were designed
to survive:

* a **corrupt snapshot** (torn write that raced a crash, or bit-rot at
  rest) is *demoted* — renamed to ``*.corrupt`` so
  :class:`~repro.resilience.SnapshotStore` falls back to the previous
  good generation without having to re-discover the damage at recovery
  time;
* a **torn journal or ledger tail** (the expected signature of a crash
  or injected fault mid-append) is *rebuilt* — the file is truncated at
  the last intact record boundary, exactly the prefix recovery would
  use: the scrubber reads both with recovery's own reader
  (:func:`~repro.resilience.records.read_records`);
* **orphan ``*.tmp-*`` files** (a process killed between the tmp write
  and the rename) are removed;
* **damaged log lines** in the advisory JSONL logs (incidents,
  dead-letters, scrub history) are dropped, keeping every intact row.

What it refuses to touch, it reports loudly: mid-file journal or
ledger damage or a sequence jump (the WAL or the response history
cannot be trusted), a snapshot whose journal link does not hold (the
journal does not continue its history; recovery reads the journal only
from that link, so the scrubber is what verifies the prefix before it),
a snapshot from an incompatible format version, a
directory with *no* usable snapshot left, an unreadable shard
manifest.  Those need an operator, not a script.

Every run emits its findings into the directory's own log stream
(``logs/scrub.jsonl``, size-capped like the incident log), so scrub
history travels with the data it describes.  ``esharing scrub`` is the
operator entry point; the fleet supervisor also runs a scrub after each
epoch's checkpoints and a journal-tail repair before every shard
restart.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from ..errors import SnapshotCorruptError, SnapshotVersionError
from ..ioutil import append_rotating, atomic_write_bytes, fs_fsync, fsync_dir
from .journal import JOURNAL_NAME, link_problem
from .ledger import LEDGER_NAME
from .records import MIDFILE, SEQ_JUMP, read_records
from .snapshot import decode_snapshot

__all__ = [
    "ScrubFinding",
    "ScrubReport",
    "repair_journal_tail",
    "scrub_journal",
    "scrub_ledger",
    "scrub_snapshots",
    "scrub_checkpoint_dir",
    "scrub_tree",
]

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{10})\.json$")
_SHARD_DIR_RE = re.compile(r"^shard-(\d{3,})$")

#: Root-level files of a sharded fleet (kept as literals: resilience
#: must not import repro.shard, which sits above it).
_PLAN_FILE = "shardplan.json"
_HALO_FILE = "halo.json"

_SCRUB_LOG_MAX_BYTES = 1_000_000


@dataclass(frozen=True)
class ScrubFinding:
    """One damaged (or cleaned-up) artefact the scrubber met.

    Attributes:
        path: the file, relative to the scrub root when possible.
        kind: damage class (``snapshot_corrupt``, ``journal_torn_tail``,
            ``journal_midfile``, ``journal_seq_jump``,
            ``ledger_torn_tail``, ``ledger_midfile``,
            ``ledger_seq_jump``, ``journal_link``, ``orphan_tmp``,
            ``log_damaged_lines``, ``no_usable_snapshot``,
            ``snapshot_version``, ``manifest_unreadable``,
            ``halo_unreadable``).
        action: what happened — ``repaired`` / ``demoted`` / ``removed``
            (fixed), ``found`` (check-only run, repairable), or
            ``refused`` (unrepairable without an operator).
        detail: human-readable specifics.
    """

    path: str
    kind: str
    action: str
    detail: str


@dataclass
class ScrubReport:
    """Everything one scrub pass saw, plus exact traffic counts."""

    root: str
    findings: List[ScrubFinding] = field(default_factory=list)
    snapshots_checked: int = 0
    journals_checked: int = 0
    ledgers_checked: int = 0
    logs_checked: int = 0

    @property
    def repaired(self) -> int:
        return sum(1 for f in self.findings if f.action in ("repaired", "demoted", "removed"))

    @property
    def found(self) -> int:
        return sum(1 for f in self.findings if f.action == "found")

    @property
    def refused(self) -> int:
        return sum(1 for f in self.findings if f.action == "refused")

    @property
    def clean(self) -> bool:
        return not self.findings

    def extend(self, other: "ScrubReport") -> None:
        """Fold another report's findings and counters into this one
        (used when a fleet scrub merges per-shard reports)."""
        self.findings.extend(other.findings)
        self.snapshots_checked += other.snapshots_checked
        self.journals_checked += other.journals_checked
        self.ledgers_checked += other.ledgers_checked
        self.logs_checked += other.logs_checked

    def to_text(self) -> str:
        """Human-readable summary: one header line plus one line per
        finding, the format ``esharing scrub`` prints."""
        head = (
            f"scrub {self.root}: {self.snapshots_checked} snapshot(s), "
            f"{self.journals_checked} journal(s), {self.ledgers_checked} "
            f"ledger(s), {self.logs_checked} log(s) checked — "
            f"{self.repaired} repaired, {self.found} found, "
            f"{self.refused} refused"
        )
        lines = [head]
        for f in self.findings:
            lines.append(f"  [{f.action}] {f.kind}: {f.path} — {f.detail}")
        return "\n".join(lines)


def _rel(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


# ----------------------------------------------------------------------
# journal and ledger
def _scrub_records(
    path: Path, repair: bool, durable: bool, root: Optional[Path],
    kind: str, trusted: str,
) -> List[ScrubFinding]:
    """Verify one journal or ledger (``kind``) with the record log's
    reader; truncate a torn tail when asked, refuse mid-file damage and
    sequence jumps."""
    rel = _rel(path, root or path.parent)
    scan = read_records(path)
    if scan.problem is None:
        return []
    if scan.problem == MIDFILE:
        return [ScrubFinding(
            rel, f"{kind}_midfile", "refused",
            f"damaged record before byte {scan.end} is followed by intact "
            f"records — {trusted} cannot be trusted; restore from a replica",
        )]
    if scan.problem == SEQ_JUMP:
        return [ScrubFinding(
            rel, f"{kind}_seq_jump", "refused",
            f"sequence jump after byte {scan.end} — records are missing "
            "mid-file; restore from a replica",
        )]
    torn = path.stat().st_size - scan.end
    if not repair:
        return [ScrubFinding(
            rel, f"{kind}_torn_tail", "found",
            f"{torn} damaged trailing byte(s) after the last intact record",
        )]
    with open(path, "r+b") as f:
        f.truncate(scan.end)
        f.flush()
        if durable:
            fs_fsync(f.fileno(), path)
    return [ScrubFinding(
        rel, f"{kind}_torn_tail", "repaired",
        f"truncated {torn} damaged trailing byte(s) at offset {scan.end}",
    )]


def scrub_journal(
    path: Union[str, Path],
    repair: bool = True,
    durable: bool = True,
    root: Optional[Path] = None,
) -> List[ScrubFinding]:
    """Verify one write-ahead journal; truncate a torn tail when asked.

    A torn tail (:mod:`~repro.resilience.records`) is the normal crash
    signature: truncating it keeps the exact prefix
    :meth:`~repro.resilience.TripJournal.scan` replays anyway.  Mid-file
    damage or a sequence jump means the log cannot be trusted and is
    refused.
    """
    return _scrub_records(Path(path), repair, durable, root, "journal", "the WAL")


def scrub_ledger(
    path: Union[str, Path],
    repair: bool = True,
    durable: bool = True,
    root: Optional[Path] = None,
) -> List[ScrubFinding]:
    """Verify one response ledger, exactly as :func:`scrub_journal`
    verifies a journal: a torn tail lies past the newest snapshot's
    records, so truncating it loses nothing recovery reads.
    """
    return _scrub_records(
        Path(path), repair, durable, root, "ledger", "the response history"
    )


def repair_journal_tail(
    path: Union[str, Path], durable: bool = True
) -> List[ScrubFinding]:
    """Convenience used before every supervised shard restart: rebuild a
    torn journal tail in place (mid-file damage still refuses)."""
    return scrub_journal(path, repair=True, durable=durable)


# ----------------------------------------------------------------------
# snapshots
def scrub_snapshots(
    directory: Union[str, Path],
    repair: bool = True,
    durable: bool = True,
    root: Optional[Path] = None,
) -> List[ScrubFinding]:
    """Verify every ``snapshot-*.json``; demote the corrupt ones.

    Demotion renames a corrupt file to ``<name>.corrupt`` so it drops
    out of the store's listing and recovery falls straight back to the
    previous good generation.  A version-mismatched snapshot is intact —
    just not ours to read — and is refused, as is a directory whose
    every snapshot is gone: nothing good to fall back to.  So is a good
    snapshot whose journal link does not hold: the journal does not
    continue its history (a snapshot without a link passes).
    """
    directory = Path(directory)
    rroot = root or directory
    findings: List[ScrubFinding] = []
    entries = sorted(
        (int(m.group(1)), p)
        for p in directory.iterdir()
        if (m := _SNAPSHOT_RE.match(p.name))
    )
    good = 0
    for _seq, path in entries:
        try:
            payload = decode_snapshot(path.read_bytes())
        except SnapshotCorruptError as exc:
            action, detail = "found", str(exc)
            if repair:
                demoted = path.with_name(path.name + ".corrupt")
                os.replace(path, demoted)
                if durable:
                    fsync_dir(directory)
                action, detail = "demoted", f"{exc}; demoted to {demoted.name}"
            findings.append(
                ScrubFinding(_rel(path, rroot), "snapshot_corrupt", action, detail)
            )
        except SnapshotVersionError as exc:
            findings.append(ScrubFinding(
                _rel(path, rroot), "snapshot_version", "refused", str(exc)
            ))
        else:
            good += 1
            link = payload.get("journal") if isinstance(payload, dict) else None
            problem = link and link_problem(directory / JOURNAL_NAME, link)
            if problem:
                findings.append(ScrubFinding(
                    _rel(path, rroot), "journal_link", "refused",
                    f"{problem} of {JOURNAL_NAME} — the journal does not "
                    "continue this snapshot's history; restore from a replica",
                ))
    if entries and good == 0:
        findings.append(ScrubFinding(
            _rel(directory, rroot) or ".", "no_usable_snapshot", "refused",
            f"all {len(entries)} snapshot(s) are corrupt or unreadable — "
            "recovery has nothing to restore; restore from a replica",
        ))
    return findings


# ----------------------------------------------------------------------
# orphan tmp files and advisory logs
def _scrub_orphans(
    directory: Path, repair: bool, durable: bool, root: Path
) -> List[ScrubFinding]:
    findings: List[ScrubFinding] = []
    for path in sorted(directory.glob("*.tmp-*")):
        action, detail = "found", "leftover temporary from an interrupted atomic write"
        if repair:
            try:
                path.unlink()
            except OSError as exc:
                action, detail = "refused", f"unlink failed: {exc}"
            else:
                action = "removed"
                if durable:
                    fsync_dir(directory)
        findings.append(ScrubFinding(_rel(path, root), "orphan_tmp", action, detail))
    return findings


def _scrub_logs(
    report: ScrubReport, directory: Path, repair: bool, durable: bool, root: Path
) -> None:
    """Orphan tmps and advisory ``*.jsonl`` logs of one directory."""
    report.findings.extend(_scrub_orphans(directory, repair, durable, root))
    for path in sorted(directory.glob("*.jsonl")):
        report.logs_checked += 1
        report.findings.extend(_scrub_log(path, repair, durable, root))


def _scrub_log(
    path: Path, repair: bool, durable: bool, root: Path
) -> List[ScrubFinding]:
    """Advisory JSONL logs: keep every intact line, drop the damaged.

    Logs are diagnostics, not recovery inputs, so mid-file damage is
    repairable here — the rewrite preserves every line that still
    parses.
    """
    raw = path.read_bytes()
    kept: List[bytes] = []
    dropped = 0
    for lb in raw.splitlines(keepends=True):
        body = lb.rstrip(b"\r\n")
        if not body.strip():
            continue
        try:
            json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            dropped += 1
            continue
        if not lb.endswith(b"\n"):
            lb = body + b"\n"
        kept.append(lb)
    if dropped == 0:
        return []
    if not repair:
        return [ScrubFinding(
            _rel(path, root), "log_damaged_lines", "found",
            f"{dropped} damaged line(s) among {dropped + len(kept)}",
        )]
    atomic_write_bytes(path, b"".join(kept), durable=durable)
    return [ScrubFinding(
        _rel(path, root), "log_damaged_lines", "repaired",
        f"dropped {dropped} damaged line(s), kept {len(kept)}",
    )]


# ----------------------------------------------------------------------
def scrub_checkpoint_dir(
    directory: Union[str, Path],
    repair: bool = True,
    durable: bool = True,
    record: bool = True,
    root: Optional[Path] = None,
) -> ScrubReport:
    """Scrub one checkpoint directory (snapshots + WAL + ledger + logs +
    tmps).

    Args:
        directory: a :class:`~repro.resilience.CheckpointingService`
            directory — ``snapshot-*.json`` plus ``journal.jsonl`` plus
            ``responses.jsonl`` (the response ledger) plus an optional
            ``logs/`` subdirectory.
        repair: fix what is fixable; ``False`` only reports (actions
            come back as ``found``) and writes nothing at all.
        durable: fsync repairs.
        record: append a summary and the findings to
            ``logs/scrub.jsonl`` when there are findings (forced off
            when ``repair`` is off — a check must not write), so a clean
            directory's log does not grow with every scrub.
        root: base for relative paths in findings (fleet scrubs pass the
            fleet root).
    """
    directory = Path(directory)
    rroot = root or directory
    report = ScrubReport(root=str(directory))
    report.findings.extend(_scrub_orphans(directory, repair, durable, rroot))
    report.snapshots_checked += sum(
        1 for p in directory.iterdir() if _SNAPSHOT_RE.match(p.name)
    )
    report.findings.extend(scrub_snapshots(directory, repair, durable, rroot))
    journal = directory / JOURNAL_NAME
    if journal.exists():
        report.journals_checked += 1
        report.findings.extend(scrub_journal(journal, repair, durable, rroot))
    ledger = directory / LEDGER_NAME
    if ledger.exists():
        report.ledgers_checked += 1
        report.findings.extend(scrub_ledger(ledger, repair, durable, rroot))
    logs = directory / "logs"
    if logs.is_dir():
        _scrub_logs(report, logs, repair, durable, rroot)
    if record and repair and report.findings:
        _record_report(logs, directory, report, durable)
    return report


def _record_report(
    logs: Path, directory: Path, report: ScrubReport, durable: bool
) -> None:
    """Append one summary line + one line per finding to scrub.jsonl."""
    logs.mkdir(parents=True, exist_ok=True)
    rows = [json.dumps({
        "scrub": str(directory),
        "snapshots": report.snapshots_checked,
        "journals": report.journals_checked,
        "ledgers": report.ledgers_checked,
        "logs": report.logs_checked,
        "repaired": report.repaired,
        "refused": report.refused,
    })]
    rows.extend(
        json.dumps({
            "path": f.path, "kind": f.kind, "action": f.action, "detail": f.detail
        })
        for f in report.findings
    )
    append_rotating(
        logs / "scrub.jsonl", "\n".join(rows) + "\n", _SCRUB_LOG_MAX_BYTES,
        durable=durable,
    )


def scrub_tree(
    root: Union[str, Path],
    repair: bool = True,
    durable: bool = True,
    record: bool = True,
) -> ScrubReport:
    """Scrub a checkpoint directory *or* a whole sharded fleet root.

    A fleet root (it holds ``shardplan.json``) gets: manifest and halo
    sanity checks, every ``shard-NNN/`` directory scrubbed
    independently, and the root-level advisory logs cleaned.  An
    unreadable manifest is refused (the fleet cannot be rebuilt without
    it); an unreadable halo cache is merely removed — shards fall back
    to the genesis halo and repopulate it next epoch.
    """
    root = Path(root)
    plan = root / _PLAN_FILE
    if not plan.exists():
        return scrub_checkpoint_dir(
            root, repair=repair, durable=durable, record=record
        )
    report = ScrubReport(root=str(root))
    try:
        json.loads(plan.read_text())
    except (ValueError, UnicodeDecodeError) as exc:
        report.findings.append(ScrubFinding(
            _PLAN_FILE, "manifest_unreadable", "refused",
            f"{exc}; the fleet cannot recover without its plan",
        ))
    halo = root / _HALO_FILE
    if halo.exists():
        try:
            json.loads(halo.read_text())
        except (ValueError, UnicodeDecodeError) as exc:
            action, detail = "found", str(exc)
            if repair:
                halo.unlink()
                if durable:
                    fsync_dir(root)
                action, detail = "removed", f"{exc}; shards fall back to the genesis halo"
            report.findings.append(ScrubFinding(_HALO_FILE, "halo_unreadable", action, detail))
    _scrub_logs(report, root, repair, durable, root)
    if (root / "logs").is_dir():
        _scrub_logs(report, root / "logs", repair, durable, root)
    for shard_dir in sorted(root.iterdir()):
        if shard_dir.is_dir() and _SHARD_DIR_RE.match(shard_dir.name):
            report.extend(scrub_checkpoint_dir(
                shard_dir, repair=repair, durable=durable,
                record=record, root=root,
            ))
    return report
