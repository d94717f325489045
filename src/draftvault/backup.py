"""Scheduled incremental backup into date-named vault directories.

The user picks weekdays; the first launch on such a day copies every
watched file whose content changed since the previous backup into
``<vault_root>/YYYY-MM-DD/``.  Change detection is by content hash kept
in a plaintext manifest, so touched-but-identical files are skipped and
clock skew cannot fool it.  The vault only ever grows - pruning old
backup directories is explicitly the user's job.

Manifest (``<vault_root>/manifest.txt``): one ``sha256\\trelative-path``
line per tracked file, sorted, then a ``last_backup=YYYY-MM-DD`` line.

Config file: ``key = value`` lines with ``#`` comments;
keys ``weekdays`` (comma-separated day names), ``watch_root``
(repeatable) and ``vault_root``.
"""
from __future__ import annotations

import datetime as dt
import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .errors import Corrupt, IoFailure, Locked
from .fileio import FileIO
from .locks import SessionLock, LOCK_SUFFIX

logger = logging.getLogger(__name__)

WEEKDAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
MANIFEST_NAME = "manifest.txt"

# Transient engine files never worth backing up.
_SKIP_SUFFIXES = (LOCK_SUFFIX, ".tmp")
_SKIP_MARKERS = (".autosave.",)


@dataclass(frozen=True)
class BackupConfig:
    weekdays: frozenset[int]  # 0=Mon .. 6=Sun; empty set disables backups
    watch_roots: tuple[Path, ...]
    vault_root: Path


@dataclass
class BackupManifest:
    entries: dict[str, str] = field(default_factory=dict)  # relpath -> sha256 hex
    last_backup_date: dt.date | None = None


@dataclass
class BackupSet:
    dir: Path | None  # None when nothing changed (no directory created)
    copied: list[tuple[Path, str]] = field(default_factory=list)  # (source, dest relpath)


def parse_weekdays(text: str) -> frozenset[int]:
    days = set()
    for token in text.replace(",", " ").split():
        name = token.strip().lower()[:3]
        if name not in WEEKDAY_NAMES:
            raise ValueError(f"unknown weekday {token!r}")
        days.add(WEEKDAY_NAMES.index(name))
    return frozenset(days)


def parse_config(path: Path) -> BackupConfig:
    weekdays: frozenset[int] = frozenset()
    roots: list[Path] = []
    vault: Path | None = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise Corrupt(f"{path}:{lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key == "weekdays":
            weekdays = parse_weekdays(value)
        elif key == "watch_root":
            roots.append(Path(value))
        elif key == "vault_root":
            vault = Path(value)
        else:
            raise Corrupt(f"{path}:{lineno}: unknown key {key!r}")
    if vault is None:
        raise Corrupt(f"{path}: vault_root is required")
    return BackupConfig(weekdays=weekdays, watch_roots=tuple(roots), vault_root=vault)


def load_manifest(vault_root: Path) -> BackupManifest:
    path = Path(vault_root) / MANIFEST_NAME
    manifest = BackupManifest()
    if not path.exists():
        return manifest
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("last_backup="):
            manifest.last_backup_date = dt.date.fromisoformat(line.split("=", 1)[1])
        else:
            digest, _, relpath = line.partition("\t")
            if not relpath:
                raise Corrupt(f"malformed manifest line: {raw!r}")
            manifest.entries[relpath] = digest
    return manifest


def save_manifest(vault_root: Path, manifest: BackupManifest, io: FileIO | None = None) -> None:
    io = io or FileIO()
    lines = [f"{digest}\t{relpath}" for relpath, digest in sorted(manifest.entries.items())]
    if manifest.last_backup_date is not None:
        lines.append(f"last_backup={manifest.last_backup_date.isoformat()}")
    io.write_atomic(Path(vault_root) / MANIFEST_NAME, ("\n".join(lines) + "\n").encode())


def backup_due(config: BackupConfig, manifest: BackupManifest, today: dt.date) -> bool:
    """True when today is a designated weekday and no backup ran today yet.

    Suppression keys off the recorded date rather than a launch counter:
    that is equivalent to first-launch semantics and survives counter
    resets.
    """
    return today.weekday() in config.weekdays and manifest.last_backup_date != today


def _root_labels(roots: tuple[Path, ...]) -> list[tuple[Path, str]]:
    """Stable per-root prefix for destination paths; duplicate basenames
    get a positional suffix so two roots cannot collide in the vault."""
    labels = []
    seen: dict[str, int] = {}
    for root in roots:
        base = root.name or "root"
        count = seen.get(base, 0)
        seen[base] = count + 1
        labels.append((root, base if count == 0 else f"{base}-{count + 1}"))
    return labels


def _walk_files(root: Path, vault_root: Path) -> list[Path]:
    files = []
    vault_root = vault_root.resolve()
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.is_symlink():
            continue
        if path.resolve().is_relative_to(vault_root):
            continue
        name = path.name
        if name.endswith(_SKIP_SUFFIXES) or any(m in name for m in _SKIP_MARKERS):
            continue
        files.append(path)
    return files


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_backup(
    config: BackupConfig,
    manifest: BackupManifest,
    today: dt.date,
    io: FileIO | None = None,
) -> tuple[BackupSet, BackupManifest]:
    """Copy changed files into the dated directory and return the updated
    manifest.

    Every copy is taken under the file's session lock so a live editing
    session is never read mid-write, and the manifest records the digest
    of the bytes copied, not of the scan: a file rewritten in between is
    recorded as the vault holds it.  Any failure aborts the whole run
    with the manifest untouched; the next launch retries.  Prior dated
    directories are never modified.
    """
    io = io or FileIO()
    vault_root = Path(config.vault_root)
    vault_root.mkdir(parents=True, exist_ok=True)
    dated_dir = vault_root / today.isoformat()

    new_entries: dict[str, str] = {}
    to_copy: list[tuple[Path, str]] = []
    try:
        for root, label in _root_labels(config.watch_roots):
            for path in _walk_files(Path(root), vault_root):
                relpath = f"{label}/{path.relative_to(root).as_posix()}"
                digest = _hash_file(path)
                new_entries[relpath] = digest
                if manifest.entries.get(relpath) != digest:
                    to_copy.append((path, relpath))
    except OSError as exc:
        raise IoFailure(f"backup scan failed: {exc}") from exc

    copied = BackupSet(dir=dated_dir if to_copy else None)
    for source, relpath in to_copy:
        dest = dated_dir / relpath
        try:
            with SessionLock(source):
                dest.parent.mkdir(parents=True, exist_ok=True)
                data = io.read_bytes(source)
                io.write_atomic(dest, data)
            new_entries[relpath] = hashlib.sha256(data).hexdigest()
        except Locked as exc:
            raise IoFailure(f"{source} is being edited: {exc}") from exc
        except OSError as exc:
            raise IoFailure(f"copy of {source} failed: {exc}") from exc
        copied.copied.append((source, relpath))

    updated = BackupManifest(entries=new_entries, last_backup_date=today)
    try:
        save_manifest(vault_root, updated, io)
    except OSError as exc:
        raise IoFailure(f"manifest update failed: {exc}") from exc
    if copied.copied:
        logger.info("backed up %d file(s) into %s", len(copied.copied), dated_dir)
    return copied, updated
