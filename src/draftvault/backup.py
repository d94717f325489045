"""Scheduled incremental backup into date-named vault directories.

The user picks weekdays; the first launch on such a day copies every
watched file whose content changed since the previous backup into
``<vault_root>/YYYY-MM-DD/``.  Change detection is by content hash kept
in a plaintext manifest, so touched-but-identical files are skipped and
clock skew cannot fool it.  The vault only ever grows - pruning old
backup directories is explicitly the user's job.

Manifest (``<vault_root>/manifest.txt``, UTF-8 text): one
``sha256\\trelative-path`` line per tracked file, sorted, then a
``last_backup=YYYY-MM-DD`` line.  A relative path that is not UTF-8, or
that a line would not keep whole (a character that is not printable,
such as a line break, or white space at its end), is written as ``/``
and the hex of its bytes on the file system.

Config file: ``key = value`` lines with ``#`` comments;
keys ``weekdays`` (comma-separated day names), ``watch_root``
(repeatable) and ``vault_root``.

A watch root is walked without following symlinks: a symlinked file is
not copied and a symlinked directory not entered; a dotfile is copied.
Files are taken in the order of their path components.
"""
from __future__ import annotations

import datetime as dt
import hashlib
import os
from types import SimpleNamespace

from .errors import Corrupt, IoFailure, Locked
from .fileio import FileIO
from .locks import SessionLock, LOCK_SUFFIX
from .paths import AUTOSAVE_SET_SUFFIX, normalize

WEEKDAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
MANIFEST_NAME = "manifest.txt"

# Transient engine files never worth backing up: only these suffixes, so
# a drawing whose name merely contains one of them is still copied.
_SKIP_SUFFIXES = (LOCK_SUFFIX, ".tmp", AUTOSAVE_SET_SUFFIX)


class BackupConfig(SimpleNamespace):
    def __init__(self, weekdays: frozenset[int], watch_roots: tuple[str, ...], vault_root: str):
        # weekdays: 0=Mon .. 6=Sun; an empty set disables backups
        super().__init__(weekdays=weekdays, watch_roots=watch_roots, vault_root=vault_root)


class BackupManifest(SimpleNamespace):
    def __init__(self, entries: dict[str, str] | None = None, last_backup_date: dt.date | None = None):
        # entries: relpath -> sha256 hex
        super().__init__(entries={} if entries is None else entries, last_backup_date=last_backup_date)


class BackupSet(SimpleNamespace):
    def __init__(self, dir: str | None):
        # dir: None when nothing changed (no directory created); copied:
        # (source, dest relpath) per file copied
        super().__init__(dir=dir, copied=[])


def parse_weekdays(text: str) -> frozenset[int]:
    days = set()
    for token in text.replace(",", " ").split():
        name = token.strip().lower()[:3]
        if name not in WEEKDAY_NAMES:
            raise ValueError(f"unknown weekday {token!r}")
        days.add(WEEKDAY_NAMES.index(name))
    return frozenset(days)


def _text_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise Corrupt(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_config(path: str | os.PathLike) -> BackupConfig:
    path = normalize(path)
    weekdays: frozenset[int] = frozenset()
    roots: list[str] = []
    vault: str | None = None
    for lineno, raw in enumerate(_text_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise Corrupt(f"{path}:{lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key == "weekdays":
            try:
                weekdays = parse_weekdays(value)
            except ValueError as exc:
                raise Corrupt(f"{path}:{lineno}: {exc}") from None
        elif key == "watch_root":
            roots.append(normalize(value))
        elif key == "vault_root":
            vault = normalize(value)
        else:
            raise Corrupt(f"{path}:{lineno}: unknown key {key!r}")
    if vault is None:
        raise Corrupt(f"{path}: vault_root is required")
    return BackupConfig(weekdays=weekdays, watch_roots=tuple(roots), vault_root=vault)


def _field(relpath: str) -> str:
    """``relpath`` as a manifest field: itself when a manifest line keeps
    it whole, else ``/`` and the hex of its bytes on the file system (a
    relative path never starts with ``/``).  A name that is not UTF-8
    holds surrogates, which are not printable, and so do line breaks."""
    if relpath.isprintable() and relpath == relpath.rstrip():
        return relpath
    return "/" + os.fsencode(relpath).hex()


def _relpath(field: str) -> str:
    """The relpath a manifest field holds; ValueError when it holds none."""
    relpath = os.fsdecode(bytes.fromhex(field[1:])) if field.startswith("/") else field
    if not relpath:
        raise ValueError(field)
    return relpath


def load_manifest(vault_root: str | os.PathLike) -> BackupManifest:
    path = os.path.join(vault_root, MANIFEST_NAME)
    manifest = BackupManifest()
    if not os.path.exists(path):
        return manifest
    for raw in _text_lines(path):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("last_backup="):
            try:
                manifest.last_backup_date = dt.date.fromisoformat(line.split("=", 1)[1])
            except ValueError:
                raise Corrupt(f"malformed manifest line: {raw!r}") from None
        else:
            digest, _, relpath = line.partition("\t")
            try:
                manifest.entries[_relpath(relpath)] = digest
            except ValueError:
                raise Corrupt(f"malformed manifest line: {raw!r}") from None
    return manifest


def save_manifest(vault_root: str | os.PathLike, manifest: BackupManifest, io: FileIO | None = None) -> None:
    io = io or FileIO()
    lines = [f"{digest}\t{_field(relpath)}" for relpath, digest in sorted(manifest.entries.items())]
    if manifest.last_backup_date is not None:
        lines.append(f"last_backup={manifest.last_backup_date.isoformat()}")
    io.write_atomic(os.path.join(vault_root, MANIFEST_NAME), ("\n".join(lines) + "\n").encode())


def backup_due(config: BackupConfig, manifest: BackupManifest, today: dt.date) -> bool:
    """True when today is a designated weekday and no backup ran today yet.

    Suppression keys off the recorded date rather than a launch counter:
    that is equivalent to first-launch semantics and survives counter
    resets.
    """
    return today.weekday() in config.weekdays and manifest.last_backup_date != today


def _root_labels(roots: tuple[str, ...]) -> list[tuple[str, str]]:
    """Stable per-root prefix for destination paths; duplicate basenames
    get a positional suffix so two roots cannot collide in the vault.
    ``roots`` are normalized: ``w/`` is labelled ``w``, ``.`` and ``/``
    are labelled ``root``."""
    labels = []
    seen: dict[str, int] = {}
    for root in roots:
        base = root != "." and os.path.basename(root) or "root"
        count = seen.get(base, 0)
        seen[base] = count + 1
        labels.append((root, base if count == 0 else f"{base}-{count + 1}"))
    return labels


def _walk_files(root: str, vault_root: str) -> list[tuple[str, str]]:
    """``(path, path relative to root)`` of each regular file under
    ``root`` and outside the vault, sorted by their components."""
    files = []
    prefix = os.path.join(root, "")
    vault_prefix = os.path.join(os.path.realpath(vault_root), "")
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            if name.endswith(_SKIP_SUFFIXES) or os.path.islink(path) or not os.path.isfile(path):
                continue
            if os.path.join(os.path.realpath(path), "").startswith(vault_prefix):
                continue
            files.append((path, path[len(prefix):]))
    return sorted(files, key=lambda file: file[1].split("/"))


def _hash_file(path: str) -> str:
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
    with the manifest untouched; the next launch retries.  So does a
    watch root that is not a directory (a typo, an unmounted drive), before
    anything is read.  Prior dated directories are never modified.
    """
    roots = tuple(map(normalize, config.watch_roots))
    for root in roots:
        if not os.path.isdir(root):
            raise IoFailure(f"watch root {root} is not a directory")
    io = io or FileIO()
    vault_root = normalize(config.vault_root)
    os.makedirs(vault_root, exist_ok=True)
    dated_dir = os.path.join(vault_root, today.isoformat())

    new_entries: dict[str, str] = {}
    to_copy: list[tuple[str, str]] = []
    try:
        for root, label in _root_labels(roots):
            for path, relative in _walk_files(root, vault_root):
                relpath = f"{label}/{relative}"
                digest = _hash_file(path)
                new_entries[relpath] = digest
                if manifest.entries.get(relpath) != digest:
                    to_copy.append((path, relpath))
    except OSError as exc:
        raise IoFailure(f"backup scan failed: {exc}") from exc

    copied = BackupSet(dir=dated_dir if to_copy else None)
    for source, relpath in to_copy:
        dest = os.path.join(dated_dir, relpath)
        try:
            with SessionLock(source):
                os.makedirs(os.path.dirname(dest), exist_ok=True)
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
    return copied, updated
