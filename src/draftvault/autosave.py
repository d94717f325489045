"""Timed autosave and crash recovery.

While a document session is live, a periodic tick saves the drawing and
the current parametric blob into the autosave directory.  Normal session
shutdown removes the save; after a crash it survives, and the next start
can offer to restore it.

One autosave set exists per document, in one file, ``<doc>.autosave.set``:
a ``framelog`` container (magic ``TCGA``, version 1) of three frames,
each ``u32 len | payload | u32 crc32``:

    meta      f64 created_at | u8 payload count (1 or 2)
              | per payload: u32 size | SHA-256 | the document name (UTF-8)
    drawing   the drawing (canonical layout)
    blob      the current parametric blob (only when there is one)

A tick writes the whole file with ``FileIO.write_atomic``: one write of
``<set>.tmp`` and one rename over the set, the single commit point.  A
crash before the rename leaves the previous set intact, a crash after it
the new one: at every write offset exactly one complete set, or none
before the first tick, is recoverable; the crash audit checks this
against the file operations that completed (see ``faultsim``).  Recovery
reads the one file and accepts it only when every frame is intact, the
file ends with the last frame, the payloads match their recorded sizes
and digests and the document name is its own; anything else is logged
and collected, and so is a leftover ``<set>.tmp``.  The payloads are
hashed where they lie in the bytes read, without a copy.
"""
from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass
from pathlib import Path

from . import framelog
from .errors import BadHeader, Corrupt, IoFailure
from .fileio import FileIO
from .model import Drawing

logger = logging.getLogger(__name__)

MAGIC = b"TCGA"
VERSION = 1
HEADER = framelog.header(MAGIC, VERSION)

_FRAME_HEAD = struct.Struct("<I")  # payload length
_META = struct.Struct("<dB")  # created_at, payload count
_PAYLOAD = struct.Struct("<I32s")  # size, SHA-256


@dataclass(frozen=True)
class AutosaveConfig:
    interval: float
    autosave_dir: Path

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("autosave interval must be positive")


@dataclass(frozen=True)
class AutosaveSet:
    """A complete on-disk autosave: its file plus the digests that vouch for it."""

    doc_name: str
    path: Path
    created_at: float
    drawing_sha: str
    drawing_size: int
    pp_sha: str | None = None
    pp_size: int | None = None


def _set_path(autosave_dir: Path, doc_name: str) -> Path:
    return Path(autosave_dir) / f"{doc_name}.autosave.set"


def _collect(io: FileIO, path: Path) -> None:
    try:
        io.unlink(path)
    except OSError:
        pass


class AutosaveSession:
    """Drives periodic autosave for one live document session.

    Ticks may come from any timer source but must never run concurrently
    with a mutation of the same drawing; the host serializes them.  Time is
    passed in, never read from the wall clock, so behaviour under test is
    exact.  The first save becomes due one full interval after the session
    starts, and further saves one interval after the previous one.  A tick
    that fails raises IoFailure and stays due, so the next tick retries.
    """

    def __init__(
        self,
        doc_name: str,
        drawing: Drawing,
        config: AutosaveConfig,
        io: FileIO | None = None,
        started_at: float = 0.0,
    ):
        self.doc_name = doc_name
        self.drawing = drawing
        self.config = config
        self.io = io or FileIO()
        self.path = _set_path(config.autosave_dir, doc_name)
        self.last_save = started_at
        self.current_pp: bytes | None = None
        self._saved_fingerprint: tuple | None = None

    def set_current_pp(self, data: bytes | None) -> None:
        self.current_pp = data

    def autosave_tick(self, now: float) -> AutosaveSet | None:
        """Write a new autosave set if one is due; returns None when skipped
        (interval not yet elapsed, or nothing changed since the last set)."""
        if now - self.last_save < self.config.interval:
            return None
        pp = self.current_pp
        pp_digest = hashlib.sha256(pp).digest() if pp is not None else None
        fingerprint = (self.drawing.revision, pp_digest)
        if fingerprint == self._saved_fingerprint:
            return None

        payloads = [self.drawing.canonical_bytes()]
        digests = [hashlib.sha256(payloads[0]).digest()]
        if pp is not None:
            payloads.append(pp)
            digests.append(pp_digest)
        meta = b"".join([
            _META.pack(now, len(payloads)),
            *(_PAYLOAD.pack(len(p), d) for p, d in zip(payloads, digests)),
            self.doc_name.encode(),
        ])
        parts = [HEADER]
        for payload in (meta, *payloads):
            parts.extend(framelog.frame_parts(_FRAME_HEAD, payload))
        try:
            self.io.write_atomic(self.path, b"".join(parts))  # the rename commits
        except OSError as exc:
            raise IoFailure(f"autosave failed: {exc}") from exc
        self.last_save = now
        self._saved_fingerprint = fingerprint
        return _describe(self.doc_name, self.path, now, payloads, digests)

    def clean_shutdown(self) -> None:
        """Remove the autosave set, then a temp file a failed tick left;
        a later probe must find nothing."""
        try:
            self.io.unlink(self.path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise IoFailure(f"cannot remove autosave set: {exc}") from exc
        _collect(self.io, self.path.with_name(self.path.name + ".tmp"))
        self._saved_fingerprint = None


def _describe(doc_name: str, path: Path, created_at: float, payloads: list, digests: list) -> AutosaveSet:
    pp = (digests[1].hex(), len(payloads[1])) if len(payloads) == 2 else (None, None)
    return AutosaveSet(doc_name, path, created_at, digests[0].hex(), len(payloads[0]), *pp)


def _read_set(data: bytes, path: Path) -> tuple[AutosaveSet, list[memoryview]]:
    """The set the bytes of ``path`` hold, and its payloads as views of
    ``data``; Corrupt unless the file is exactly a meta frame and the
    payload frames it vouches for."""
    try:
        frames, valid_end = framelog.read_frames(memoryview(data), HEADER, _FRAME_HEAD)
        meta, *payloads = [payload for _, payload in frames]
        created_at, count = _META.unpack_from(meta)
        recorded = [_PAYLOAD.unpack_from(meta, _META.size + i * _PAYLOAD.size) for i in range(count)]
        doc_name = str(meta[_META.size + count * _PAYLOAD.size :], "utf-8")
    except (BadHeader, struct.error, ValueError) as exc:
        raise Corrupt(f"{path.name}: {exc}") from exc
    if valid_end != len(data) or count not in (1, 2) or len(payloads) != count:
        raise Corrupt(f"{path.name}: torn, or not one set")
    if recorded != [(len(p), hashlib.sha256(p).digest()) for p in payloads]:
        raise Corrupt(f"{path.name}: a payload does not match its recorded digest")
    return _describe(doc_name, path, created_at, payloads, [d for _, d in recorded]), payloads


def probe_recovery(autosave_dir: Path, doc_name: str, io: FileIO | None = None) -> AutosaveSet | None:
    """Look for a complete autosave set left behind by a dead session.

    Returns the set if it is intact and names ``doc_name``; a damaged or
    foreign set is logged, collected and reported as None, and so is a
    leftover temp file.  Must not run while a session is live for the doc.
    """
    io = io or FileIO()
    path = _set_path(autosave_dir, doc_name)
    _collect(io, path.with_name(path.name + ".tmp"))
    try:
        data = io.read_bytes(path)
    except FileNotFoundError:
        return None
    try:
        aset, _ = _read_set(data, path)
        if aset.doc_name != doc_name:
            raise Corrupt(f"set belongs to {aset.doc_name!r}")
    except Corrupt as exc:
        logger.warning("discarding invalid autosave set %s: %s", path, exc)
        _collect(io, path)
        return None
    return aset


def restore(aset: AutosaveSet, io: FileIO | None = None) -> tuple[Drawing, bytes | None]:
    """Load the autosaved state; the set stays on disk (restoring is
    non-destructive, the caller decides when to drop it).  Corrupt when the
    file no longer holds the set ``aset`` describes."""
    io = io or FileIO()
    found, payloads = _read_set(io.read_bytes(aset.path), aset.path)
    if found != aset:
        raise Corrupt("autosave set changed since it was found")
    drawing = Drawing.from_canonical_bytes(bytes(payloads[0]), name=aset.doc_name)
    return drawing, bytes(payloads[1]) if len(payloads) == 2 else None
