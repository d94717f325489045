"""Timed autosave and crash recovery.

While a document session is live, a periodic tick writes copies of the
drawing and of the current parametric blob into the autosave directory.
Normal session shutdown removes the copies; after a crash they survive,
and the next start can offer to restore them.

One autosave set exists per document:

    <doc>.autosave.drawing   copy of the drawing (canonical layout)
    <doc>.autosave.pp        copy of the current parametric blob (optional)
    <doc>.autosave.marker    session marker naming the copies by digest

Because a set spans three fixed-name files, per-file atomic rename alone
cannot replace it as a group.  The update protocol makes the marker the
single commit point:

    1. write all new copies and the new marker as .tmp siblings (fsync)
    2. rename marker.tmp over the marker            <- commit
    3. rename the copies over their final names

The marker names each copy by content digest, and recovery accepts a copy
at its final OR temp name (finishing interrupted renames).  A crash before
step 2 leaves the previous set fully intact; a crash after it leaves
every new copy present at one of its two names.  At every write offset,
either the previous or the new complete set is recoverable - never
neither, never both.
"""
from __future__ import annotations

import hashlib
import logging
import uuid
from dataclasses import dataclass
from pathlib import Path

from .errors import Corrupt, IoFailure
from .fileio import FileIO, decode_checked_text, encode_checked_text
from .model import Drawing
from .ppversions import PPBlob

logger = logging.getLogger(__name__)

MARKER_BANNER = "draftvault-autosave v1"


@dataclass(frozen=True)
class AutosaveConfig:
    interval: float
    autosave_dir: Path

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("autosave interval must be positive")


@dataclass(frozen=True)
class AutosaveSet:
    """A complete on-disk autosave: paths plus the digests that vouch for it."""

    doc_name: str
    drawing_copy: Path
    pp_copy: Path | None
    marker: Path
    created_at: float
    session_id: str
    drawing_sha: str
    drawing_size: int
    pp_sha: str | None = None
    pp_size: int | None = None


def _names(autosave_dir: Path, doc_name: str) -> tuple[Path, Path, Path]:
    base = Path(autosave_dir) / doc_name
    return (
        base.with_name(base.name + ".autosave.drawing"),
        base.with_name(base.name + ".autosave.pp"),
        base.with_name(base.name + ".autosave.marker"),
    )


def _tmp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode_marker(aset: AutosaveSet) -> bytes:
    return encode_checked_text(MARKER_BANNER, [
        f"doc={aset.doc_name}",
        f"session={aset.session_id}",
        f"created={aset.created_at!r}",
        f"drawing={aset.drawing_sha} {aset.drawing_size}",
        f"pp={aset.pp_sha} {aset.pp_size}" if aset.pp_sha else "pp=none",
    ])


def _parse_marker(data: bytes, autosave_dir: Path) -> AutosaveSet:
    fields = dict(decode_checked_text(data, MARKER_BANNER))
    doc_name = fields["doc"]
    drawing_sha, _, drawing_size = fields["drawing"].partition(" ")
    pp_sha = pp_size = None
    if fields["pp"] != "none":
        pp_sha, _, pp_size = fields["pp"].partition(" ")
    drawing_path, pp_path, marker_path = _names(autosave_dir, doc_name)
    return AutosaveSet(
        doc_name=doc_name,
        drawing_copy=drawing_path,
        pp_copy=pp_path if pp_sha else None,
        marker=marker_path,
        created_at=float(fields["created"]),
        session_id=fields["session"],
        drawing_sha=drawing_sha,
        drawing_size=int(drawing_size),
        pp_sha=pp_sha,
        pp_size=int(pp_size) if pp_size else None,
    )


class AutosaveSession:
    """Drives periodic autosave for one live document session.

    Ticks may come from any timer source but must never run concurrently
    with a mutation of the same drawing; the host serializes them.  Time is
    passed in, never read from the wall clock, so behaviour under test is
    exact.  The first save becomes due one full interval after the session
    starts, and further saves one interval after the previous one.

    ``events``, when a list is given, receives the progress a crash audit
    needs (see ``faultsim``): ``("tick_attempt", drawing_sha, pp_sha)`` just
    before a tick's first write and ``("tick_committed", drawing_sha,
    pp_sha)`` once the set is in place.  A skipped tick records nothing.
    Production passes no list, and nothing is recorded.
    """

    def __init__(
        self,
        doc_name: str,
        drawing: Drawing,
        config: AutosaveConfig,
        io: FileIO | None = None,
        started_at: float = 0.0,
        session_id: str | None = None,
        events: list | None = None,
    ):
        self.doc_name = doc_name
        self.drawing = drawing
        self.config = config
        self.io = io or FileIO()
        self.session_id = session_id or uuid.uuid4().hex
        self.last_save = started_at
        self.current_pp: bytes | None = None
        self._saved_fingerprint: tuple | None = None
        self.events = events

    def set_current_pp(self, data: bytes | None) -> None:
        self.current_pp = data

    def _fingerprint(self) -> tuple:
        pp_sha = _sha(self.current_pp) if self.current_pp is not None else None
        return (self.drawing.revision, pp_sha)

    def autosave_tick(self, now: float) -> AutosaveSet | None:
        """Write a new autosave set if one is due; returns None when skipped
        (interval not yet elapsed, or nothing changed since the last set)."""
        if now - self.last_save < self.config.interval:
            return None
        fingerprint = self._fingerprint()
        if fingerprint == self._saved_fingerprint:
            return None

        drawing_bytes = self.drawing.canonical_bytes()
        pp_bytes = self.current_pp
        pp_sha = fingerprint[1]
        drawing_path, pp_path, marker_path = _names(self.config.autosave_dir, self.doc_name)
        aset = AutosaveSet(
            doc_name=self.doc_name,
            drawing_copy=drawing_path,
            pp_copy=pp_path if pp_bytes is not None else None,
            marker=marker_path,
            created_at=now,
            session_id=self.session_id,
            drawing_sha=_sha(drawing_bytes),
            drawing_size=len(drawing_bytes),
            pp_sha=pp_sha,
            pp_size=len(pp_bytes) if pp_bytes is not None else None,
        )
        io = self.io
        events = self.events
        if events is not None:
            events.append(("tick_attempt", aset.drawing_sha, pp_sha))
        try:
            io.write_file(_tmp(drawing_path), drawing_bytes)
            if pp_bytes is not None:
                io.write_file(_tmp(pp_path), pp_bytes)
            io.write_file(_tmp(marker_path), _encode_marker(aset))
            io.replace(_tmp(marker_path), marker_path)  # commit point
            io.replace(_tmp(drawing_path), drawing_path)
            if pp_bytes is not None:
                io.replace(_tmp(pp_path), pp_path)
            elif io.exists(pp_path):
                io.unlink(pp_path)
        except OSError as exc:
            raise IoFailure(f"autosave failed: {exc}") from exc
        if events is not None:
            events.append(("tick_committed", aset.drawing_sha, pp_sha))

        self.last_save = now
        self._saved_fingerprint = fingerprint
        return aset

    def clean_shutdown(self) -> None:
        """Remove the autosave set; a later probe must find nothing."""
        drawing_path, pp_path, marker_path = _names(self.config.autosave_dir, self.doc_name)
        # The marker goes first: without it the copies are inert garbage.
        for attempt in (1, 2):
            try:
                self.io.unlink(marker_path)
                break
            except FileNotFoundError:
                break
            except OSError as exc:
                if attempt == 2:
                    raise IoFailure(f"cannot remove autosave marker: {exc}") from exc
        for path in (drawing_path, pp_path, _tmp(drawing_path), _tmp(pp_path), _tmp(marker_path)):
            try:
                self.io.unlink(path)
            except FileNotFoundError:
                pass
            except OSError as exc:
                logger.warning("autosave cleanup left %s behind: %s", path, exc)
        self._saved_fingerprint = None


def _resolve_copy(io: FileIO, final: Path, sha: str, size: int) -> bool:
    """Accept the copy at its final name, or finish an interrupted rename
    from the temp name; True when the digest-verified copy is in place."""
    for candidate in (final, _tmp(final)):
        try:
            data = io.read_bytes(candidate)
        except OSError:
            continue
        if len(data) == size and _sha(data) == sha:
            if candidate != final:
                io.replace(candidate, final)
            return True
    return False


def _gc(io: FileIO, paths: list[Path]) -> None:
    for path in paths:
        try:
            io.unlink(path)
        except OSError:
            pass


def probe_recovery(autosave_dir: Path, doc_name: str, io: FileIO | None = None) -> AutosaveSet | None:
    """Look for a complete autosave set left behind by a dead session.

    Returns the set if its marker and digest-verified copies are present;
    incomplete or corrupt leftovers are logged, garbage-collected and
    reported as None.  Must not run while a session is live for the doc.
    """
    io = io or FileIO()
    drawing_path, pp_path, marker_path = _names(autosave_dir, doc_name)
    all_paths = [
        marker_path, drawing_path, pp_path,
        _tmp(marker_path), _tmp(drawing_path), _tmp(pp_path),
    ]
    try:
        marker_data = io.read_bytes(marker_path)
    except OSError:
        _gc(io, all_paths)
        return None
    try:
        aset = _parse_marker(marker_data, Path(autosave_dir))
        if aset.doc_name != doc_name:
            raise Corrupt(f"marker belongs to {aset.doc_name!r}")
    except (Corrupt, KeyError, ValueError) as exc:
        logger.warning("discarding invalid autosave marker %s: %s", marker_path, exc)
        _gc(io, all_paths)
        return None

    ok = _resolve_copy(io, drawing_path, aset.drawing_sha, aset.drawing_size)
    if ok and aset.pp_sha is not None:
        ok = _resolve_copy(io, pp_path, aset.pp_sha, aset.pp_size or 0)
    if not ok:
        logger.warning("autosave set for %s is incomplete; discarding", doc_name)
        _gc(io, all_paths)
        return None
    leftovers = [_tmp(marker_path), _tmp(drawing_path), _tmp(pp_path)]
    if aset.pp_sha is None:
        leftovers.append(pp_path)
    _gc(io, leftovers)
    return aset


def restore(aset: AutosaveSet, io: FileIO | None = None) -> tuple[Drawing, PPBlob | None]:
    """Load the autosaved state; the set stays on disk (restoring is
    non-destructive, the caller decides when to drop it)."""
    io = io or FileIO()
    data = io.read_bytes(aset.drawing_copy)
    if len(data) != aset.drawing_size or _sha(data) != aset.drawing_sha:
        raise Corrupt("autosaved drawing does not match its recorded digest")
    drawing = Drawing.from_canonical_bytes(data, name=aset.doc_name)
    pp = None
    if aset.pp_copy is not None and aset.pp_sha is not None:
        pp_data = io.read_bytes(aset.pp_copy)
        if len(pp_data) != (aset.pp_size or 0) or _sha(pp_data) != aset.pp_sha:
            raise Corrupt("autosaved parametric blob does not match its digest")
        pp = PPBlob(pp_data)
    return drawing, pp
