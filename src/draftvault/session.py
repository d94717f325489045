"""One document session: what every command that writes holds and saves.

Undo and redo span CLI calls, so ``edit``, ``autosave-run``, ``undo``,
``redo``, ``pp`` and ``recover`` all resume the session the same way, by
a :class:`Session`.  It holds the document lock (``<doc>.lock``) for its
``with`` block and reads the sidecar at most once, on first need.  It
opens the journal on first use, fresh for a drawing or resumed at the
remembered cursor with the remembered positions stack and step index (so
a cold undo scans only what follows the index and checks the steps it
moves over), and the blob log at the remembered version.  Whenever it
writes the sidecar with the journal open, it stores the journal's
positions stack and step index as the journal hands them over; it never
looks inside them.  A fresh journal is followed at once by a sidecar at
cursor 0, before the first step, so a session that dies leaves no older
session's cursor beside its journal.  A journal is not resumed without
a remembered cursor (sidecar missing, damaged or never written, or the
document replaced by a restored autosave): undo and redo refuse with
Corrupt rather than guess which step the document is at.  They refuse
too, and change no file, when the journal holds fewer intact steps than
that cursor.  :meth:`Session.save` writes the document, then the
sidecar; :meth:`Session.restore` writes the sidecar first.  Leaving the
block releases the logs and the lock on every exit, a simulated crash
included.  Each log keeps its own lock file too: a library host opens a
``Journal`` without the document lock.  The journal, the signatures and
the blob log load on first use, so a cold command imports only what it
touches.
"""
from __future__ import annotations

import os

from .errors import Corrupt
from .fileio import FileIO
from .framelog import clamp_cursor
from .locks import SessionLock
from .paths import for_doc
from .sidecar import SidecarState, read_sidecar, write_sidecar


class Session:
    def __init__(self, doc: str | os.PathLike, io: FileIO):
        self.paths = for_doc(doc)
        self.io = io
        self._lock = SessionLock(self.paths.doc)
        self._remembered: SidecarState | None = None
        self.journal = None  # the Journal, once opened
        self.pp_log = None  # the PPVersionLog, once opened

    def __enter__(self) -> "Session":
        self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        try:
            for log in (self.journal, self.pp_log):
                if log is not None:
                    log.close()
        finally:
            self._lock.release()

    def remembered(self) -> SidecarState:
        """The session memory the sidecar holds, read on the first call."""
        if self._remembered is None:
            self._remembered = read_sidecar(self.paths.sidecar, self.io)
        return self._remembered

    def load(self):
        """The document as an editable drawing (see load_editable)."""
        from .signatures import load_editable

        return load_editable(self.paths.doc, self.io)

    def open_journal(self, drawing=None):
        """The session journal, opened on the first call: a fresh one when
        a ``drawing`` is given, followed by the sidecar at its cursor 0,
        else the existing one resumed at the remembered cursor, positions
        stack and step index.  Resuming raises Corrupt when the sidecar
        holds no cursor, for which step the document is at is unknown, and
        when the journal holds fewer intact steps than the cursor.

        The fresh journal replaces the old one before the sidecar is
        written: a crash between the two leaves the old cursor over an
        empty journal, which moves nothing, where the other order would
        leave cursor 0 over the old steps the document already holds."""
        if self.journal is None:
            from .journal import Journal

            if drawing is not None:
                self.journal = Journal.begin_session(drawing, self.paths.journal, self.io)
                self._write_sidecar()
            else:
                state = self.remembered()
                if state.journal_cursor is None:
                    raise Corrupt(f"{self.paths.sidecar} is missing or damaged: "
                                  "the journal cursor is unknown")
                self.journal = Journal.resume(self.paths.journal, self.io, state.journal_cursor,
                                              state.positions, state.index)
        return self.journal

    def open_pp_log(self):
        """The blob log, opened on the first call at the remembered version."""
        if self.pp_log is None:
            from .ppversions import PPVersionLog

            log = PPVersionLog.open(self.paths.pp_log, io=self.io)
            log.cursor = clamp_cursor(self.remembered().pp_cursor, log.version_count)
            self.pp_log = log
        return self.pp_log

    def save(self, document: bytes | None = None) -> None:
        """Write ``document`` (drawing bytes) if given, then the sidecar
        with the cursors of the logs this session opened.  Without an
        opened log the sidecar is left as it is."""
        if document is not None:
            self._save_document(document)
        if self.journal is not None or self.pp_log is not None:
            self._write_sidecar()

    def restore(self, document: bytes) -> None:
        """Replace the document by ``document``, which no step of the
        journal leads to (a restored autosave): first the sidecar, with the
        journal cursor, positions stack and step index cleared and the blob
        log's cursor if it is open, then the document.  A crash between the
        two leaves undo and redo refusing, never replaying the journal over
        the new document."""
        state = self.remembered()
        state.journal_cursor, state.positions, state.index = None, b"", b""
        self._write_sidecar()
        self._save_document(document)

    def _save_document(self, document: bytes) -> None:
        from .signatures import SignedEnvelope, save_document

        save_document(self.paths.doc, SignedEnvelope(document=document), self.io)

    def _write_sidecar(self) -> None:
        state = self.remembered()
        if self.journal is not None:
            state.journal_cursor = self.journal.cursor
            state.positions = self.journal.positions
            state.index = self.journal.index
        if self.pp_log is not None:
            state.pp_cursor = self.pp_log.cursor
        write_sidecar(self.paths.sidecar, state, self.io)
