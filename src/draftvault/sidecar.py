"""Session-state sidecar (``<doc>.session``).

The journal file format carries no cursor, no positions and no step
index: all three are session memory.  The CLI spreads one editing
session over several process invocations (edit, then undo, then redo
...), so it parks that memory here between commands.  ``session.Session``
is the one writer in the program: at a fresh journal's start (cursor 0,
before the first step), after the document when a session saves, and
before the document, with the cursor and the journal's memory cleared,
when a restored autosave replaces it.  A missing or damaged sidecar
reads as an empty state, with no journal cursor, and the session refuses
to resume its journal from that: undo and redo fail rather than guess.
A crash between a save's two writes still leaves a cursor that no longer
matches the document (see the ROADMAP item "Session memory bound to the
document").

File layout: the ``framelog`` container (magic "TCGS", u16 version 3,
CRC-32 per frame) with exactly three frames, each ``u32 len | payload |
u32 crc``, little-endian:

    cursors    u8 has_journal | u8 has_pp | i64 journal | i64 pp
    positions  the journal's positions stack (``Journal.positions``)
    index      the journal's step index (``Journal.index``)

This module reads and writes the cursor frame only.  The other two hold
the bytes the journal handed over; the journal alone packs and parses
them, and checks them where it uses them: an index that does not fit
its file is dropped, and undo refuses a positions entry that does not
fit the step it reaches.  A command that does not open the journal
(``history``, ``pp``) writes both back byte for byte.  A file that is
not exactly three intact frames, or whose cursor frame is not whole,
reads as missing, and so does a sidecar of an earlier layout: version 2
(positions by step number, an index led by a CRC), version 1 (two
frames, no index) or the text layout before it.
"""
from __future__ import annotations

import os
import struct
from types import SimpleNamespace

from . import framelog
from .errors import BadHeader, Corrupt
from .fileio import FileIO

MAGIC = b"TCGS"
VERSION = 3
HEADER = framelog.header(MAGIC, VERSION)

_CURSORS = struct.Struct("<BBqq")


class SidecarState(SimpleNamespace):
    """The cursors, and the journal's positions stack and step index as
    bytes, empty when unknown.  ``positions`` may also be given as a map
    from step number to positions, which ``journal.pack_positions`` turns
    into the stack."""

    def __init__(self, journal_cursor: int | None = None, pp_cursor: int | None = None,
                 positions: bytes | dict[int, list[int]] = b"", index: bytes = b""):
        if isinstance(positions, dict):
            from .journal import pack_positions

            positions = pack_positions(positions)
        super().__init__(journal_cursor=journal_cursor, pp_cursor=pp_cursor, positions=positions, index=index)


def write_sidecar(path: str | os.PathLike, state: SidecarState, io: FileIO | None = None) -> None:
    journal, pp = state.journal_cursor, state.pp_cursor
    cursors = _CURSORS.pack(journal is not None, pp is not None, journal or 0, pp or 0)
    data = HEADER + b"".join(part for payload in (cursors, state.positions, state.index)
                             for part in framelog.frame_parts(framelog.LENGTH_HEAD, payload))
    (io or FileIO()).write_atomic(path, data)


def read_sidecar(path: str | os.PathLike, io: FileIO | None = None) -> SidecarState:
    try:
        data = (io or FileIO()).read_bytes(path)
        ((_, cursors), (_, positions), (_, index)) = framelog.read_frames(data, HEADER, framelog.LENGTH_HEAD)
        has_journal, has_pp, journal, pp = _CURSORS.unpack(cursors)
    except (OSError, BadHeader, Corrupt, ValueError, struct.error):
        return SidecarState()
    return SidecarState(journal if has_journal else None, pp if has_pp else None, positions, index)
