"""Session-state sidecar (``<doc>.session``).

The journal file format carries no cursor and no positions: both are
session memory.  The CLI spreads one editing session over several
process invocations (edit, then undo, then redo ...), so it parks that
memory here between commands.  ``session.Session`` is the one writer in
the program: at a fresh journal's start (cursor 0, before the first
step), after the document when a session saves, and before the document,
with the cursor unknown, when a restored autosave replaces it.  A missing
or damaged sidecar reads as an empty state, with no journal cursor, and
the session refuses to resume its journal from that: undo and redo fail
rather than guess.  A crash between a save's two writes still leaves a
cursor that no longer matches the document (see the ROADMAP item
"Session memory bound to the document").

File layout: the ``framelog`` container (magic "TCGS", u16 version,
CRC-32 per frame) with exactly two frames, each ``u32 len | payload |
u32 crc``, little-endian:

    cursors    u8 has_journal | u8 has_pp | i64 journal | i64 pp
    positions  per step, by ascending step number:
               u32 step_no | u32 count | count x u32 position

A file that is not exactly two intact frames reads as missing, and so
does a sidecar of the earlier text layout (``key=value`` lines under a
banner, then a CRC line).
"""
from __future__ import annotations

import struct
from pathlib import Path
from types import SimpleNamespace

from . import framelog
from .errors import BadHeader, Corrupt
from .fileio import FileIO

MAGIC = b"TCGS"
VERSION = 1
HEADER = framelog.header(MAGIC, VERSION)

_CURSORS = struct.Struct("<BBqq")


class SidecarState(SimpleNamespace):
    """The cursors, and the positions each step touched by step number."""

    def __init__(self, journal_cursor: int | None = None, pp_cursor: int | None = None,
                 positions: dict[int, list[int]] | None = None):
        super().__init__(journal_cursor=journal_cursor, pp_cursor=pp_cursor,
                         positions={} if positions is None else positions)


def write_sidecar(path: Path, state: SidecarState, io: FileIO | None = None) -> None:
    journal, pp = state.journal_cursor, state.pp_cursor
    flat = []
    for step_no in sorted(state.positions):
        flat += (step_no, len(state.positions[step_no]), *state.positions[step_no])
    payloads = (_CURSORS.pack(journal is not None, pp is not None, journal or 0, pp or 0),
                struct.pack(f"<{len(flat)}I", *flat))
    data = HEADER + b"".join(framelog.encode_frame(framelog.LENGTH_HEAD, payload) for payload in payloads)
    (io or FileIO()).write_atomic(path, data)


def read_sidecar(path: Path, io: FileIO | None = None) -> SidecarState:
    try:
        data = (io or FileIO()).read_bytes(path)
        ((_, cursors), (_, packed)) = framelog.read_frames(data, HEADER, framelog.LENGTH_HEAD)
        has_journal, has_pp, journal, pp = _CURSORS.unpack(cursors)
        flat = struct.unpack(f"<{len(packed) // 4}I", packed)
    except (OSError, BadHeader, Corrupt, ValueError, struct.error):
        return SidecarState()
    positions, i = {}, 0
    while i + 1 < len(flat):
        step_no, count = flat[i], flat[i + 1]
        positions[step_no] = list(flat[i + 2 : i + 2 + count])
        i += 2 + count
    if i != len(flat):
        return SidecarState()
    return SidecarState(journal if has_journal else None, pp if has_pp else None, positions)
