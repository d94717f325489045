"""Session-state sidecar (``<doc>.session``).

The journal file format carries no cursor, no positions and no step
index: all three are session memory.  The CLI spreads one editing
session over several process invocations (edit, then undo, then redo
...), so it parks that memory here between commands.  ``session.Session``
is the one writer in the program: at a fresh journal's start (cursor 0,
before the first step), after the document when a session saves, and
before the document, with the cursor and the index unknown, when a
restored autosave replaces it.  A missing or damaged sidecar reads as an
empty state, with no journal cursor, and the session refuses to resume
its journal from that: undo and redo fail rather than guess.  A crash
between a save's two writes still leaves a cursor that no longer matches
the document (see the ROADMAP item "Session memory bound to the
document").

File layout: the ``framelog`` container (magic "TCGS", u16 version 2,
CRC-32 per frame) with exactly three frames, each ``u32 len | payload |
u32 crc``, little-endian:

    cursors    u8 has_journal | u8 has_pp | i64 journal | i64 pp
    positions  per step, by ascending step number:
               u32 step_no | u32 count | count x u32 position
    index      empty, or the journal's step index (``Journal.index``):
               crc[4] | count x u32 end

The index holds the offset just past each step of the journal and the
stored CRC of its last step's commit frame, so that a resume scans only
what was appended after it.  A file that is not exactly three intact
frames, whose positions entries do not tile their frame exactly, or
whose index frame is not a CRC and whole u32 ends, reads as missing, and
so does a sidecar of an earlier layout: version 1 (two frames, no index)
or the text layout before it.  The positions and the index stay the
frames' bytes until they are first used: a command that only reads or
moves a cursor (``history``, ``pp``) decodes neither and writes both
frames back byte for byte.
"""
from __future__ import annotations

import os
import struct
from types import SimpleNamespace

from . import framelog
from .errors import BadHeader, Corrupt
from .fileio import FileIO

MAGIC = b"TCGS"
VERSION = 2
HEADER = framelog.header(MAGIC, VERSION)

_CURSORS = struct.Struct("<BBqq")
_U32_MAX = 0xFFFFFFFF


class SidecarState(SimpleNamespace):
    """The cursors, the positions each step touched by step number, and
    the journal's step index ``(ends, crc)`` or None.  Read from a file,
    the positions are ``packed``, the bytes of their frame, and the index
    the bytes of its own, until each is first used."""

    def __init__(self, journal_cursor: int | None = None, pp_cursor: int | None = None,
                 positions: dict[int, list[int]] | None = None,
                 index: tuple[list[int], bytes] | bytes | None = None, packed: bytes = b""):
        super().__init__(journal_cursor=journal_cursor, pp_cursor=pp_cursor, _positions=positions, _packed=packed,
                         _index=index)

    @property
    def positions(self) -> dict[int, list[int]]:
        if self._positions is None:
            self._positions = _decode(self._packed, build=True)
        return self._positions

    @positions.setter
    def positions(self, positions: dict[int, list[int]]) -> None:
        self._positions = positions

    @property
    def index(self) -> tuple[list[int], bytes] | None:
        if isinstance(self._index, bytes):
            self._index = _unpack_index(self._index)
        return self._index

    @index.setter
    def index(self, index: tuple[list[int], bytes] | None) -> None:
        self._index = index


def _decode(packed: bytes, build: bool) -> dict[int, list[int]]:
    """The positions of a frame by step number, left empty without
    ``build``; ValueError unless its entries tile it exactly, struct.error
    unless it is whole u32 values."""
    flat = struct.unpack(f"<{len(packed) // 4}I", packed)
    positions, i = {}, 0
    while i + 1 < len(flat):
        if build:
            positions[flat[i]] = list(flat[i + 2 : i + 2 + flat[i + 1]])
        i += 2 + flat[i + 1]
    if i != len(flat):
        raise ValueError("positions entries do not tile their frame")
    return positions


def _unpack_index(packed: bytes) -> tuple[list[int], bytes] | None:
    if not packed:
        return None
    return list(struct.unpack_from(f"<{len(packed) // 4 - 1}I", packed, 4)), packed[:4]


def _pack_index(index: tuple[list[int], bytes] | bytes | None) -> bytes:
    """The index frame's payload: empty for no index, or for one whose
    ends do not fit a u32."""
    if isinstance(index, bytes):
        return index
    if index is None or not index[0] or index[0][-1] > _U32_MAX:
        return b""
    ends, crc = index
    return crc + struct.pack(f"<{len(ends)}I", *ends)


def write_sidecar(path: str | os.PathLike, state: SidecarState, io: FileIO | None = None) -> None:
    """The positions and index frames are written back as they were read
    unless ``positions`` or ``index`` was used."""
    journal, pp, packed, positions = state.journal_cursor, state.pp_cursor, state._packed, state._positions
    if positions is not None:
        flat = [v for n in sorted(positions) for v in (n, len(positions[n]), *positions[n])]
        packed = struct.pack(f"<{len(flat)}I", *flat)
    payloads = (_CURSORS.pack(journal is not None, pp is not None, journal or 0, pp or 0), packed,
                _pack_index(state._index))
    data = HEADER + b"".join(framelog.encode_frame(framelog.LENGTH_HEAD, payload) for payload in payloads)
    (io or FileIO()).write_atomic(path, data)


def read_sidecar(path: str | os.PathLike, io: FileIO | None = None) -> SidecarState:
    try:
        data = (io or FileIO()).read_bytes(path)
        ((_, cursors), (_, packed), (_, index)) = framelog.read_frames(data, HEADER, framelog.LENGTH_HEAD)
        has_journal, has_pp, journal, pp = _CURSORS.unpack(cursors)
        _decode(packed, build=False)
        if len(index) % 4 or len(index) == 4:
            raise ValueError("the index frame is not a CRC and whole u32 ends")
    except (OSError, BadHeader, Corrupt, ValueError, struct.error):
        return SidecarState()
    return SidecarState(journal if has_journal else None, pp if has_pp else None, index=index, packed=packed)
