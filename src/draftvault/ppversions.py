"""Whole-blob version history for parametric representations.

Parametric state produced by a design extension is opaque here: one byte
string per change step, stored complete.  Undo, redo and jumps replace the
whole blob, so no step ordering constraints exist and any version can be
reached directly.  No deltas are stored; every version on disk is
self-sufficient, at the cost of space linear in blob size times versions.

Log file layout: the ``framelog`` container (magic "TCGP", u16 version,
CRC-32 per frame) with one frame per stored blob, little-endian:

    u32 len | blob bytes | u32 crc
"""
from __future__ import annotations

import struct
from pathlib import Path

from . import framelog
from .errors import NothingToRedo, NothingToUndo, OutOfRange
from .fileio import FileIO
from .framelog import CRC_LEN, HEADER_LEN, FramedLog

MAGIC = b"TCGP"
VERSION = 1
HEADER = framelog.header(MAGIC, VERSION)

_BLOCK_HEAD = struct.Struct("<I")


class PPVersionLog(FramedLog):
    """Append-only version store with an in-memory cursor.

    versions[0:cursor] lead to the current blob ``versions[cursor-1]``;
    anything beyond the cursor is the redo tail and is dropped from the
    file by the next commit.
    """

    HEADER = HEADER

    @classmethod
    def _parse(cls, data: bytes) -> tuple[list[bytes | None], list[int], int]:
        """Every intact frame's end; no blob is sliced out until ``_blob``
        reaches it."""
        ends = [frame_end for _, _, frame_end in framelog.scan_frames(data, HEADER, _BLOCK_HEAD)]
        return [None] * len(ends), ends, ends[-1] if ends else HEADER_LEN

    def _blob(self, index: int) -> bytes:
        """Version ``index + 1``, sliced out of the loaded bytes on first use."""
        blob = self._entries[index]
        if blob is None:
            data = self._data
            ((_, start, end),) = framelog.scan_frames(
                data, HEADER, _BLOCK_HEAD, self._ends[index], self._prefix_end(index)
            )
            blob = self._entries[index] = data[start : end - CRC_LEN]
        return blob

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, path: Path, io: FileIO | None = None) -> "PPVersionLog":
        return cls._create(Path(path), io or FileIO())

    @classmethod
    def open(cls, path: Path, io: FileIO | None = None) -> "PPVersionLog":
        """Reopen an existing log, repairing a torn tail; missing file is
        created fresh.  The cursor is at the newest version."""
        io = io or FileIO()
        path = Path(path)
        if not io.exists(path):
            return cls.create(path, io)
        return cls._open(path, io)

    # -- operations --------------------------------------------------------

    @property
    def versions(self) -> list[bytes]:
        if None in self._entries:
            for index in range(len(self._entries)):
                self._blob(index)
        return self._entries

    @property
    def version_count(self) -> int:
        return len(self._entries)

    def current(self) -> bytes:
        """The blob at the cursor; any byte string is a valid blob."""
        if self.cursor < 1:
            raise OutOfRange("no version committed yet")
        return self._blob(self.cursor - 1)

    def commit_pp(self, blob: bytes) -> int:
        """Store a new version, dropping any redo tail; returns its index."""
        data = bytes(blob)
        self._append(framelog.encode_frame(_BLOCK_HEAD, data), data)
        return self.cursor

    def undo_pp(self) -> bytes:
        """Step back one version and return it, bit-exact."""
        if self.cursor < 2:
            raise NothingToUndo("already at the first version")
        self.cursor -= 1
        return self.current()

    def redo_pp(self) -> bytes:
        if self.cursor >= self.version_count:
            raise NothingToRedo("already at the newest version")
        self.cursor += 1
        return self.current()

    def jump_pp(self, target: int) -> bytes:
        """Go directly to any stored version; order of steps plays no role."""
        if not 1 <= target <= self.version_count:
            raise OutOfRange(f"version {target} outside 1..{self.version_count}")
        self.cursor = target
        return self.current()


def recover_pp_log(path: Path, io: FileIO | None = None) -> tuple[PPVersionLog, bool]:
    """Keep the longest prefix of intact versions, truncating the rest;
    same recovery discipline as the change journal.  The cursor is at the
    newest surviving version."""
    log, truncated = PPVersionLog._load(Path(path), io or FileIO(), repair=True)
    log.cursor = log.version_count
    return log, truncated
