"""The CRC-framed container shared by the journal, the blob log, the
signature envelope and the autosave set, and the append-only log built on it.

Container layout (little-endian):

    magic (4 bytes) | u16 version
    per frame: head | payload | u32 crc32(head + payload)

Each format has its own magic and version, which ``header`` packs into
the 6-byte header its files start with, and its own ``head``: a
``struct.Struct`` whose last field is the payload length (``LENGTH_HEAD``
when that is its only field).  Recovery rule: a reader keeps the longest
prefix of frames that are complete and whose CRC matches, and stops at
the first frame that is not.  A format may stop earlier on rules of its
own (the journal does, on step structure); nothing after the stop point
is ever interpreted.  A file that must be whole (the envelope, the
autosave set, the sidecar) is read by ``read_frames``, which refuses any
byte after the last intact frame.
"""
from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator

from .errors import BadHeader, Corrupt, IoFailure
from .fileio import FileIO
from .locks import SessionLock

HEADER_LEN = 6  # magic + u16 version
CRC_LEN = 4

LENGTH_HEAD = struct.Struct("<I")  # the head of a frame whose only field is its payload length

_VERSION = struct.Struct("<H")
_CRC = struct.Struct("<I")
# The CRC-32 of a frame taken over its own stored CRC as well equals this
# constant exactly when the stored CRC is right: one crc32 call per frame
# checks it without unpacking the stored value.
_CRC_RESIDUE = 0x2144DF1C


def header(magic: bytes, version: int) -> bytes:
    """The header of a format: its magic, then its version."""
    return magic + _VERSION.pack(version)


def clamp_cursor(cursor: int | None, count: int) -> int:
    """A cursor remembered by an earlier process, fitted to a log of ``count``
    entries: None means the newest entry, a stale value is clamped."""
    return count if cursor is None else max(0, min(cursor, count))


def frame_parts(head: struct.Struct, payload: bytes, *fields: int) -> tuple[bytes, bytes, bytes]:
    """One frame in three pieces, so that a caller can join it into a
    larger buffer without copying the payload twice: ``head`` packed from
    ``fields`` plus the payload length, the payload, and the CRC-32 of both."""
    packed = head.pack(*fields, len(payload))
    return packed, payload, _CRC.pack(zlib.crc32(payload, zlib.crc32(packed)))


def encode_frame(head: struct.Struct, payload: bytes, *fields: int) -> bytes:
    """One frame as bytes (see frame_parts)."""
    return b"".join(frame_parts(head, payload, *fields))


def scan_frames(
    data: bytes, header: bytes, head: struct.Struct, end: int | None = None, start: int = HEADER_LEN
) -> Iterator[tuple[tuple, int, int]]:
    """Check that ``data`` starts with the format's ``header`` (magic and
    version), then iterate the intact frames of ``data[:end]`` from offset
    ``start``, a frame boundary (the first frame by default).

    Yields ``(fields, payload_start, frame_end)`` per frame, where
    ``fields`` is the unpacked head and the payload is
    ``data[payload_start:frame_end - CRC_LEN]``.  The header is checked
    before this returns, so the call itself raises BadHeader when the
    magic or version is wrong or the header is torn.
    """
    n = len(data) if end is None else min(end, len(data))
    if n < HEADER_LEN or data[:4] != header[:4]:
        raise BadHeader(f"not a {header[:4].decode()} file: bad magic")
    if data[4:HEADER_LEN] != header[4:]:
        (version,) = _VERSION.unpack_from(data, 4)
        raise BadHeader(f"unsupported {header[:4].decode()} format version {version}")
    return _frames(data, head, start, n)


def _frames(data: bytes, head: struct.Struct, pos: int, n: int) -> Iterator[tuple[tuple, int, int]]:
    view = memoryview(data)
    unpack_head, head_len = head.unpack_from, head.size
    crc32 = zlib.crc32
    while pos + head_len <= n:
        fields = unpack_head(data, pos)
        start = pos + head_len
        end = start + fields[-1] + CRC_LEN
        if end > n or crc32(view[pos:end]) != _CRC_RESIDUE:
            return
        yield fields, start, end
        pos = end


def read_frames(data: bytes, header: bytes, head: struct.Struct) -> list[tuple[tuple, bytes]]:
    """The frames of a file that must be whole, as ``(fields, payload)``.
    BadHeader as for scan_frames; Corrupt unless intact frames end ``data``
    (a torn last frame, a flipped byte or bytes appended after the last
    frame).  Each payload is a slice of ``data``: a view, not a copy, when
    ``data`` is a memoryview."""
    frames = []
    valid_end = HEADER_LEN
    for fields, start, valid_end in scan_frames(data, header, head):
        frames.append((fields, data[start : valid_end - CRC_LEN]))
    if valid_end != len(data):
        raise Corrupt(f"{len(data) - valid_end} invalid trailing bytes in {header[:4].decode()} file")
    return frames


class FramedLog:
    """An append-only file of entries, each stored as one or more frames,
    with an in-memory cursor.

    ``_entries[0:cursor]`` lead to the current state; ``_entries[cursor:]``
    is the redo tail, which the next append drops from the file first
    (history is linear).  Mutating calls assume the single-session
    ownership enforced by the lock file at ``<path>.lock``.

    A subclass sets ``HEADER`` (see ``header``) and provides ``_parse``,
    which reads the file's bytes in one scan: the entries of their valid
    prefix, the offset just past each one, and the end of that prefix
    (or ``_read`` in its place, to read less than the whole file).  The
    bytes read stay in ``_data`` and ``_ends`` marks where each entry lies
    in them, so an entry may be decoded lazily, when it is first used.
    """

    HEADER: bytes

    def __init__(self, path: str, io: FileIO, lock: SessionLock | None):
        self.path = path
        self._io = io
        self._lock = lock
        self._entries: list = []
        self._ends: list[int] = []  # file offset just past each entry
        self._data = b""  # the bytes the entries were loaded from
        self.cursor = 0

    @classmethod
    def _parse(cls, data: bytes) -> tuple[list, list[int], int]:
        raise NotImplementedError

    @classmethod
    def _read(cls, path: str, io: FileIO, *hint) -> tuple[bytes, tuple[list, list[int], int]]:
        """The file's bytes and what ``_parse`` reads in them.  ``hint``:
        what ``_open`` was given to read less of the file."""
        data = io.read_bytes(path)
        return data, cls._parse(data)

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def _create(cls, path: str, io: FileIO):
        """Take the session lock and start an empty file, replacing any
        previous one."""
        lock = SessionLock(path).acquire()
        try:
            io.write_file(path, cls.HEADER)
        except OSError as exc:
            lock.release()
            raise IoFailure(f"cannot initialize {path}: {exc}") from exc
        except BaseException:
            lock.release()
            raise
        return cls(path, io, lock)

    @classmethod
    def _open(cls, path: str, io: FileIO, cursor: int | None = None, *hint):
        """Take the session lock and load the file, repairing a torn tail.
        The cursor is fitted to the surviving entries by clamp_cursor, but
        one past them raises Corrupt, and the file is left as it is: it
        lost entries that an earlier process had reached."""
        lock = SessionLock(path).acquire()
        try:
            log, truncated = cls._load(path, io, False, *hint)
            count = len(log._entries)
            if cursor is not None and cursor > count:
                raise Corrupt(f"{path}: only {count} of the {cursor} entries its session reached are intact")
            if truncated:
                io.truncate(path, log._prefix_end(count))
        except BaseException:
            lock.release()
            raise
        log._lock = lock
        log.cursor = clamp_cursor(cursor, count)
        return log

    @classmethod
    def _load(cls, path: str, io: FileIO, repair: bool, *hint):
        """Parse the longest valid prefix; with ``repair`` the file is
        truncated to it.  Returns the log (cursor 0, no lock) and whether
        trailing bytes were dropped."""
        try:
            data, (entries, ends, valid_end) = cls._read(path, io, *hint)
        except BadHeader as exc:
            raise BadHeader(f"{path}: {exc}") from exc
        truncated = valid_end < len(data)
        if truncated and repair:
            io.truncate(path, valid_end)
        log = cls(path, io, lock=None)
        log._entries = entries
        log._ends = ends
        log._data = data
        return log, truncated

    def close(self) -> None:
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    # -- appends ---------------------------------------------------------

    def _prefix_end(self, count: int) -> int:
        return self._ends[count - 1] if count else HEADER_LEN

    def _append(self, buf: bytes, entry) -> None:
        """Drop the redo tail, then append ``buf`` (the encoded ``entry``)
        and move the cursor onto it.  On an append failure the file is cut
        back to the previous end and IoFailure is raised."""
        if self.cursor < len(self._entries):
            try:
                self._io.truncate(self.path, self._prefix_end(self.cursor))
            except OSError as exc:
                raise IoFailure(f"cannot drop redo tail: {exc}") from exc
            del self._entries[self.cursor :]
            del self._ends[self.cursor :]
        file_end = self._prefix_end(len(self._entries))
        try:
            self._io.append(self.path, buf)
        except OSError as exc:
            try:
                self._io.truncate(self.path, file_end)
            except OSError:
                pass
            raise IoFailure(f"append to {self.path} failed: {exc}") from exc
        self._entries.append(entry)
        self._ends.append(file_end + len(buf))
        self.cursor = len(self._entries)
