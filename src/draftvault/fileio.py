"""Filesystem access layer.

Every byte the engine persists goes through a :class:`FileIO` instance so
that the crash-fault harness can interpose on writes.  The default
implementation talks to the real filesystem and follows the usual
durability discipline: every write, append and truncate is fsynced before
it returns, and whole-file replacements go through a temp file in the
same directory, fsync, then an atomic rename, so a crash can never expose
a torn file under its final name.  The fsync is one method, ``_sync``,
which the fault harness overrides; no setting turns it off.  The checked
text codec of the small key=value files (the session sidecar) lives here
too.
"""
from __future__ import annotations

import os
import zlib
from pathlib import Path

from .errors import Corrupt


def encode_checked_text(banner: str, lines: list[str]) -> bytes:
    """A small checked text file: the banner line, the ``key=value`` lines,
    then ``crc=%08x`` over everything before it."""
    body = ("\n".join([banner, *lines]) + "\n").encode()
    return body + f"crc={zlib.crc32(body):08x}\n".encode()


def decode_checked_text(data: bytes, banner: str) -> list[tuple[str, str]]:
    """The ``(key, value)`` fields of a file written by encode_checked_text,
    in file order.  Raises Corrupt when the checksum does not match or the
    banner is not ``banner``, and ValueError when the checksum is not hex."""
    head, _, tail = data.decode("utf-8", errors="replace").rpartition("crc=")
    if not head or zlib.crc32(head.encode()) != int(tail.strip(), 16):
        raise Corrupt(f"{banner}: checksum mismatch")
    first, *lines = head.splitlines()
    if first != banner:
        raise Corrupt(f"not a {banner} file")
    return [(key, value) for key, _, value in (line.partition("=") for line in lines)]


class FileIO:
    """Passthrough filesystem operations; subclassed by the fault harness."""

    def _sync(self, fh) -> None:
        """Make what ``fh`` wrote durable before the operation returns."""
        fh.flush()
        os.fsync(fh.fileno())

    # -- primitive operations -------------------------------------------

    def read_bytes(self, path: Path) -> bytes:
        return Path(path).read_bytes()

    def write_file(self, path: Path, data: bytes) -> None:
        """Plain create/truncate write (used for temp files)."""
        with open(path, "wb") as fh:
            fh.write(data)
            self._sync(fh)

    def append(self, path: Path, data: bytes) -> None:
        with open(path, "ab") as fh:
            fh.write(data)
            self._sync(fh)

    def truncate(self, path: Path, size: int) -> None:
        with open(path, "r+b") as fh:
            fh.truncate(size)
            self._sync(fh)

    def replace(self, src: Path, dst: Path) -> None:
        os.replace(src, dst)

    def unlink(self, path: Path) -> None:
        os.unlink(path)

    # -- composites ------------------------------------------------------

    def write_atomic(self, path: Path, data: bytes) -> None:
        """Write ``data`` under ``path`` so that either the old or the new
        content is visible at every instant, never a mixture."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        self.write_file(tmp, data)
        self.replace(tmp, path)

    def exists(self, path: Path) -> bool:
        return Path(path).exists()
