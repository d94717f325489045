"""Filesystem access layer.

Every byte the engine persists goes through a :class:`FileIO` instance so
that the crash-fault harness can interpose on writes.  The default
implementation talks to the real filesystem and follows the usual
durability discipline: every write, append and truncate is fsynced before
it returns, and whole-file replacements go through a temp file in the
same directory, fsync, then an atomic rename, so a crash can never expose
a torn file under its final name.  The fsync is one method, ``_sync``,
which the fault harness overrides; no setting turns it off.
"""
from __future__ import annotations

import os


class FileIO:
    """Passthrough filesystem operations; subclassed by the fault harness."""

    def _sync(self, fh) -> None:
        """Make what ``fh`` wrote durable before the operation returns."""
        fh.flush()
        os.fsync(fh.fileno())

    # -- primitive operations -------------------------------------------

    def read_bytes(self, path: str | os.PathLike) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def read_range(self, path: str | os.PathLike, start: int, end: int | None = None) -> bytes:
        """The bytes of ``path`` from offset ``start`` to ``end`` (or its end)."""
        with open(path, "rb") as fh:
            fh.seek(start)
            return fh.read(-1 if end is None else end - start)

    def write_file(self, path: str | os.PathLike, data: bytes) -> None:
        """Plain create/truncate write (used for temp files)."""
        with open(path, "wb") as fh:
            fh.write(data)
            self._sync(fh)

    def append(self, path: str | os.PathLike, data: bytes) -> None:
        with open(path, "ab") as fh:
            fh.write(data)
            self._sync(fh)

    def truncate(self, path: str | os.PathLike, size: int) -> None:
        with open(path, "r+b") as fh:
            fh.truncate(size)
            self._sync(fh)

    def replace(self, src: str | os.PathLike, dst: str | os.PathLike) -> None:
        os.replace(src, dst)

    def unlink(self, path: str | os.PathLike) -> None:
        os.unlink(path)

    # -- composites ------------------------------------------------------

    def write_atomic(self, path: str | os.PathLike, data: bytes) -> None:
        """Write ``data`` under ``path`` so that either the old or the new
        content is visible at every instant, never a mixture."""
        tmp = os.fspath(path) + ".tmp"
        self.write_file(tmp, data)
        self.replace(tmp, path)

    def exists(self, path: str | os.PathLike) -> bool:
        return os.path.exists(path)
