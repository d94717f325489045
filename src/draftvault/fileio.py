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
from pathlib import Path


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
