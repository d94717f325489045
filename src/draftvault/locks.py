"""Single-writer session locks.

A session lock is a small file at ``<path>.lock`` holding the owner's pid.
Creation is O_EXCL so exactly one process can hold it.  A lock whose pid is
no longer alive is considered stale and is taken over; this covers crashed
sessions whose lock file survived the process.
"""
from __future__ import annotations

import os
from pathlib import Path

from .errors import Locked

LOCK_SUFFIX = ".lock"


def lock_path_for(path: Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + LOCK_SUFFIX)


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class SessionLock:
    def __init__(self, target: Path):
        self.path = lock_path_for(target)
        self._held = False

    @property
    def held(self) -> bool:
        return self._held

    def acquire(self) -> "SessionLock":
        for _ in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._steal_if_stale():
                    continue
                raise Locked(f"{self.path} is held by a live session")
            with os.fdopen(fd, "w") as fh:
                fh.write(f"pid={os.getpid()}\n")
            self._held = True
            return self
        raise Locked(f"{self.path} could not be acquired")

    def _steal_if_stale(self) -> bool:
        try:
            text = self.path.read_text()
        except OSError:
            return True  # vanished or unreadable: retry the create
        pid = 0
        for line in text.splitlines():
            if line.startswith("pid="):
                try:
                    pid = int(line[4:])
                except ValueError:
                    pid = 0
        if _pid_alive(pid):
            return False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        return True

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SessionLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

