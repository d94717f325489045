"""Single-writer session locks.

A session lock is an exclusive, non-blocking ``fcntl.flock`` on the file
``<path>.lock``, held through its open descriptor.  The kernel drops the
lock when the holder dies, however it dies, so a lock file left behind by
a crash or a power cut is not held: the next taker simply locks it.  What
the file holds, and whether it exists, says nothing about the lock.

``release`` unlinks the file, then closes the descriptor.  A taker that
opened the file before that unlink can then lock an inode that is no
longer at the path, so ``acquire`` checks that the path still names the
inode it locked, and starts over if it does not.
"""
from __future__ import annotations

import fcntl
import os
from pathlib import Path

from .errors import Locked

LOCK_SUFFIX = ".lock"


def lock_path_for(path: Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + LOCK_SUFFIX)


class SessionLock:
    def __init__(self, target: Path):
        self.path = lock_path_for(target)
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "SessionLock":
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self._fd = fd
                    return self
            except FileNotFoundError:
                pass
            except BlockingIOError:
                os.close(fd)
                raise Locked(f"{self.path} is held by a live session") from None
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)  # released and unlinked under us: lock the file now there

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        finally:
            os.close(fd)

    def __enter__(self) -> "SessionLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
