"""Session locks: the kernel's lock is the truth, not the lock file.

The multi-process test starts one ``python -S`` child and bounds every
wait on it, so a hung child fails the test instead of hanging the suite.
No test forks a process that holds a lock.
"""
import fcntl
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import draftvault
from draftvault.errors import Locked
from draftvault.locks import SessionLock, lock_path_for

SRC = str(Path(draftvault.__file__).resolve().parent.parent)
WAIT_S = 10

# A pid past any pid_max: no process has it, so it reads as a crashed holder.
DEAD_PID = 999_999_999


def _take(lock: SessionLock) -> None:
    try:
        lock.acquire()
    except Locked:
        pass


@pytest.mark.parametrize("pid", [1, os.getpid()], ids=["init", "own"])
def test_a_lock_file_naming_a_live_pid_is_taken(tmp_path, pid):
    """A pid reused after a crash or a power cut does not lock the user out."""
    target = tmp_path / "d.tcgd"
    Path(lock_path_for(target)).write_text(f"pid={pid}\n")
    with SessionLock(target) as lock:
        assert lock.held
        with pytest.raises(Locked):
            SessionLock(target).acquire()
    assert not lock.held
    assert not Path(lock_path_for(target)).exists()


class _Interleaver:
    """Runs ``other`` just before the ``at``-th file-system call made while
    ``armed``, then disarms: a deterministic interleaving of two takers."""

    POINTS = [(os, "open"), (os, "stat"), (os, "fstat"), (os, "unlink"), (os, "close"), (fcntl, "flock")]

    def __init__(self, monkeypatch):
        self.armed = False
        self.at = self.calls = 0
        self.other = None
        for module, name in self.POINTS:
            monkeypatch.setattr(module, name, self._hook(getattr(module, name)))

    def _hook(self, real):
        def hooked(*args, **kwargs):
            if self.armed:
                self.calls += 1
                if self.calls == self.at:
                    self.armed = False
                    self.other()
            return real(*args, **kwargs)

        return hooked

    def run(self, first, at: int, other) -> bool:
        """Call ``first`` with ``other`` run at call ``at``; False when
        ``first`` made fewer calls, so ``other`` never ran."""
        self.at, self.calls, self.other, self.armed = at, 0, other, True
        try:
            first()
        finally:
            fired, self.armed = not self.armed, False
        return fired


@pytest.mark.parametrize("scenario", ["take", "take, release, retake", "take and release"])
def test_two_takers_interleaved_at_every_call_leave_one_holder(tmp_path, monkeypatch, scenario):
    """The second taker runs inside the first one's acquire, before each of
    its file-system calls in turn (its stale check included): afterwards
    exactly one of them holds the lock, and the kernel agrees."""
    target = tmp_path / "d.tcgd"
    interleave = _Interleaver(monkeypatch)
    at = 1
    while True:
        Path(lock_path_for(target)).write_text(f"pid={DEAD_PID}\n")  # left behind by a crash
        first, second, third = SessionLock(target), SessionLock(target), SessionLock(target)

        def other():
            _take(second)
            if scenario != "take":
                second.release()
            if scenario == "take, release, retake":
                _take(third)

        if not interleave.run(lambda: _take(first), at, other):
            break
        where = f"{scenario}, call {at}"
        holders = [lock for lock in (first, second, third) if lock.held]
        assert len(holders) == 1, where
        if scenario == "take and release":
            assert holders == [first], where
        with pytest.raises(Locked):
            SessionLock(target).acquire()
        for lock in (first, second, third):
            lock.release()
        at += 1
    assert at > 2, "the first taker made file-system calls to interleave with"


_HOLD = """\
import sys
sys.path.insert(0, sys.argv[1])
from draftvault.locks import SessionLock
SessionLock(sys.argv[2]).acquire()
print("held", flush=True)
sys.stdin.read()
"""


def test_a_killed_holder_leaves_the_lock_free(tmp_path):
    target = tmp_path / "d.tcgd"
    child = subprocess.Popen([sys.executable, "-S", "-c", _HOLD, SRC, str(target)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready, _, _ = select.select([child.stdout], [], [], WAIT_S)
        assert ready and child.stdout.readline() == b"held\n", "the child did not take the lock"
        with pytest.raises(Locked):
            SessionLock(target).acquire()
    finally:
        child.kill()
        child.communicate(timeout=WAIT_S)
    assert Path(lock_path_for(target)).exists()  # left behind, and no longer held
    with SessionLock(target) as lock:
        assert lock.held
