"""Production writes are durable before they return: each write, append
and truncate of ``FileIO`` fsyncs its file, a whole-file replacement
fsyncs the temp file before the rename, and the fault harness, whose
simulated disk is what was written, fsyncs nothing."""
import os

import pytest

from draftvault.autosave import AutosaveConfig
from draftvault.faultsim import FaultPlan, FaultyIO
from draftvault.fileio import FileIO
from draftvault.script import ScriptRunner, parse_script


@pytest.fixture
def calls(monkeypatch):
    """Each ``os.fsync``, by the inode of the file synced, and each
    ``os.replace``, by its target, in call order."""
    log = []
    fsync, replace = os.fsync, os.replace

    def traced_fsync(fd):
        log.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def traced_replace(src, dst):
        log.append(("replace", dst))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    return log


@pytest.mark.parametrize("op, arg", [("write_file", b"new"), ("append", b"new"), ("truncate", 1)])
def test_each_write_fsyncs_its_file_once(tmp_path, calls, op, arg):
    path = tmp_path / "f"
    path.write_bytes(b"old")
    getattr(FileIO(), op)(path, arg)
    assert calls == [("fsync", path.stat().st_ino)]


def test_write_atomic_fsyncs_the_temp_file_before_the_rename(tmp_path, calls):
    path = tmp_path / "f"
    path.write_bytes(b"old")
    FileIO().write_atomic(path, b"new")
    assert path.read_bytes() == b"new"
    assert calls == [("fsync", path.stat().st_ino), ("replace", path)]  # the rename keeps the inode


SESSION = "ADD 1 aa\nSTEP\nPPCOMMIT beef\nADD 2 bb\nSTEP\nUNDO\nADD 3 cc\nSTEP\n"


@pytest.mark.parametrize("faulty", [False, True], ids=["FileIO", "FaultyIO"])
def test_only_the_fault_harness_skips_fsync(tmp_path, calls, faulty):
    """A whole session with autosave and a blob log: every write under
    ``FileIO``, none under ``FaultyIO``, calls ``os.fsync``."""
    doc = tmp_path / "d.tcgd"
    io = FaultyIO(FaultPlan(10**9, "journal"), doc) if faulty else FileIO()
    ScriptRunner(doc, io=io, autosave=AutosaveConfig(1.0, tmp_path)).run(parse_script(SESSION))
    fsyncs = [call for call in calls if call[0] == "fsync"]
    if faulty:
        assert fsyncs == [] and io.ops
    else:
        assert len(fsyncs) >= 10
