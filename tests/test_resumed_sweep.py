"""Every-offset crash sweep of the commands that resume a session.

Each command runs through ``cli.main`` on a copy of one small session:
a three-step journal with its cursor at step 2, a blob log of three
versions remembered at version 2, and an autosave set of a session that
never shut down.  For every offset of the document ("envelope"), blob
log ("pp-log") and autosave set ("autosave") write streams the command
dies there, and then:

* the document is its old bytes or the clean run's;
* the blob log is its old versions or a prefix of the clean run's;
* no lock file is left behind;
* a rerun exits 0 and leaves every file as the clean run does.

A second sweep crashes ``edit`` itself, at every offset of its journal
and document streams, after an earlier session left its cursor at step 1
or 2, and then runs ``redo -n 4`` or ``undo -n 4``: each must exit 0 with
a drawing the crashed session reached, or refuse with 2 or 3.
"""
import shutil

import pytest

from draftvault.autosave import AutosaveConfig, AutosaveSession
from draftvault.cli import main
from draftvault.faultsim import CrashSimulated, FaultPlan, FaultyIO, crash_sim
from draftvault.fileio import FileIO
from draftvault.model import Drawing, ElementPayload
from draftvault.ppversions import PPVersionLog

SCRIPT = "ADD 1 aa\nADD 2 bb\nSTEP\nMOD 1 aa -> 1 aacc\nSTEP\nDEL 2 bb\nSTEP\n"

COMMANDS = {
    "undo -n 2": ["undo", "{doc}", "-n", "2"],
    "redo": ["redo", "{doc}"],
    "pp commit": ["pp", "commit", "{doc}", "--data", "dd"],
    "pp jump": ["pp", "jump", "{doc}", "--to", "1"],
    "recover --apply": ["recover", "{doc}", "--apply"],
}


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    root = tmp_path_factory.mktemp("resumed")
    session = root / "session"
    session.mkdir()
    doc = session / "d.tcgd"
    (root / "s.txt").write_text(SCRIPT)
    io = FileIO(fsync_enabled=False)
    for argv in (
        ["edit", doc, "--script", root / "s.txt"],
        ["undo", doc],
        *(["pp", "commit", doc, "--data", data] for data in ("aa", "bb", "cc")),
        ["pp", "jump", doc, "--to", "2"],
    ):
        assert main([str(a) for a in argv], io=io) == 0
    drawing = Drawing(elements=[ElementPayload(7, b"\x07\x07")])
    saver = AutosaveSession(doc.name, drawing, AutosaveConfig(1.0, session), io)
    saver.set_current_pp(b"\xee\xee")
    assert saver.autosave_tick(1.0) is not None  # and never shut down: the set stays behind
    return session


def _files(d) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _versions(d) -> list:
    log, _ = PPVersionLog._load(d / "d.tcgd.pp", FileIO(), repair=False)
    return list(log.versions)


def _run(d, command: str, io) -> int:
    return main([a.format(doc=d / "d.tcgd") for a in COMMANDS[command]], io=io)


@pytest.mark.parametrize("stream", ["envelope", "pp-log", "autosave"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_crash_at_every_offset_then_rerun(template, tmp_path, monkeypatch, capsys, command, stream):
    monkeypatch.delenv("DRAFTVAULT_AUTOSAVE_DIR", raising=False)
    old = _files(template)
    old_versions = _versions(template)
    clean_dir = tmp_path / "clean"
    shutil.copytree(template, clean_dir)
    assert _run(clean_dir, command, FileIO(fsync_enabled=False)) == 0
    clean = _files(clean_dir)
    clean_versions = _versions(clean_dir)

    offset = 0
    while True:
        d = tmp_path / f"k{offset}"
        shutil.copytree(template, d)
        doc = d / "d.tcgd"
        try:
            _run(d, command, FaultyIO(FaultPlan(offset, stream), doc))
        except CrashSimulated:
            pass
        else:
            assert _files(d) == clean, f"offset {offset}: a run that did not die differs"
            break
        where = f"{command}, {stream} offset {offset}"
        assert doc.read_bytes() in (old["d.tcgd"], clean["d.tcgd"]), where
        versions = _versions(d)
        assert versions == old_versions or versions == clean_versions[: len(versions)], where
        assert not list(d.glob("*.lock")), where
        assert _run(d, command, FileIO(fsync_enabled=False)) == 0, where
        assert _files(d) == clean, where
        shutil.rmtree(d)
        offset += 1
    capsys.readouterr()
    if (command, stream) in {("undo -n 2", "envelope"), ("redo", "envelope"),
                             ("pp commit", "pp-log"), ("recover --apply", "envelope"),
                             ("recover --apply", "pp-log"), ("recover --apply", "autosave")}:
        assert offset > 1, "the command writes this stream, so some offsets must crash"


EARLIER = "ADD 1 00\nSTEP\nADD 1 01\nSTEP\n"
CRASHED = "ADD 1 aa\nSTEP\nADD 1 bb\nSTEP\nDEL 1 00\nSTEP\nADD 1 cc\nSTEP\n"


def _elements(doc) -> tuple:
    return tuple(e.data for e in Drawing.from_canonical_bytes(doc.read_bytes()).elements)


@pytest.mark.parametrize("stream", ["journal", "envelope"])
@pytest.mark.parametrize("cursor", [1, 2])
@pytest.mark.parametrize("command", ["redo", "undo"])
def test_crashed_edit_then_resume(tmp_path, monkeypatch, capsys, stream, cursor, command):
    monkeypatch.delenv("DRAFTVAULT_AUTOSAVE_DIR", raising=False)
    io = FileIO(fsync_enabled=False)
    offset = 0
    while True:
        d = tmp_path / f"k{offset}"
        d.mkdir()
        doc = d / "d.tcgd"
        (d / "e.txt").write_text(EARLIER)
        assert main(["edit", str(doc), "--script", str(d / "e.txt")], io=io) == 0
        if cursor == 1:
            assert main(["undo", str(doc)], io=io) == 0
        reached = [_elements(doc)]
        for op, data in (("+", b"\xaa"), ("+", b"\xbb"), ("-", b"\x00"), ("+", b"\xcc")):
            state = list(reached[-1])
            if op == "+":
                state.append(data)
            else:
                del state[len(state) - 1 - state[::-1].index(data)]
            reached.append(tuple(state))
        if not crash_sim(doc, CRASHED, FaultPlan(offset, stream)).crashed:
            break
        code = main([command, str(doc), "-n", "4"], io=io)
        where = f"{stream} offset {offset}: {command} exit {code}"
        assert code in (0, 2, 3), where
        if code == 0:
            assert _elements(doc) in reached, where
        shutil.rmtree(d)
        offset += 1
    capsys.readouterr()
    assert offset > 1
