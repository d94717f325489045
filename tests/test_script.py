import hashlib
from pathlib import Path

import pytest

from draftvault.autosave import AutosaveConfig, probe_recovery
from draftvault.errors import DocumentFrozen, ScriptError
from draftvault.faultsim import FaultPlan, FaultyIO
from draftvault.journal import FLAG_DELETED, inspect_journal
from draftvault.model import Drawing, ElementPayload
from draftvault.script import Command, ScriptRunner, parse_script
from draftvault.sidecar import read_sidecar
from draftvault.signatures import SignedEnvelope, save_document, sign

from conftest import dies_after_step

SCRIPT = """
# build two elements, then reshape one
ADD 1 aa
ADD 2 bb
STEP
MOD 1 aa -> 1 aacc
STEP
"""


def test_parse_basic_script():
    commands = parse_script(SCRIPT)
    assert [c.op for c in commands] == ["ADD", "ADD", "STEP", "MOD", "STEP"]
    assert commands[0].args[0].kind == 1 and commands[0].args[0].data == b"\xaa"


def test_parse_rejects_bad_lines():
    for bad in ("WHAT", "ADD 1", "ADD x aa", "MOD 1 aa 1 bb", "PPJUMP x", "ADD 1 zz"):
        with pytest.raises(ScriptError):
            parse_script(bad)


def test_parse_pp_commands():
    commands = parse_script("PPCOMMIT deadbeef\nPPJUMP 2\n")
    assert commands[0] == Command("PPCOMMIT", (bytes.fromhex("deadbeef"),))
    assert commands[1] == Command("PPJUMP", (2,))


def test_runner_simple_session(tmp_path):
    doc = tmp_path / "d.tcgd"
    result = ScriptRunner(doc).run(parse_script(SCRIPT))
    assert result.steps_committed == 2
    assert result.cursor == 2 and result.step_count == 2
    drawing = Drawing.from_canonical_bytes(doc.read_bytes())
    assert [(e.kind, e.data) for e in drawing.elements] == [(2, b"\xbb"), (1, b"\xaa\xcc")]
    journal, truncated = inspect_journal(doc.with_name("d.tcgd.journal"))
    assert not truncated and journal.step_count == 2
    assert journal.steps[1].changes[0][0] == FLAG_DELETED
    state = read_sidecar(doc.with_name("d.tcgd.session"))
    assert state.journal_cursor == 2
    assert set(state.positions) == {1, 2}


def test_runner_trailing_changes_commit_at_eof(tmp_path):
    doc = tmp_path / "d.tcgd"
    result = ScriptRunner(doc).run(parse_script("ADD 1 aa\nSTEP\nADD 2 bb"))
    assert result.steps_committed == 2


def test_runner_undo_redo_inside_script(tmp_path):
    doc = tmp_path / "d.tcgd"
    script = "ADD 1 aa\nSTEP\nADD 2 bb\nSTEP\nUNDO\nUNDO\nREDO\n"
    result = ScriptRunner(doc).run(parse_script(script))
    assert result.cursor == 1 and result.step_count == 2
    drawing = Drawing.from_canonical_bytes(doc.read_bytes())
    assert [(e.kind, e.data) for e in drawing.elements] == [(1, b"\xaa")]


def test_runner_excess_undo_is_noticed_not_fatal(tmp_path):
    doc = tmp_path / "d.tcgd"
    result = ScriptRunner(doc).run(parse_script("UNDO\nADD 1 aa\nSTEP\n"))
    assert result.notices == ["nothing to undo"]
    assert result.steps_committed == 1


def test_runner_pp_commands(tmp_path):
    doc = tmp_path / "d.tcgd"
    script = "PPCOMMIT aa\nPPCOMMIT bb\nPPCOMMIT cc\nPPJUMP 1\nADD 1 aa\nSTEP\n"
    result = ScriptRunner(doc).run(parse_script(script))
    assert result.pp_cursor == 1 and result.pp_count == 3
    state = read_sidecar(doc.with_name("d.tcgd.session"))
    assert state.pp_cursor == 1


def test_runner_rejects_signed_document(tmp_path):
    doc = tmp_path / "d.tcgd"
    save_document(doc, SignedEnvelope(document=Drawing().canonical_bytes()))
    env = sign(
        SignedEnvelope(document=doc.read_bytes()), "ivanov", "pw",
        signed_at=1, salt=bytes(16),
    )
    save_document(doc, env)
    before = doc.read_bytes()
    with pytest.raises(DocumentFrozen):
        ScriptRunner(doc).run(parse_script("ADD 1 aa\nSTEP\n"))
    assert doc.read_bytes() == before
    assert not doc.with_name("d.tcgd.lock").exists()  # orderly failure released locks


def test_runner_with_autosave_cleans_up_on_completion(tmp_path):
    doc = tmp_path / "d.tcgd"
    cfg = AutosaveConfig(interval=1.0, autosave_dir=tmp_path)
    runner = ScriptRunner(doc, autosave=cfg, start_time=0.0, step_seconds=2.0)
    result = runner.run(parse_script("ADD 1 aa\nSTEP\nADD 2 bb\nSTEP\n"))
    assert result.steps_committed == 2
    assert probe_recovery(tmp_path, "d.tcgd") is None  # clean shutdown removed the set


TWO_STEPS = "ADD 1 aa\nSTEP\nADD 2 bb\nSTEP\n"


def test_runner_abort_leaves_autosave_set(tmp_path):
    doc = tmp_path / "d.tcgd"
    cfg = AutosaveConfig(interval=1.0, autosave_dir=tmp_path)
    with dies_after_step(doc, TWO_STEPS, 1) as io:
        ScriptRunner(doc, io=io, autosave=cfg, start_time=0.0, step_seconds=2.0).run(parse_script(TWO_STEPS))
    found = probe_recovery(tmp_path, "d.tcgd")
    after_one = Drawing(elements=[ElementPayload(1, b"\xaa")])
    assert found is not None and found.drawing_sha == hashlib.sha256(after_one.canonical_bytes()).hexdigest()
    assert not doc.exists()  # abnormal end: no final save


class _AutosaveWritesFail(FaultyIO):
    """A FaultyIO whose writes to the autosave stream raise, ``failures``
    times (every time when None); it dies by ``plan``, by default never."""

    def __init__(self, doc, failures=None, plan=FaultPlan(10**9, "journal")):
        super().__init__(plan, doc)
        self.failures = failures

    def write_file(self, path, data):
        if ".autosave." in Path(path).name and self.failures != 0:
            if self.failures is not None:
                self.failures -= 1
            raise OSError(28, "No space left on device")
        super().write_file(path, data)


def test_autosave_failures_are_counted_and_the_session_is_saved(tmp_path, caplog):
    doc = tmp_path / "d.tcgd"
    runner = ScriptRunner(doc, io=_AutosaveWritesFail(doc), autosave=AutosaveConfig(1.0, tmp_path),
                          step_seconds=2.0)
    result = runner.run(parse_script(TWO_STEPS))
    assert (result.steps_committed, result.autosave_failures) == (2, 2)
    assert caplog.text.count("autosave failed") == 2
    assert Drawing.from_canonical_bytes(doc.read_bytes()).elements == [ElementPayload(1, b"\xaa"),
                                                                       ElementPayload(2, b"\xbb")]
    assert read_sidecar(doc.with_name("d.tcgd.session")).journal_cursor == 2
    assert not [p for p in tmp_path.iterdir() if ".autosave." in p.name]


def test_a_failed_tick_is_retried_at_the_next(tmp_path):
    doc = tmp_path / "d.tcgd"
    with dies_after_step(doc, TWO_STEPS, 2) as crash:
        io = _AutosaveWritesFail(doc, failures=1, plan=crash.plan)
        ScriptRunner(doc, io=io, autosave=AutosaveConfig(1.0, tmp_path), step_seconds=2.0).run(
            parse_script(TWO_STEPS))
    assert io.failures == 0  # the first tick failed, the second wrote the set
    found = probe_recovery(tmp_path, "d.tcgd")
    after_two = Drawing(elements=[ElementPayload(1, b"\xaa"), ElementPayload(2, b"\xbb")])
    assert found is not None and found.drawing_sha == hashlib.sha256(after_two.canonical_bytes()).hexdigest()
