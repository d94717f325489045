import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from draftvault import model
from draftvault.autosave import AutosaveConfig, AutosaveSession
from draftvault.cli import main
from draftvault.fileio import FileIO
from draftvault.locks import SessionLock
from draftvault.model import Drawing
from draftvault.ppversions import recover_pp_log
from draftvault.sidecar import SidecarState, write_sidecar

from conftest import dies_after_step
from test_signatures import envelope_with_raw_signer

SCRIPT = """\
ADD 1 aa
ADD 2 bb
STEP
MOD 1 aa -> 1 aacc
STEP
DEL 2 bb
STEP
"""


@pytest.fixture
def doc(tmp_path, monkeypatch):
    monkeypatch.setenv("DRAFTVAULT_AUTOSAVE_DIR", str(tmp_path / "autosaves"))
    (tmp_path / "autosaves").mkdir()
    (tmp_path / "edit.txt").write_text(SCRIPT)
    return tmp_path / "d.tcgd"


def run(argv, capsys, io=None):
    code = main([str(a) for a in argv], io=io)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_edit_then_history_counts_steps(doc, capsys):
    code, out, _ = run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    assert code == 0
    assert "committed 3 step(s)" in out
    code, out, _ = run(["history", doc], capsys)
    assert code == 0
    step_lines = [line for line in out.splitlines() if line.startswith("step ")]
    assert len(step_lines) == SCRIPT.count("STEP")
    assert "<- cursor" in step_lines[-1]


def test_undo_with_empty_journal_is_graceful(doc, capsys):
    code, out, _ = run(["undo", doc], capsys)
    assert code == 0
    assert "nothing to undo" in out


def test_undo_redo_across_invocations(doc, capsys):
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    after_three = doc.read_bytes()
    code, out, _ = run(["undo", doc, "-n", "2"], capsys)
    assert code == 0 and "undo: 2 step(s); cursor at 1 of 3" in out
    drawing = Drawing.from_canonical_bytes(doc.read_bytes())
    assert [(e.kind, e.data) for e in drawing.elements] == [(1, b"\xaa"), (2, b"\xbb")]
    code, out, _ = run(["redo", doc, "-n", "5"], capsys)
    assert code == 0 and "redo: 2 step(s); cursor at 3 of 3" in out
    assert doc.read_bytes() == after_three
    code, out, _ = run(["redo", doc], capsys)
    assert code == 0 and "nothing to redo" in out


def test_undo_all_and_back(doc, capsys):
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    code, out, _ = run(["undo", doc, "-n", "99"], capsys)
    assert code == 0 and "cursor at 0 of 3" in out
    assert Drawing.from_canonical_bytes(doc.read_bytes()).elements == []


def test_pp_cli_round_trip(doc, capsys):
    code, out, _ = run(["pp", "commit", doc, "--data", "aa01"], capsys)
    assert code == 0 and "committed version 1" in out
    run(["pp", "commit", doc, "--data", "bb02"], capsys)
    code, out, _ = run(["pp", "undo", doc], capsys)
    assert code == 0 and "at version 1 of 2: aa01" in out
    code, out, _ = run(["pp", "redo", doc], capsys)
    assert code == 0 and "at version 2 of 2: bb02" in out
    code, out, _ = run(["pp", "jump", doc, "--to", "1"], capsys)
    assert code == 0 and "at version 1 of 2: aa01" in out
    code, out, _ = run(["pp", "undo", doc], capsys)
    assert code == 0 and "nothing to undo" in out


def test_edit_keeps_the_remembered_blob_version(doc, capsys):
    for data in ("aa", "bb", "cc"):
        run(["pp", "commit", doc, "--data", data], capsys)
    run(["pp", "jump", doc, "--to", "1"], capsys)
    (doc.parent / "no_pp.txt").write_text("ADD 1 aa\nSTEP\n")
    code, _, _ = run(["edit", doc, "--script", doc.parent / "no_pp.txt"], capsys)
    assert code == 0
    # a script that never touches the blob log leaves its version remembered
    code, out, _ = run(["pp", "undo", doc], capsys)
    assert code == 0 and "nothing to undo" in out
    # a script that does opens the log there: a commit drops versions 2 and 3
    (doc.parent / "pp.txt").write_text("PPCOMMIT dd\n")
    code, out, _ = run(["edit", doc, "--script", doc.parent / "pp.txt"], capsys)
    assert code == 0 and "pp at version 2 of 2" in out


def test_sign_verify_unsign_flow(doc, capsys, monkeypatch):
    monkeypatch.setenv("DRAFTVAULT_PASSWORD", "pw-secret")
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    code, out, _ = run(["sign", doc, "--signer", "ivanov", "--now", "2026-08-08T10:00:00"], capsys)
    assert code == 0 and "1 signature(s)" in out
    code, out, _ = run(["verify", doc], capsys)
    assert code == 0 and "ivanov: intact" in out

    code, out, err = run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    assert code == 3 and "signed" in err

    code, out, _ = run(["unsign", doc, "--signer", "ivanov", "--now", "2026-08-08T11:00:00"], capsys)
    assert code == 0 and "visibly unsigned" in out
    siglog = doc.parent / "d.tcgd.siglog"
    assert "signer=ivanov" in siglog.read_text()
    code, out, _ = run(["verify", doc], capsys)
    assert code == 0 and "no signatures" in out
    code, _, _ = run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    assert code == 0  # remove-then-edit succeeds


def test_verify_reports_undecodable_signer_as_corrupt(doc, capsys):
    doc.write_bytes(envelope_with_raw_signer(b"\xc3\x28"))
    code, _, err = run(["verify", doc], capsys)
    assert code == 3 and "UTF-8" in err


def test_verify_detects_tamper(doc, capsys, monkeypatch):
    monkeypatch.setenv("DRAFTVAULT_PASSWORD", "pw")
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    run(["sign", doc, "--signer", "ivanov"], capsys)
    signed = doc.read_bytes()

    # a raw bit flip trips the section checksum before signature checks
    data = bytearray(signed)
    data[12] ^= 0x01
    doc.write_bytes(bytes(data))
    code, out, err = run(["verify", doc], capsys)
    assert code == 3 and "error" in err

    # a structurally valid envelope with altered content is the signature's job
    from dataclasses import replace as dc_replace

    from draftvault.model import Drawing as D, ElementPayload as E
    from draftvault.signatures import encode_envelope, parse_envelope

    env = parse_envelope(signed)
    tampered = dc_replace(env, document=D(elements=[E(7, b"swapped")]).canonical_bytes())
    doc.write_bytes(encode_envelope(tampered))
    code, out, _ = run(["verify", doc], capsys)
    assert code == 3 and "content-changed" in out


def test_signed_doc_rejects_undo(doc, capsys, monkeypatch):
    monkeypatch.setenv("DRAFTVAULT_PASSWORD", "pw")
    # a dead session leaves an autosave set for recover --apply to offer
    with dies_after_step(doc, SCRIPT, 1) as io:
        run(["autosave-run", doc, "--script", doc.parent / "edit.txt", "--interval", "1",
             "--step-seconds", "2"], capsys, io)
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    run(["undo", doc], capsys)  # leaves a step to redo
    run(["sign", doc, "--signer", "ivanov"], capsys)
    before = doc.read_bytes()
    assert before[:4] == b"TCGE"
    for argv in (["undo", doc], ["redo", doc], ["recover", doc, "--apply"]):
        code, _, err = run(argv, capsys)
        assert code == 3 and "signed" in err, argv
        assert doc.read_bytes() == before


def test_torn_envelope_is_not_edited_as_unsigned(doc, capsys, monkeypatch):
    monkeypatch.setenv("DRAFTVAULT_PASSWORD", "pw")
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    run(["undo", doc], capsys)
    run(["sign", doc, "--signer", "ivanov"], capsys)
    torn = doc.read_bytes()[:-3]
    doc.write_bytes(torn)
    code, _, err = run(["undo", doc], capsys)
    assert code == 3 and "invalid trailing bytes" in err
    assert doc.read_bytes() == torn


@pytest.mark.parametrize("command", ["undo", "redo", "edit"])
def test_open_parses_the_document_twice(doc, capsys, monkeypatch, command):
    """The document is walked twice: once to open it for the edit, by a
    parse that checks its structure in the walk that builds it, and once
    when save_document validates the file it replaces (without building
    it)."""
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    run(["undo", doc], capsys)
    parse = Drawing.from_canonical_bytes.__func__
    validate = model.validate_drawing
    parses, validations = [], []

    def counting_parse(cls, data, name=""):
        parses.append(len(data))
        return parse(cls, data, name)

    def counting_validate(data):
        validations.append(len(data))
        return validate(data)

    monkeypatch.setattr(Drawing, "from_canonical_bytes", classmethod(counting_parse))
    monkeypatch.setattr(model, "validate_drawing", counting_validate)
    argv = [command, doc] + (["--script", doc.parent / "edit.txt"] if command == "edit" else [])
    code, out, _ = run(argv, capsys)
    assert code == 0 and "nothing" not in out
    assert len(parses) == 1
    assert len(validations) == 1


def test_history_clamps_a_negative_sidecar_cursor(doc, capsys):
    (doc.parent / "two.txt").write_text("ADD 1 aa\nSTEP\nADD 2 bb\nSTEP\n")
    run(["edit", doc, "--script", doc.parent / "two.txt"], capsys)
    write_sidecar(doc.with_name("d.tcgd.session"), SidecarState(journal_cursor=-1))
    code, out, _ = run(["history", doc], capsys)
    assert code == 0
    assert "<- cursor" not in out and "cursor at session start" in out
    code, out, _ = run(["redo", doc], capsys)  # undo and redo read it as cursor 0 too
    assert code == 0 and "cursor at 1 of 2" in out


REVISIT = "ADD 1 aa\nSTEP\nADD 1 bb\nSTEP\nADD 1 aa\nSTEP\n"


def _damage(sidecar):
    """A sidecar whose CRC no longer matches its text."""
    sidecar.write_bytes(sidecar.read_bytes().replace(b"journal_cursor=2", b"journal_cursor=3"))


@pytest.mark.parametrize("lose", [lambda p: p.unlink(), _damage], ids=["lost", "damaged"])
def test_undo_without_a_cursor_is_refused(doc, capsys, lose):
    """At state 2 of 3 the cursor cannot be told from the journal: a guess
    at step 3 undoes the second ``aa`` and leaves ``[bb]``, a drawing the
    session never had."""
    (doc.parent / "revisit.txt").write_text(REVISIT)
    run(["edit", doc, "--script", doc.parent / "revisit.txt"], capsys)
    run(["undo", doc], capsys)
    before = doc.read_bytes()
    sidecar = doc.with_name("d.tcgd.session")
    lose(sidecar)
    for command in ("undo", "redo"):
        code, _, err = run([command, doc], capsys)
        assert code == 3 and f"{sidecar} is missing or damaged" in err
        assert doc.read_bytes() == before
    code, out, _ = run(["history", doc], capsys)
    assert code == 0
    assert "<- cursor" not in out
    assert out.splitlines()[-2:] == ["cursor unknown: d.tcgd.session is missing or damaged",
                                     "3 step(s) in session journal"]
    assert len([line for line in out.splitlines() if line.startswith("step ")]) == 3


def test_a_lock_file_left_by_a_crash_does_not_hold(doc, capsys):
    """The lock file names a live pid, as a reused one after a power cut
    would; only a held kernel lock keeps a command out."""
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    doc.with_name("d.tcgd.lock").write_text("pid=1\n")
    code, out, _ = run(["undo", doc], capsys)
    assert code == 0 and "cursor at 2 of 3" in out
    assert not doc.with_name("d.tcgd.lock").exists()


def test_autosave_run_and_recover_cycle(doc, capsys):
    with dies_after_step(doc, SCRIPT, 2) as io:
        run(["autosave-run", doc, "--script", doc.parent / "edit.txt", "--interval", "1",
             "--step-seconds", "2", "--now", "2026-08-08T00:00:00"], capsys, io)
    code, out, _ = run(["recover", doc], capsys)
    assert code == 0 and "autosave set found" in out
    assert "saved at t=1786147204.0" in out  # the tick after step 2, on the injected clock
    code, out, _ = run(["recover", doc, "--apply"], capsys)
    assert code == 0 and "restored" in out
    drawing = Drawing.from_canonical_bytes(doc.read_bytes())
    assert [(e.kind, e.data) for e in drawing.elements] == [(2, b"\xbb"), (1, b"\xaa\xcc")]
    code, out, _ = run(["recover", doc], capsys)
    assert code == 0 and "no autosave found" in out


@pytest.mark.parametrize("flags", [[], ["--discard"], ["--apply"]])
def test_recover_leaves_a_live_session_alone(doc, capsys, flags):
    """A live session's first autosave tick has written its set's temp
    file but not renamed it yet; recover must not collect that file as a
    leftover."""
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    before = doc.read_bytes()
    live_copy = doc.parent / "autosaves" / "d.tcgd.autosave.set.tmp"
    live_copy.write_bytes(before)
    with SessionLock(doc):
        code, _, err = run(["recover", doc, *flags], capsys)
        assert code == 2 and "live session" in err
        assert live_copy.read_bytes() == before
    assert doc.read_bytes() == before
    code, out, _ = run(["recover", doc], capsys)  # the session has ended: now it is a leftover
    assert code == 0 and "no autosave found" in out
    assert not live_copy.exists()


def test_clean_run_offers_no_recovery(doc, capsys):
    code, out, _ = run(
        ["autosave-run", doc, "--script", doc.parent / "edit.txt", "--interval", "1",
         "--step-seconds", "2", "--now", "2026-08-08T00:00:00"],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["recover", doc], capsys)
    assert code == 0 and "no autosave found" in out


def test_recover_discard(doc, capsys):
    with dies_after_step(doc, SCRIPT, 1) as io:
        run(["autosave-run", doc, "--script", doc.parent / "edit.txt", "--interval", "1",
             "--step-seconds", "2"], capsys, io)
    code, out, _ = run(["recover", doc, "--discard"], capsys)
    assert code == 0 and "discarded" in out
    code, out, _ = run(["recover", doc], capsys)
    assert "no autosave found" in out


def test_backup_cli(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    (work / "a.tcgd").write_bytes(b"content-a")
    cfg = tmp_path / "backup.cfg"
    cfg.write_text(f"weekdays = fri\nwatch_root = {work}\nvault_root = {tmp_path / 'vault'}\n")
    code, out, _ = run(["backup", "--config", cfg, "--today", "2026-08-07"], capsys)
    assert code == 0 and "backed up 1 file(s)" in out
    assert (tmp_path / "vault" / "2026-08-07" / "work" / "a.tcgd").read_bytes() == b"content-a"
    code, out, _ = run(["backup", "--config", cfg, "--today", "2026-08-07"], capsys)
    assert code == 0 and "not due" in out
    code, out, _ = run(["backup", "--config", cfg, "--today", "2026-08-08"], capsys)
    assert code == 0 and "not due" in out  # saturday


def test_crash_sim_cli(doc, capsys):
    code, out, _ = run(
        ["crash-sim", doc, "--script", doc.parent / "edit.txt", "--kill-at-byte", "60",
         "--target", "journal"],
        capsys,
    )
    assert code == 0
    assert "violations=0" in out
    assert "steps_recovered=" in out


def test_crash_sim_cli_prints_what_the_target_stream_spent(doc, capsys):
    """A sweep from the shell stops at ``written + 1``: the offset
    ``written`` is the first one that runs without a crash."""

    def first_line(offset):
        code, out, _ = run(["crash-sim", doc.parent / f"k{offset}.tcgd", "--script", doc.parent / "edit.txt",
                            "--kill-at-byte", offset, "--target", "journal", "--interval", "1"], capsys)
        assert code == 0 and "violations=0" in out
        return out.splitlines()[0]

    line = first_line(10**9)
    written = int(line.rpartition(" written=")[2])
    assert line == f"crashed=false target=journal kill_at_byte={10**9} written={written}" and written > 0
    assert first_line(written).startswith("crashed=false")
    assert first_line(written - 1).startswith("crashed=true")


def test_usage_errors_exit_1(doc, capsys):
    assert run(["bogus-command"], capsys)[0] == 1
    assert run(["edit"], capsys)[0] == 1
    assert run(["crash-sim", doc, "--script", "x", "--kill-at-byte", "1", "--target", "nope"], capsys)[0] == 1


def test_missing_doc_exits_2(tmp_path, capsys):
    code, _, err = run(["verify", tmp_path / "absent.tcgd"], capsys)
    assert code == 2


def test_edit_and_sign_reproducible_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRAFTVAULT_PASSWORD", "pw-repro")
    monkeypatch.setattr(os, "urandom", lambda n: b"\xab" * n)  # the signature's salt
    outputs = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        monkeypatch.setenv("DRAFTVAULT_AUTOSAVE_DIR", str(base))
        (base / "s.txt").write_text(SCRIPT)
        code, _, _ = run(["edit", base / "d.tcgd", "--script", base / "s.txt",
                          "--now", "2026-01-01T00:00:00"], capsys)
        assert code == 0
        code, _, _ = run(["sign", base / "d.tcgd", "--signer", "ivanov",
                          "--now", "2026-01-01T01:00:00"], capsys)
        assert code == 0
        outputs.append(
            ((base / "d.tcgd").read_bytes(), (base / "d.tcgd.journal").read_bytes(),
             (base / "d.tcgd.session").read_bytes())
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][0][:4] == b"TCGE"


def test_module_entry_point_subprocess(tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("ADD 1 aa\nSTEP\n")
    proc = subprocess.run(
        [sys.executable, "-m", "draftvault", "edit", str(tmp_path / "d.tcgd"),
         "--script", str(script)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "committed 1 step(s)" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "draftvault", "history", str(tmp_path / "d.tcgd")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "step 1" in proc.stdout


def test_recover_apply_stores_the_blob_after_every_version(doc, capsys):
    """``recover --apply`` appends the restored blob after every stored
    version, not after the one the sidecar remembers: no version is lost."""
    for data in ("aa", "bb", "cc"):
        run(["pp", "commit", doc, "--data", data], capsys)
    jump = "ADD 1 aa\nSTEP\nPPJUMP 1\nADD 1 bb\nSTEP\n"
    (doc.parent / "jump.txt").write_text(jump)
    with dies_after_step(doc, jump, 2) as io:
        run(["autosave-run", doc, "--script", doc.parent / "jump.txt", "--interval", "1"], capsys, io)
    run(["pp", "jump", doc, "--to", "2"], capsys)
    code, out, _ = run(["recover", doc, "--apply"], capsys)
    assert code == 0 and "and pp" in out
    log, _ = recover_pp_log(doc.with_name("d.tcgd.pp"))
    assert log.versions == [b"\xaa", b"\xbb", b"\xcc", b"\xaa"]
    code, out, _ = run(["pp", "undo", doc], capsys)
    assert code == 0 and "at version 3 of 4: cc" in out


_DEFINED_IN = {"read_sidecar": "sidecar", "write_sidecar": "sidecar", "load_editable": "signatures"}


def _count_calls(monkeypatch, name: str, calls: list) -> None:
    """Record each call of the function ``name`` of draftvault, through
    every module binding of it, as the benchmark's tracer does."""
    original = getattr(importlib.import_module(f"draftvault.{_DEFINED_IN[name]}"), name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("draftvault.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("argv", [
    ["undo", "{doc}"], ["redo", "{doc}"], ["pp", "jump", "{doc}", "--to", "1"],
    ["pp", "commit", "{doc}", "--data", "dd"], ["recover", "{doc}", "--apply"],
    ["edit", "{doc}", "--script", "{dir}/edit.txt"],
])
def test_writing_command_locks_once_and_reads_each_file_once(doc, capsys, monkeypatch, argv):
    """Every command that writes takes the document lock once, reads and
    writes the sidecar once each, and opens the document at most once;
    ``edit`` writes the sidecar twice, at its journal's start and at its end."""
    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)
    run(["undo", doc], capsys)  # cursor 2 of 3: both undo and redo move
    for data in ("aa", "bb"):
        run(["pp", "commit", doc, "--data", data], capsys)
    saver = AutosaveSession("d.tcgd", Drawing(), AutosaveConfig(1.0, doc.parent / "autosaves"))
    saver.set_current_pp(b"\xee")
    assert saver.autosave_tick(1.0) is not None  # and never shut down: the set stays behind
    for module in ("session", "script", "signatures", "sidecar", "ppversions", "autosave"):
        importlib.import_module(f"draftvault.{module}")
    calls: list = []
    for name in _DEFINED_IN:
        _count_calls(monkeypatch, name, calls)
    acquire = SessionLock.acquire

    def counting_acquire(lock):
        calls.append(lock.path.name)
        return acquire(lock)

    monkeypatch.setattr(SessionLock, "acquire", counting_acquire)
    code, out, err = run([a.format(doc=doc, dir=doc.parent) for a in argv], capsys)
    assert code == 0, err
    assert "nothing" not in out
    assert calls.count("d.tcgd.lock") == 1
    assert calls.count("read_sidecar") == 1
    assert calls.count("write_sidecar") == (2 if argv[0] == "edit" else 1)
    assert calls.count("load_editable") == (0 if argv[0] == "pp" else 1)


def _elements(doc) -> list:
    return [e.data.hex() for e in Drawing.from_canonical_bytes(doc.read_bytes()).elements]


def _earlier_session(doc, capsys) -> None:
    """A finished session of one step, ``00``: the document is [00] and the
    sidecar remembers cursor 1."""
    (doc.parent / "first.txt").write_text("ADD 1 00\nSTEP\n")
    assert run(["edit", doc, "--script", doc.parent / "first.txt"], capsys)[0] == 0


def test_redo_after_a_crashed_session_replays_its_own_first_step(doc, capsys):
    """The crashed session's journal holds aa, bb; the document is still
    [00].  Its start wrote cursor 0, so redo replays aa, not bb."""
    _earlier_session(doc, capsys)
    (doc.parent / "crash.txt").write_text("ADD 1 aa\nSTEP\nADD 1 bb\nSTEP\nADD 1 cc\nSTEP\n")
    code, out, _ = run(["crash-sim", doc, "--script", doc.parent / "crash.txt", "--kill-at-byte", "80",
                        "--target", "journal"], capsys)
    assert code == 0 and "crashed=true" in out and "steps_recovered=2" in out
    assert _elements(doc) == ["00"]
    code, out, _ = run(["redo", doc], capsys)
    assert code == 0 and "cursor at 1 of 2" in out
    assert _elements(doc) == ["00", "aa"]
    code, out, _ = run(["redo", doc], capsys)
    assert _elements(doc) == ["00", "aa", "bb"]


DIES = "ADD 1 aa\nSTEP\nADD 1 bb\nSTEP\nADD 1 cc\nSTEP\n"


def test_redo_after_an_aborted_session_replays_its_own_first_step(doc, capsys):
    _earlier_session(doc, capsys)
    (doc.parent / "dies.txt").write_text(DIES)
    with dies_after_step(doc, DIES, 2) as io:
        run(["autosave-run", doc, "--script", doc.parent / "dies.txt", "--interval", "1"], capsys, io)
    code, out, _ = run(["redo", doc], capsys)
    assert code == 0 and "cursor at 1 of 2" in out
    assert _elements(doc) == ["00", "aa"]


def test_undo_and_redo_refuse_after_recover_apply(doc, capsys):
    """A restored autosave is a drawing no journal step leads to: undo and
    redo exit 3 instead of replaying over it, and history says why."""
    _earlier_session(doc, capsys)
    (doc.parent / "dies.txt").write_text(DIES)
    with dies_after_step(doc, DIES, 2) as io:
        run(["autosave-run", doc, "--script", doc.parent / "dies.txt", "--interval", "1"], capsys, io)
    code, out, _ = run(["recover", doc, "--apply"], capsys)
    assert code == 0 and "restored" in out
    restored = doc.read_bytes()
    assert _elements(doc) == ["00", "aa", "bb"]
    for command in ("undo", "redo"):
        code, _, err = run([command, doc], capsys)
        assert code == 3 and "cursor is unknown" in err, command
        assert doc.read_bytes() == restored
    code, out, _ = run(["history", doc], capsys)
    assert code == 0 and "cursor unknown" in out


class _RefusingJournal(FileIO):
    """A FileIO that cannot open a journal for writing."""

    def write_file(self, path, data):
        if str(path).endswith(".journal"):
            raise PermissionError(13, "Permission denied", str(path))
        super().write_file(path, data)


def test_a_session_that_cannot_start_its_journal_keeps_the_earlier_cursor(doc, capsys):
    """The sidecar at cursor 0 follows the fresh journal: when the journal
    cannot be started, the earlier session's journal and cursor stay, and
    undo and redo go on from them."""
    _earlier_session(doc, capsys)
    code = main(["edit", str(doc), "--script", str(doc.parent / "edit.txt")], io=_RefusingJournal())
    assert code == 2
    capsys.readouterr()
    code, out, _ = run(["redo", doc], capsys)
    assert code == 0 and "nothing to redo" in out
    code, out, _ = run(["undo", doc], capsys)
    assert code == 0 and "cursor at 0 of 1" in out
    assert _elements(doc) == []


def test_autosave_failures_do_not_end_the_session(doc, capsys, monkeypatch, caplog):
    monkeypatch.setenv("DRAFTVAULT_AUTOSAVE_DIR", str(doc.parent / "missing"))
    code, out, err = run(["autosave-run", doc, "--script", doc.parent / "edit.txt", "--interval", "1",
                          "--step-seconds", "2"], capsys)
    assert code == 0, err
    assert "committed 3 step(s); cursor at 3 of 3" in out
    assert "autosave failed 3 time(s)" in out
    assert caplog.text.count("retrying at the next tick") == 3
    assert _elements(doc) == ["aacc"]
    code, out, _ = run(["undo", doc], capsys)
    assert code == 0 and "cursor at 2 of 3" in out


def test_recover_autosave_dir_wins_over_the_environment(doc, capsys):
    """The autosave directory is the flag's, then DRAFTVAULT_AUTOSAVE_DIR's
    (the fixture sets it), then the document's."""
    flagged = doc.parent / "flagged"
    flagged.mkdir()
    saver = AutosaveSession("d.tcgd", Drawing(), AutosaveConfig(1.0, flagged))
    assert saver.autosave_tick(1.0) is not None  # and never shut down: the set stays behind
    code, out, _ = run(["recover", doc, "--autosave-dir", flagged], capsys)
    assert code == 0 and "autosave set found for d.tcgd" in out
    code, out, _ = run(["recover", doc], capsys)
    assert code == 0 and "no autosave found" in out


def test_sign_reads_the_password_before_it_takes_the_lock(doc, capsys, monkeypatch):
    """A user sitting at the password prompt keeps no other writer out."""
    from draftvault import cli

    run(["edit", doc, "--script", doc.parent / "edit.txt"], capsys)

    def password():
        with SessionLock(doc):  # another writer, while the prompt waits
            pass
        return "pw"

    monkeypatch.setattr(cli, "_password", password)
    code, out, err = run(["sign", doc, "--signer", "ivanov"], capsys)
    assert code == 0, err
    assert "signed by ivanov" in out


@pytest.mark.parametrize("argv", [
    ["edit", "d.tcgd", "--script", "edit.txt", "--now", "yesterday"],
    ["backup", "--config", "backup.cfg", "--today", "2026-13-01"],
    ["pp", "commit", "d.tcgd", "--data", "zz"],
    ["sign", "d.tcgd", "--signer", ""],
    ["autosave-run", "d.tcgd", "--script", "edit.txt", "--interval", "0"],
    ["crash-sim", "d.tcgd", "--script", "edit.txt", "--kill-at-byte", "-1", "--target", "journal"],
], ids=["now", "today", "data", "signer", "interval", "kill-at-byte"])
def test_a_bad_option_value_is_a_usage_error(tmp_path, argv):
    """The parser refuses the value: one ``error:`` line, exit 1, and no
    file of the directory is touched."""
    (tmp_path / "edit.txt").write_text(SCRIPT)
    assert main(["edit", str(tmp_path / "d.tcgd"), "--script", str(tmp_path / "edit.txt")]) == 0
    (tmp_path / "backup.cfg").write_text(f"weekdays = mon\nwatch_root = {tmp_path}\n"
                                         f"vault_root = {tmp_path / 'vault'}\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    src = str(Path(model.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "draftvault", *argv], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src, "DRAFTVAULT_PASSWORD": "pw"})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: argument ") and proc.stderr.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
