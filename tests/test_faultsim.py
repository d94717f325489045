"""Crash harness unit tests plus compact fault sweeps per target stream.

The flagship full-size sweeps live in test_acceptance; these cover the
machinery and run the same sweeps on small reference scripts.
"""
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from draftvault import faultsim, journal
from draftvault.autosave import AutosaveConfig, AutosaveSession, probe_recovery
from draftvault.faultsim import CrashSimulated, FaultPlan, FaultyIO, crash_sim, reached_states
from draftvault.journal import FLAG_ADDED, FLAG_COMMIT, HEADER, Journal, encode_step
from draftvault.model import Drawing, ElementPayload
from draftvault.ppversions import PPVersionLog
from draftvault.script import ScriptRunner, parse_script
from draftvault.sidecar import SidecarState, write_sidecar

REFERENCE_SCRIPT = """
ADD 1 aabb
ADD 2 cc
STEP
MOD 1 aabb -> 1 aabbcc
STEP
DEL 2 cc
STEP
UNDO
ADD 3 0102030405
STEP
"""

PP_SCRIPT = """
PPCOMMIT aa01
ADD 1 aa
STEP
PPCOMMIT bb02
PPJUMP 1
PPCOMMIT cc03
STEP
"""


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(-1, "journal")
    with pytest.raises(ValueError):
        FaultPlan(0, "nonsense")


def test_faultyio_classifies_streams(tmp_path):
    fio = FaultyIO(FaultPlan(10**9, "journal"), tmp_path / "d.tcgd")
    classify = fio.classify
    assert classify(tmp_path / "d.tcgd.journal") == "journal"
    assert classify(tmp_path / "d.tcgd.journal.tmp") == "journal"
    assert classify(tmp_path / "d.tcgd.pp") == "pp-log"
    assert classify(tmp_path / "d.tcgd.autosave.set") == "autosave"
    assert classify(tmp_path / "d.tcgd.autosave.set.tmp") == "autosave"
    assert classify(tmp_path / "d.tcgd") == "envelope"
    assert classify(tmp_path / "d.tcgd.tmp") == "envelope"
    assert classify(tmp_path / "d.tcgd.session") == "other"


def test_faultyio_partial_write_then_crash(tmp_path):
    fio = FaultyIO(FaultPlan(5, "journal"), tmp_path / "d.tcgd")
    target = tmp_path / "d.tcgd.journal"
    with pytest.raises(CrashSimulated):
        fio.write_file(target, b"0123456789")
    assert target.read_bytes() == b"01234"  # torn exactly at the budget


def test_faultyio_metadata_op_costs_one_tick(tmp_path):
    fio = FaultyIO(FaultPlan(4, "journal"), tmp_path / "d.tcgd")
    target = tmp_path / "d.tcgd.journal"
    fio.write_file(target, b"abcd")  # budget spent to exactly 0
    with pytest.raises(CrashSimulated):
        fio.truncate(target, 2)
    assert target.read_bytes() == b"abcd"  # op never happened


def test_faultyio_untargeted_stream_passes_through(tmp_path):
    fio = FaultyIO(FaultPlan(0, "envelope"), tmp_path / "d.tcgd")
    fio.write_file(tmp_path / "d.tcgd.journal", b"freely written")
    assert (tmp_path / "d.tcgd.journal").read_bytes() == b"freely written"
    assert fio.total_written == 0  # only the target stream spends the budget
    with pytest.raises(CrashSimulated):
        fio.write_file(tmp_path / "d.tcgd", b"!")


def test_faultyio_records_the_operations_that_completed(tmp_path):
    fio = FaultyIO(FaultPlan(3, "journal"), tmp_path / "d.tcgd")
    journal_path, doc = tmp_path / "d.tcgd.journal", tmp_path / "d.tcgd"
    fio.write_atomic(doc, b"doc")
    fio.append(journal_path, b"ab")
    fio.truncate(journal_path, 1)
    with pytest.raises(CrashSimulated):
        fio.append(journal_path, b"cd")  # torn: not recorded
    assert fio.ops == [
        ("write", tmp_path / "d.tcgd.tmp", b"doc"),
        ("replace", doc, b"doc"),  # a rename records the bytes it moved into place
        ("append", journal_path, b"ab"),
        ("truncate", journal_path, 1),
    ]


def test_no_fault_beyond_total_writes(tmp_path):
    doc = tmp_path / "d.tcgd"
    report = crash_sim(doc, REFERENCE_SCRIPT, FaultPlan(10**9, "journal"))
    assert not report.crashed
    assert report.violations == []
    # four commits ran, but the UNDO+commit dropped the old step 3: linear history
    assert report.steps_recovered == 3
    assert doc.exists()


def test_report_lines_are_printable(tmp_path):
    report = crash_sim(tmp_path / "d.tcgd", REFERENCE_SCRIPT, FaultPlan(40, "journal"))
    text = "\n".join(report.lines())
    assert "steps_recovered=" in text and "violations=0" in text


def _sweep(tmp_path, script, target, autosave=None):
    (tmp_path / "probe").mkdir()
    probe = crash_sim(
        tmp_path / "probe" / "d.tcgd", script, FaultPlan(10**9, target),
        autosave=autosave and AutosaveConfig(autosave.interval, tmp_path / "probe"),
    )
    assert probe.violations == []
    total = probe.total_written
    assert total > 0
    failures = []
    reports = []
    for offset in range(total + 2):
        workdir = tmp_path / f"k{offset}"
        workdir.mkdir()
        cfg = autosave and AutosaveConfig(autosave.interval, workdir)
        report = crash_sim(workdir / "d.tcgd", script, FaultPlan(offset, target), autosave=cfg)
        reports.append(report)
        if report.violations:
            failures.append((offset, report.violations))
    assert failures == [], f"violations at {len(failures)} offsets: {failures[:5]}"
    # the budget counts the target stream alone, so every offset below it crashes
    assert [r.crashed for r in reports] == [True] * total + [False, False]
    return total, reports


def test_only_the_last_two_offsets_of_a_sweep_run_without_a_crash(tmp_path):
    """An offset past what the target stream spends buys no crash state:
    only ``total`` and ``total + 1`` run to the end."""
    total, reports = _sweep(tmp_path, "ADD 1 aa\nSTEP\nPPCOMMIT beef\nADD 2 bb\nSTEP\n", "envelope")
    assert [offset for offset, r in enumerate(reports) if not r.crashed] == [total, total + 1]


def test_sweep_journal_stream(tmp_path):
    total, reports = _sweep(tmp_path, REFERENCE_SCRIPT, "journal")
    assert total > 100
    # a kill inside step k's records must recover exactly k-1 steps: the
    # sweep has to pass through every prefix length on its way up
    recovered = [r.steps_recovered for r in reports]
    assert set(recovered) == {0, 1, 2, 3}
    assert recovered[-1] == 3  # kill beyond all writes: everything survives


def test_sweep_pp_log_stream(tmp_path):
    total, reports = _sweep(tmp_path, PP_SCRIPT, "pp-log")
    assert total > 20
    # the jump+commit truncates v2 and the file tops out at two versions
    assert {r.pp_versions_recovered for r in reports} == {0, 1, 2}
    assert reports[-1].pp_versions_recovered == 2


def test_sweep_envelope_stream(tmp_path):
    _sweep(tmp_path, "ADD 1 aabbcc\nSTEP\n", "envelope")


def test_sweep_autosave_stream(tmp_path):
    autosave = AutosaveConfig(interval=1.0, autosave_dir=tmp_path)
    script = "ADD 1 aa\nSTEP\nPPCOMMIT beef\nADD 2 bb\nSTEP\nUNDO\nADD 3 cc\nSTEP\n"
    total, reports = _sweep(tmp_path, script, "autosave", autosave=autosave)
    assert total > 200
    outcomes = {r.autosave_outcome for r in reports}
    # the sweep must cross tick commit points in both directions: kills that
    # leave the previous set while a tick is in flight ("old"), kills past the
    # newest tick's rename that leave its set ("new"), and pre-first-save
    # offsets ("none")
    assert {"none", "old", "new"} <= outcomes
    assert "violation" not in outcomes
    # and on both sides of every tick's rename: each set a tick commits is
    # found by the kills after its rename, up to the next tick's
    clean = tmp_path / "clean"
    clean.mkdir()
    fio = FaultyIO(FaultPlan(10**9, "autosave"), clean / "d.tcgd")
    ScriptRunner(clean / "d.tcgd", io=fio, autosave=AutosaveConfig(1.0, clean)).run(parse_script(script))
    committed = {data for op, path, data in fio.ops if op == "replace" and path.name == "d.tcgd.autosave.set"}
    assert len(committed) >= 4
    found = set()
    for offset in range(len(reports)):
        aset = probe_recovery(tmp_path / f"k{offset}", "d.tcgd")
        found.add(aset and Path(aset.path).read_bytes())
    assert found == committed | {None}


def test_a_set_an_earlier_session_left_is_found_until_the_first_tick(tmp_path):
    """A crashed earlier session's autosave set is what a probe finds until
    this session's first tick replaces it; a clean end removes it."""

    def crash(offset):
        workdir = tmp_path / f"k{offset}"
        workdir.mkdir()
        earlier = AutosaveSession("d.tcgd", Drawing(elements=[ElementPayload(7, b"\x07")]),
                                  AutosaveConfig(1.0, workdir))
        assert earlier.autosave_tick(1.0) is not None  # and never shut down
        return crash_sim(workdir / "d.tcgd", "ADD 1 aa\nSTEP\nADD 2 bb\nSTEP\n", FaultPlan(offset, "journal"),
                         autosave=AutosaveConfig(1.0, workdir))

    total = crash(10**9).total_written
    reports = [crash(offset) for offset in range(total + 2)]
    assert [r.violations for r in reports if r.violations] == []
    assert [r.autosave_outcome for r in reports] == ["new"] * total + ["none", "none"]


def test_crash_mid_journal_recovers_prefix(tmp_path):
    doc = tmp_path / "d.tcgd"
    report = crash_sim(doc, REFERENCE_SCRIPT, FaultPlan(80, "journal"))
    assert report.crashed
    assert report.violations == []
    assert 0 <= report.steps_recovered <= 4


# -- reached states worked out from the script -------------------------------


@st.composite
def session_scripts(draw) -> str:
    """A script that runs without error: a simulation of the session's
    states makes every DEL name an element present and every PPJUMP a
    stored version."""
    states, cursor, work, dirty = [[]], 0, [], False
    pp_cursor = pp_count = 0
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(["ADD", "DEL", "STEP", "UNDO", "REDO", "PPCOMMIT", "PPJUMP"]))
        if op == "ADD":
            element = (draw(st.integers(1, 2)), draw(st.sampled_from(["aa", "bb", "cc"])))
            work.append(element)
            dirty = True
            lines.append("ADD %d %s" % element)
        elif op == "DEL" and work:
            element = draw(st.sampled_from(work))
            work.remove(element)
            dirty = True
            lines.append("DEL %d %s" % element)
        elif op in ("STEP", "UNDO", "REDO"):
            if dirty:  # the runner commits pending changes before each of these
                del states[cursor + 1 :]
                states.append(list(work))
                cursor += 1
                dirty = False
            if op == "UNDO":
                cursor = max(0, cursor - 1)
            elif op == "REDO":
                cursor = min(len(states) - 1, cursor + 1)
            work = list(states[cursor])
            lines.append(op)
        elif op == "PPCOMMIT":
            lines.append("PPCOMMIT " + draw(st.binary(min_size=1, max_size=3)).hex())
            pp_cursor = pp_count = pp_cursor + 1  # a commit drops the versions past the cursor
        elif op == "PPJUMP" and pp_count:
            pp_cursor = draw(st.integers(1, pp_count))
            lines.append("PPJUMP %d" % pp_cursor)
    return "\n".join(lines) + "\n"


@given(script=session_scripts())
@settings(max_examples=60, deadline=None)
def test_rebuilt_generations_equal_full_snapshots(script):
    """The states the script interpreter lists are the full snapshots the
    engine's logs hold after each of their commits."""
    journal_snaps, pp_snaps = [()], [()]
    commit_step, commit_pp = Journal.commit_step, PPVersionLog.commit_pp

    def snapshot_commit_step(self, drawing, changes):
        step_no = commit_step(self, drawing, changes)
        journal_snaps.append(tuple(tuple(s.changes) for s in self.steps))
        return step_no

    def snapshot_commit_pp(self, blob):
        version = commit_pp(self, blob)
        pp_snaps.append(tuple(self.versions))
        return version

    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(Journal, "commit_step", snapshot_commit_step), \
            patch.object(PPVersionLog, "commit_pp", snapshot_commit_pp):
        ScriptRunner(Path(tmp) / "d.tcgd").run(parse_script(script))
    assert reached_states(parse_script(script)) == (journal_snaps, pp_snaps)


DROPPED_STEP_SCRIPT = "ADD 1 aa\nSTEP\nADD 1 bb\nSTEP\nADD 1 cc\nSTEP\nUNDO\nUNDO\nADD 1 dd\nSTEP\n"


@pytest.mark.parametrize("contents, violations", [
    # step 3 "cc" was dropped when "dd" was committed as step 2
    (("aa", "dd", "cc"), ["recovered journal is not a prefix of any reached state"]),
    # the same three steps before the undo: a state the session reached
    (("aa", "bb", "cc"), []),
], ids=["dropped-step", "reached-state"])
def test_audit_rejects_a_step_dropped_by_undo_and_commit(tmp_path, contents, violations):
    forged = HEADER + b"".join(
        encode_step(n, [(FLAG_ADDED, ElementPayload(1, bytes.fromhex(data)))])
        for n, data in enumerate(contents, 1)
    )
    recover_journal = faultsim.recover_journal

    def recover_forged(path, io=None):
        Path(path).write_bytes(forged)
        return recover_journal(path, io)

    with patch.object(faultsim, "recover_journal", recover_forged):
        report = crash_sim(tmp_path / "d.tcgd", DROPPED_STEP_SCRIPT, FaultPlan(10**9, "journal"))
    assert report.steps_recovered == 3
    assert report.violations == violations


def test_sweep_pp_log_that_existed_before_the_session(tmp_path):
    """The reached blob states grow from the versions the log already held,
    and the session commits at the version the sidecar remembers."""

    def crash(workdir, offset):
        workdir.mkdir()
        log = PPVersionLog.create(workdir / "d.tcgd.pp")
        for blob in (b"\xaa", b"\xbb", b"\xcc"):
            log.commit_pp(blob)
        log.close()
        write_sidecar(workdir / "d.tcgd.session", SidecarState(pp_cursor=1))
        return crash_sim(workdir / "d.tcgd", "PPCOMMIT dd\nADD 1 aa\nSTEP\n", FaultPlan(offset, "pp-log"))

    probe = crash(tmp_path / "probe", 10**9)
    assert probe.violations == [] and probe.pp_versions_recovered == 2  # aa, dd
    reports = [crash(tmp_path / f"k{offset}", offset) for offset in range(probe.total_written + 2)]
    assert [r.violations for r in reports if r.violations] == []
    assert {r.pp_versions_recovered for r in reports} == {1, 2, 3}


# -- the audit catches injected faults ----------------------------------------

MUTATION_SCRIPT = "ADD 1 aa\nADD 2 bb\nSTEP\nPPCOMMIT beef\nMOD 1 aa -> 1 cc\nSTEP\n"


def _drop_last_record():
    """The runner commits each multi-record step without its last record."""
    commit_step = Journal.commit_step
    return patch.object(Journal, "commit_step",
                        lambda self, drawing, changes: commit_step(self, drawing, changes[:-1] or changes))


def _wrong_kind():
    """The journal encodes every element record with the next kind."""
    encode_record = journal.encode_record
    return patch.object(journal, "encode_record", lambda step_no, flag, kind, payload: encode_record(
        step_no, flag, kind if flag == FLAG_COMMIT else kind + 1, payload))


def _in_place(stream):
    """Whole-file replacements of ``stream`` written over the file itself."""
    write_atomic = FaultyIO.write_atomic

    def patched(self, path, data):
        if self.classify(path) == stream:
            self.write_file(path, data)
        else:
            write_atomic(self, path, data)

    return patch.object(FaultyIO, "write_atomic", patched)


@pytest.mark.parametrize("fault, target", [
    (_drop_last_record, "journal"),
    (_wrong_kind, "journal"),
    (lambda: _in_place("autosave"), "autosave"),
    (lambda: _in_place("envelope"), "envelope"),
    (lambda: patch.object(AutosaveSession, "clean_shutdown", lambda self: None), "autosave"),
], ids=["step-differs", "wrong-kind", "set-in-place", "document-in-place", "shutdown-leaves-set"])
def test_audit_catches_an_injected_fault(tmp_path, fault, target):
    def run(offset):
        workdir = tmp_path / f"k{offset}"
        workdir.mkdir()
        return crash_sim(workdir / "d.tcgd", MUTATION_SCRIPT, FaultPlan(offset, target),
                         autosave=AutosaveConfig(1.0, workdir))

    with fault():
        total = run(10**9).total_written
        violating = [offset for offset in range(total + 2) if run(offset).violations]
    assert violating, "the audit saw nothing wrong"
