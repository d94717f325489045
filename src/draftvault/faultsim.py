"""Deterministic crash-fault injection.

A simulated crash is a write-interposition layer, not a real process
kill: every persisted byte flows through :class:`FaultyIO`, which counts
the bytes written to one targeted file stream and aborts the run at an
exact offset - finishing a partial write first, so torn files look the
way a power cut leaves them.  Metadata operations (rename, truncate,
unlink) count one budget unit each, which makes the gaps *between*
writes sweepable offsets too.

The abort is a BaseException on purpose: none of the engine's error
handling may intercept it, exactly as no repair code runs when the power
goes out.  Every lock holder releases its lock whatever the exit, so
the 'crash' leaves no zombie lock to release.  After it the harness runs
the normal recovery paths and checks the outcome against what the dead
session provably achieved, reporting every invariant violation.  A fault
sweep runs this once per byte offset of the write stream and demands
zero violations everywhere.

The audit watches from outside the engine, which records nothing for
it.  ``FaultyIO`` records every file operation that completed, in order,
and :func:`reached_states` interprets the script on its own, with linear
history, to list every journal and blob-log state the session would pass
through.  The states the dead session reached are those of its completed
appends: one per append to the journal or the blob log.  The document,
and the autosave set a probe finds, must hold exactly the bytes that the
completed operations left at their paths (see ``FaultyIO.left_at``):
the bytes from before the run, or those the last rename moved in, or
nothing after an unlink.  A write torn at the final name shows as a
difference.  A run that ended without a crash shut down cleanly, so no
autosave set may be left after it.
"""
from __future__ import annotations

from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

from .autosave import AutosaveConfig, _set_path, probe_recovery, restore
from .errors import BadHeader, Corrupt, DraftVaultError
from .fileio import FileIO
from .journal import FLAG_ADDED, FLAG_DELETED, recover_journal
from .model import Drawing
from .paths import AUTOSAVE_SET_SUFFIX, STREAMS as TARGETS, for_doc
from .ppversions import PPVersionLog, recover_pp_log
from .script import Command, ScriptRunner, parse_script
from .sidecar import read_sidecar
from .signatures import load_document


class CrashSimulated(BaseException):
    """The simulated power cut; must never be caught by engine code."""


class FaultPlan(namedtuple("FaultPlan", "kill_at_byte target")):
    """Where the power cut falls: ``kill_at_byte`` of the stream ``target``,
    one of TARGETS."""

    __slots__ = ()

    def __new__(cls, kill_at_byte: int, target: str):
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        if kill_at_byte < 0:
            raise ValueError("kill_at_byte must be non-negative")
        return super().__new__(cls, kill_at_byte, target)


class FaultyIO(FileIO):
    """FileIO that dies at an exact offset of one file stream.

    Streams are classified by name: ``*.journal``, ``*.autosave.set``,
    ``*.pp``, and the document file itself ("envelope").  ``_sync`` is a
    no-op here, so no fsync is issued: the simulated disk is simply what
    was written.

    ``total_written`` is the budget the target stream spent: its bytes
    plus one per metadata operation.  ``ops`` lists every operation that
    completed, in order, as ``(op, path, data)``: the bytes written,
    appended or moved into place by a rename, the new size of a truncate,
    None for an unlink.
    """

    def __init__(self, plan: FaultPlan, doc: Path):
        self.plan = plan
        self.doc = Path(doc)
        self.budget_left = plan.kill_at_byte
        self.total_written = 0
        self.ops: list[tuple[str, Path, bytes | int | None]] = []

    def classify(self, path: Path) -> str:
        name = Path(path).name
        stripped = name[:-4] if name.endswith(".tmp") else name
        if stripped.endswith(AUTOSAVE_SET_SUFFIX):
            return "autosave"
        if stripped.endswith(".journal"):
            return "journal"
        if stripped.endswith(".pp"):
            return "pp-log"
        if stripped == self.doc.name:
            return "envelope"
        return "other"

    def _spend_bytes(self, path: Path, data: bytes) -> bytes:
        """Portion of ``data`` that survives; raises after a partial write."""
        if self.classify(path) != self.plan.target:
            return data
        survived = data[: self.budget_left]
        self.budget_left -= len(survived)
        self.total_written += len(survived)
        return survived

    def _spend_tick(self, path: Path) -> bool:
        """One budget unit for a metadata operation; False means crash now,
        before the operation happens."""
        if self.classify(path) != self.plan.target:
            return True
        if self.budget_left < 1:
            return False
        self.budget_left -= 1
        self.total_written += 1
        return True

    # -- interposed operations ------------------------------------------

    def _sync(self, fh) -> None:
        pass

    def write_file(self, path: Path, data: bytes) -> None:
        survived = self._spend_bytes(path, data)
        super().write_file(path, survived)
        if len(survived) != len(data):
            raise CrashSimulated(f"write of {path} torn at {len(survived)}/{len(data)}")
        self.ops.append(("write", Path(path), data))

    def append(self, path: Path, data: bytes) -> None:
        survived = self._spend_bytes(path, data)
        super().append(path, survived)
        if len(survived) != len(data):
            raise CrashSimulated(f"append to {path} torn at {len(survived)}/{len(data)}")
        self.ops.append(("append", Path(path), data))

    def truncate(self, path: Path, size: int) -> None:
        if not self._spend_tick(path):
            raise CrashSimulated(f"died before truncate of {path}")
        super().truncate(path, size)
        self.ops.append(("truncate", Path(path), size))

    def replace(self, src: Path, dst: Path) -> None:
        if not self._spend_tick(dst):
            raise CrashSimulated(f"died before rename onto {dst}")
        moved = self.read_bytes(src)
        super().replace(src, dst)
        self.ops.append(("replace", Path(dst), moved))

    def unlink(self, path: Path) -> None:
        if not self._spend_tick(path):
            raise CrashSimulated(f"died before unlink of {path}")
        super().unlink(path)
        self.ops.append(("unlink", Path(path), None))

    def left_at(self, path: Path, before: bytes | None) -> bytes | None:
        """The bytes the completed operations left at ``path``, which held
        ``before`` when the run began (None: no file); for a path that is
        never renamed away, as no final name is."""
        path = Path(path)
        data = before
        for op, target, arg in self.ops:
            if target != path:
                continue
            if op == "append":
                data = (data or b"") + arg
            elif op == "truncate":
                data = data[:arg]
            else:  # a write, the bytes a rename moved in, or None for an unlink
                data = arg
        return data


class CrashReport(SimpleNamespace):
    def __init__(self, crashed: bool, target: str, kill_at_byte: int, total_written: int):
        super().__init__(crashed=crashed, target=target, kill_at_byte=kill_at_byte, total_written=total_written,
                         steps_recovered=0, journal_truncated=False, pp_versions_recovered=0,
                         autosave_outcome="none", violations=[])

    def lines(self) -> list[str]:
        return [
            f"crashed={str(self.crashed).lower()} target={self.target} kill_at_byte={self.kill_at_byte}"
            f" written={self.total_written}",
            f"steps_recovered={self.steps_recovered} journal_truncated={str(self.journal_truncated).lower()}",
            f"pp_versions_recovered={self.pp_versions_recovered}",
            f"autosave={self.autosave_outcome}",
            f"violations={len(self.violations)}",
            *(f"violation: {v}" for v in self.violations),
        ]


def _is_prefix(candidate: tuple, generations: list[tuple]) -> bool:
    return any(candidate == gen[: len(candidate)] for gen in generations)


def reached_states(
    commands: list[Command], blobs_before: tuple = (), pp_cursor: int | None = None
) -> tuple[list[tuple], list[tuple]]:
    """Every journal state and every blob-log state a run of ``commands``
    passes through, oldest first, worked out from the script alone.

    A journal state is a tuple of steps, each the tuple of its changes; a
    blob-log state is a tuple of blobs, starting from ``blobs_before`` at
    version ``pp_cursor`` (None: the newest).  Each append adds one state:
    pending changes commit at STEP, UNDO, REDO and the end of the script,
    and PPCOMMIT stores a blob.  History is linear: an append first drops
    whatever lies past the cursor."""
    steps, cursor, pending = (), 0, []
    journal = [steps]
    blobs = tuple(blobs_before)
    pp = len(blobs) if pp_cursor is None else max(0, min(pp_cursor, len(blobs)))
    pp_states = [blobs]
    for command in [*commands, Command("STEP")]:
        op, args = command.op, command.args
        if op == "ADD":
            pending.append((FLAG_ADDED, args[0]))
        elif op == "DEL":
            pending.append((FLAG_DELETED, args[0]))
        elif op == "MOD":
            pending += [(FLAG_DELETED, args[0]), (FLAG_ADDED, args[1])]
        elif op == "PPCOMMIT":
            blobs = blobs[:pp] + (args[0],)
            pp = len(blobs)
            pp_states.append(blobs)
        elif op == "PPJUMP":
            pp = args[0]
        else:  # STEP, UNDO, REDO: commit what is pending, then move
            if pending:
                steps = steps[:cursor] + (tuple(pending),)
                cursor = len(steps)
                journal.append(steps)
                pending = []
            if op == "UNDO":
                cursor = max(0, cursor - 1)
            elif op == "REDO":
                cursor = min(len(steps), cursor + 1)
    return journal, pp_states


def _blobs_before(path: Path, io: FileIO) -> tuple:
    """The blobs a log held before the run (read, not repaired): the state
    the reached blob states grow from."""
    if not io.exists(path):
        return ()
    try:
        log, _ = PPVersionLog._load(path, io, repair=False)
    except BadHeader:
        return ()
    return tuple(log.versions)


def crash_sim(
    doc: Path,
    script_text: str,
    plan: FaultPlan,
    autosave: AutosaveConfig | None = None,
    start_time: float = 0.0,
) -> CrashReport:
    """Run a script under fault injection, then recover and audit.

    The report's ``violations`` list must stay empty for every kill
    offset; the test suite sweeps offsets and fails on any entry.
    """
    commands = parse_script(script_text)
    paths = for_doc(doc)
    clean_io = FileIO()
    base_doc_bytes = _bytes_or_none(paths.doc)
    set_path = autosave and _set_path(autosave.autosave_dir, paths.name)
    base_set = _bytes_or_none(set_path)
    journal_states, pp_states = reached_states(
        commands, _blobs_before(paths.pp_log, clean_io), read_sidecar(paths.sidecar, clean_io).pp_cursor
    )

    fio = FaultyIO(plan, paths.doc)
    runner = ScriptRunner(doc, io=fio, autosave=autosave, start_time=start_time)
    crashed = False
    try:
        runner.run(commands)
    except CrashSimulated:
        crashed = True

    report = CrashReport(
        crashed=crashed, target=plan.target, kill_at_byte=plan.kill_at_byte,
        total_written=fio.total_written,
    )
    # The states the dead session reached: one per append that completed.
    appended = [str(path) for op, path, _ in fio.ops if op == "append"]

    # Journal: recovered steps must be a prefix of a state the session
    # actually reached, and must replay cleanly over the base drawing.
    journal_gens = journal_states[: 1 + appended.count(paths.journal)]
    try:
        journal, truncated = recover_journal(paths.journal)
        report.steps_recovered = journal.step_count
        report.journal_truncated = truncated
        if not _is_prefix(tuple(tuple(s.changes) for s in journal.steps), journal_gens):
            report.violations.append("recovered journal is not a prefix of any reached state")
        journal2, truncated2 = recover_journal(paths.journal)
        if truncated2 or journal2.step_count != journal.step_count:
            report.violations.append("journal recovery is not idempotent")
        if base_doc_bytes is not None:
            base = Drawing.from_canonical_bytes(base_doc_bytes)
        else:
            base = Drawing()
        try:
            for _ in range(journal.step_count):
                journal.redo_step(base)
        except DraftVaultError as exc:
            report.violations.append(f"recovered steps do not replay: {exc}")
    except FileNotFoundError:
        if journal_gens != [()]:
            report.violations.append("journal file vanished after steps were committed")
    except BadHeader as exc:
        # A torn header is a legal crash state only while the session had
        # not yet committed anything; appends never touch the header.
        if journal_gens != [()]:
            report.violations.append(f"journal header damaged after commits: {exc}")
    except DraftVaultError as exc:
        report.violations.append(f"journal recovery failed: {exc}")

    # Parametric log: same prefix rule.
    pp_gens = pp_states[: 1 + appended.count(paths.pp_log)]
    if Path(paths.pp_log).exists():
        try:
            pp_log, _ = recover_pp_log(paths.pp_log)
            report.pp_versions_recovered = pp_log.version_count
            if not _is_prefix(tuple(pp_log.versions), pp_gens):
                report.violations.append("recovered blob versions are not a prefix of any reached state")
        except BadHeader as exc:
            if pp_gens != [()]:
                report.violations.append(f"blob log header damaged after commits: {exc}")
        except DraftVaultError as exc:
            report.violations.append(f"blob log recovery failed: {exc}")

    if autosave is not None:
        # a run that did not crash shut down cleanly, which leaves no set
        expected = fio.left_at(set_path, base_set) if crashed else None
        report.autosave_outcome = _audit_autosave(autosave.autosave_dir, paths.name, expected, report)

    # Document file: atomic replacement means old or new, parseable, never
    # torn: exactly what the completed operations left under its name.
    expected = fio.left_at(paths.doc, base_doc_bytes)
    if Path(paths.doc).exists():
        try:
            load_document(paths.doc)
            if clean_io.read_bytes(paths.doc) != expected:
                report.violations.append("document bytes are not what the completed operations left")
        except DraftVaultError as exc:
            report.violations.append(f"document file is unreadable: {exc}")
    elif expected is not None:
        report.violations.append("document file vanished")

    return report


def _bytes_or_none(path: str | None) -> bytes | None:
    return Path(path).read_bytes() if path is not None and Path(path).exists() else None


def _audit_autosave(autosave_dir: Path, doc_name: str, expected: bytes | None, report: CrashReport) -> str:
    """Check the set a probe finds against the ``expected`` bytes: what
    the completed operations left at its path, which for a tick is what
    its rename moved in.  The outcome says on which side of the newest
    tick's commit point the kill came: "old" when a tick was still in
    flight (its temp file is on disk), so the previous set was found, "new"
    when no tick was in flight and the newest set was found, "none" when
    nothing was found."""
    path = _set_path(autosave_dir, doc_name)
    in_flight = Path(path + ".tmp").exists()
    aset = probe_recovery(autosave_dir, doc_name)
    found = _bytes_or_none(aset and aset.path)
    if found != expected:
        if expected is None:
            report.violations.append("autosave probe found a set where none may be left")
        else:
            report.violations.append(f"autosave probe found {'no' if found is None else 'another'} set, "
                                     "not the one the completed operations left")
        return "violation"
    if aset is None:
        return "none"
    try:
        restore(aset)
    except Corrupt as exc:
        report.violations.append(f"found autosave set does not restore: {exc}")
        return "violation"
    return "old" if in_flight else "new"
