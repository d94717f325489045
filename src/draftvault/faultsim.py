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
session provably achieved - its event log - reporting every invariant
violation.  A fault sweep runs this once per byte offset of the write
stream and demands zero violations everywhere.

The event log is one list, shared by the script runner and its autosave
session (see ``script`` and ``autosave``).  Each event is O(1) in session
length: a journal event carries only the step just appended and a blob
event only the version just stored, so the audit rebuilds the states the
session reached from these deltas (:func:`journal_generations`,
:func:`pp_generations`).  An autosave set has one commit point, the
rename that ``FileIO.write_atomic`` ends its one write with, and the
tick records its commit right after it, so the audit admits exactly the
last committed set.  An autosave attempt is recorded only by a tick that
writes.  Outside this harness no list is passed and nothing is recorded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .autosave import AutosaveConfig, probe_recovery, restore
from .errors import BadHeader, Corrupt, DraftVaultError
from .fileio import FileIO
from .journal import ChangeStep, recover_journal
from .model import Drawing
from .paths import STREAMS as TARGETS, for_doc
from .ppversions import PPVersionLog, recover_pp_log
from .script import Command, ScriptRunner, parse_script
from .signatures import load_document


class CrashSimulated(BaseException):
    """The simulated power cut; must never be caught by engine code."""


@dataclass(frozen=True)
class FaultPlan:
    kill_at_byte: int
    target: str  # one of TARGETS

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        if self.kill_at_byte < 0:
            raise ValueError("kill_at_byte must be non-negative")


class FaultyIO(FileIO):
    """FileIO that dies at an exact offset of one file stream.

    Streams are classified by name: ``*.journal``, ``*.autosave.*``,
    ``*.pp``, and the document file itself ("envelope").  fsync is a
    no-op here; the simulated disk is simply what was written.
    """

    def __init__(self, plan: FaultPlan, doc: Path):
        super().__init__(fsync_enabled=False)
        self.plan = plan
        self.doc = Path(doc)
        self.budget_left = plan.kill_at_byte
        self.total_written = 0

    def classify(self, path: Path) -> str:
        name = Path(path).name
        if ".autosave." in name:
            return "autosave"
        stripped = name[:-4] if name.endswith(".tmp") else name
        if stripped.endswith(".journal"):
            return "journal"
        if stripped.endswith(".pp"):
            return "pp-log"
        if stripped == self.doc.name:
            return "envelope"
        return "other"

    def _spend_bytes(self, stream: str, data: bytes) -> bytes:
        """Portion of ``data`` that survives; raises after a partial write."""
        if stream != self.plan.target:
            self.total_written += len(data)
            return data
        if self.budget_left >= len(data):
            self.budget_left -= len(data)
            self.total_written += len(data)
            return data
        survived = data[: self.budget_left]
        self.total_written += self.budget_left
        self.budget_left = 0
        return survived

    def _spend_tick(self, stream: str) -> bool:
        """One budget unit for a metadata operation; False means crash now,
        before the operation happens."""
        if stream != self.plan.target:
            return True
        if self.budget_left >= 1:
            self.budget_left -= 1
            self.total_written += 1
            return True
        return False

    # -- interposed operations ------------------------------------------

    def write_file(self, path: Path, data: bytes) -> None:
        stream = self.classify(path)
        survived = self._spend_bytes(stream, data)
        super().write_file(path, survived)
        if len(survived) != len(data):
            raise CrashSimulated(f"write of {path} torn at {len(survived)}/{len(data)}")

    def append(self, path: Path, data: bytes) -> None:
        stream = self.classify(path)
        survived = self._spend_bytes(stream, data)
        super().append(path, survived)
        if len(survived) != len(data):
            raise CrashSimulated(f"append to {path} torn at {len(survived)}/{len(data)}")

    def truncate(self, path: Path, size: int) -> None:
        stream = self.classify(path)
        if not self._spend_tick(stream):
            raise CrashSimulated(f"died before truncate of {path}")
        super().truncate(path, size)

    def replace(self, src: Path, dst: Path) -> None:
        stream = self.classify(dst)
        if not self._spend_tick(stream):
            raise CrashSimulated(f"died before rename onto {dst}")
        super().replace(src, dst)

    def unlink(self, path: Path) -> None:
        stream = self.classify(path)
        if not self._spend_tick(stream):
            raise CrashSimulated(f"died before unlink of {path}")
        super().unlink(path)


@dataclass
class CrashReport:
    crashed: bool
    target: str
    kill_at_byte: int
    total_written: int
    steps_recovered: int = 0
    journal_truncated: bool = False
    pp_versions_recovered: int = 0
    autosave_outcome: str = "none"
    violations: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [
            f"crashed={str(self.crashed).lower()} target={self.target} kill_at_byte={self.kill_at_byte}",
            f"steps_recovered={self.steps_recovered} journal_truncated={str(self.journal_truncated).lower()}",
            f"pp_versions_recovered={self.pp_versions_recovered}",
            f"autosave={self.autosave_outcome}",
            f"violations={len(self.violations)}",
            *(f"violation: {v}" for v in self.violations),
        ]


def _is_prefix(candidate: tuple, generations: list[tuple]) -> bool:
    return any(candidate == gen[: len(candidate)] for gen in generations)


def _step_key(step: ChangeStep) -> tuple:
    return (step.step_no, tuple((flag, p.kind, p.data) for flag, p in step.changes))


def journal_generations(events: list) -> list[tuple]:
    """Every journal state the session reached, oldest first, each a tuple
    of step keys.  A step numbered n is appended after the first n - 1
    steps, so a commit after an undo cuts off the redo tail."""
    gens = [()]
    for ev in events:
        if ev[0] == "journal_gen":
            step = ev[1]
            gens.append(gens[-1][: step.step_no - 1] + (_step_key(step),))
    return gens


def pp_generations(events: list, base: tuple = ()) -> list[tuple]:
    """Every blob log state the session reached from ``base``, oldest
    first, each a tuple of blobs; the same cut as the journal's."""
    gens = [base]
    for ev in events:
        if ev[0] == "pp_gen":
            _, version, blob = ev
            gens.append(gens[-1][: version - 1] + (blob,))
    return gens


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
    script_text: str | list[Command],
    plan: FaultPlan,
    autosave: AutosaveConfig | None = None,
    start_time: float = 0.0,
    step_seconds: float = 1.0,
) -> CrashReport:
    """Run a script under fault injection, then recover and audit.

    The report's ``violations`` list must stay empty for every kill
    offset; the test suite sweeps offsets and fails on any entry.
    """
    commands = parse_script(script_text) if isinstance(script_text, str) else script_text
    paths = for_doc(doc)
    clean_io = FileIO()
    base_doc_bytes = clean_io.read_bytes(paths.doc) if paths.doc.exists() else None
    base_pp = _blobs_before(paths.pp_log, clean_io)

    events: list = []
    fio = FaultyIO(plan, paths.doc)
    runner = ScriptRunner(
        doc, io=fio, autosave=autosave, start_time=start_time, step_seconds=step_seconds,
        events=events,
    )
    crashed = False
    try:
        runner.run(commands)
    except CrashSimulated:
        crashed = True

    report = CrashReport(
        crashed=crashed, target=plan.target, kill_at_byte=plan.kill_at_byte,
        total_written=fio.total_written,
    )

    # Journal: recovered steps must be a prefix of a state the session
    # actually reached, and must replay cleanly over the base drawing.
    journal_gens = journal_generations(events)
    try:
        journal, truncated = recover_journal(paths.journal)
        report.steps_recovered = journal.step_count
        report.journal_truncated = truncated
        recovered_key = tuple(_step_key(s) for s in journal.steps)
        if not _is_prefix(recovered_key, journal_gens):
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
    pp_gens = pp_generations(events, base_pp)
    if paths.pp_log.exists():
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

    # Autosave: what probe finds must be the last set the dead session
    # committed, or nothing if it committed none (or shutdown had begun).
    if autosave is not None:
        report.autosave_outcome = _audit_autosave(paths.name, autosave, events, report)

    # Document file: atomic replacement means old or new, parseable, never torn.
    if paths.doc.exists():
        try:
            env = load_document(paths.doc)
            from .autosave import _sha

            doc_sha = _sha(env.document)
            admissible = {ev[1] for ev in events if ev[0] == "doc_saved"}
            if base_doc_bytes is not None:
                admissible.add(_sha(base_doc_bytes))
            if doc_sha not in admissible:
                report.violations.append("document bytes are neither the old nor the saved state")
        except DraftVaultError as exc:
            report.violations.append(f"document file is unreadable: {exc}")
    elif base_doc_bytes is not None:
        report.violations.append("pre-existing document file vanished")

    return report


def _audit_autosave(
    doc_name: str, config: AutosaveConfig, events: list, report: CrashReport
) -> str:
    """Check the set a probe finds against the ticks the dead session
    committed.  No I/O runs between a tick's rename and its
    ``tick_committed`` event, so the one admissible set is the last
    committed one (None when no tick committed); once shutdown has started,
    None as well, and only None once it has finished.  The outcome says on
    which side of the newest tick's commit point the kill came: "old" when
    that tick was still in flight, so the previous set was found, "new"
    when its rename was done and its own set was found, "none" when
    nothing was found."""
    committed: tuple | None = None
    in_flight = shutdown_started = shutdown_finished = False
    for ev in events:
        if ev[0] == "tick_attempt":
            in_flight = True
        elif ev[0] == "tick_committed":
            committed, in_flight = (ev[1], ev[2]), False
        elif ev[0] == "shutdown_started":
            shutdown_started = True
        elif ev[0] == "clean_shutdown":
            shutdown_finished = True
    if shutdown_finished:
        admissible = {None}
    elif shutdown_started:
        admissible = {None, committed}
    else:
        admissible = {committed}

    aset = probe_recovery(config.autosave_dir, doc_name)
    found = (aset.drawing_sha, aset.pp_sha) if aset is not None else None
    if found not in admissible:
        report.violations.append(
            f"autosave probe found {found!r}, admissible: {sorted(map(repr, admissible))}"
        )
        return "violation"
    if aset is None:
        return "none"
    try:
        restore(aset)
    except Corrupt as exc:
        report.violations.append(f"found autosave set does not restore: {exc}")
        return "violation"
    return "old" if in_flight else "new"
