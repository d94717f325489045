"""Edit scripts and the session runner.

A script is the headless stand-in for interactive editing: one command
per line, ``#`` comments allowed.

    STEP                                  commit accumulated changes as one step
    ADD <kind> <hex>                      stage an element addition
    DEL <kind> <hex>                      stage an element deletion
    MOD <kind> <hex> -> <kind> <hex>      stage delete-old + add-new
    UNDO / REDO                           move the step cursor
    PPCOMMIT <hex>                        store a new parametric blob version
    PPJUMP <n>                            jump the blob history to version n

Changes accumulate between STEP markers and commit as a single change
step; a trailing group without a closing STEP commits at end of script.

The runner drives a whole session: take the document lock, open the
journal, execute commands, tick autosave on a synthetic clock that
advances ``step_seconds`` per executed operation, then save the document,
park the session memory in the sidecar and clean up.  The blob log opens
at the version the sidecar remembers, and a script that never touches it
leaves that version remembered.

A crash audit passes an ``events`` list, which it shares with its
write-interposition layer and the autosave session (see ``faultsim``).
The runner appends one event per thing the process reached, each O(1)
in session length and drawing size:

    ("journal_gen", step)             the ChangeStep the journal appended
    ("pp_gen", version, blob)         the blob just stored as ``version``
    ("doc_saved", sha)                digest of the drawing saved at the end
    ("shutdown_started",) / ("clean_shutdown",)

Production passes no list, and nothing is recorded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .autosave import AutosaveConfig, AutosaveSession, _sha
from .errors import NothingToRedo, NothingToUndo, ScriptError
from .fileio import FileIO
from .framelog import clamp_cursor
from .journal import FLAG_ADDED, FLAG_DELETED, Change, Journal, make_modify
from .model import ElementPayload
from .paths import DocPaths, for_doc
from .ppversions import PPVersionLog
from .sidecar import SidecarState, read_sidecar, write_sidecar
from .signatures import SignedEnvelope, load_editable, save_document


@dataclass(frozen=True)
class Command:
    op: str
    args: tuple = ()


def _payload(kind_text: str, hex_text: str, lineno: int) -> ElementPayload:
    try:
        return ElementPayload(int(kind_text), bytes.fromhex(hex_text))
    except ValueError as exc:
        raise ScriptError(f"line {lineno}: {exc}") from exc


def parse_script(text: str) -> list[Command]:
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].upper()
        if op == "STEP" and len(parts) == 1:
            commands.append(Command("STEP"))
        elif op == "ADD" and len(parts) == 3:
            commands.append(Command("ADD", (_payload(parts[1], parts[2], lineno),)))
        elif op == "DEL" and len(parts) == 3:
            commands.append(Command("DEL", (_payload(parts[1], parts[2], lineno),)))
        elif op == "MOD" and len(parts) == 6 and parts[3] == "->":
            old = _payload(parts[1], parts[2], lineno)
            new = _payload(parts[4], parts[5], lineno)
            commands.append(Command("MOD", (old, new)))
        elif op in ("UNDO", "REDO") and len(parts) == 1:
            commands.append(Command(op))
        elif op == "PPCOMMIT" and len(parts) == 2:
            try:
                commands.append(Command("PPCOMMIT", (bytes.fromhex(parts[1]),)))
            except ValueError as exc:
                raise ScriptError(f"line {lineno}: {exc}") from exc
        elif op == "PPJUMP" and len(parts) == 2:
            try:
                commands.append(Command("PPJUMP", (int(parts[1]),)))
            except ValueError as exc:
                raise ScriptError(f"line {lineno}: bad version number") from exc
        else:
            raise ScriptError(f"line {lineno}: cannot parse {raw!r}")
    return commands


@dataclass
class RunResult:
    steps_committed: int = 0
    cursor: int = 0
    step_count: int = 0
    pp_cursor: int | None = None
    pp_count: int = 0
    notices: list[str] = field(default_factory=list)
    aborted: bool = False


class _AbortRun(Exception):
    pass


def _ignore(event: tuple) -> None:
    """Where a run records events when no list was given."""


class ScriptRunner:
    """Execute an edit script as one document session."""

    def __init__(
        self,
        doc: Path,
        io: FileIO | None = None,
        autosave: AutosaveConfig | None = None,
        start_time: float = 0.0,
        step_seconds: float = 1.0,
        events: list | None = None,
    ):
        self.paths: DocPaths = for_doc(doc)
        self.io = io or FileIO()
        self.autosave_config = autosave
        self.clock = start_time
        self.step_seconds = step_seconds
        self.events = events

    def run(
        self,
        commands: list[Command],
        abort_after_step: int | None = None,
    ) -> RunResult:
        io = self.io
        paths = self.paths
        events = self.events
        record = events.append if events is not None else _ignore
        drawing = load_editable(paths.doc, io)
        remembered = read_sidecar(paths.sidecar, io)
        result = RunResult()
        journal = Journal.begin_session(drawing, paths.journal, io)
        pp_log: PPVersionLog | None = None
        saver: AutosaveSession | None = None
        if self.autosave_config is not None:
            saver = AutosaveSession(
                paths.name, drawing, self.autosave_config, io, started_at=self.clock,
                events=events,
            )

        pending: list[Change] = []

        def tick() -> None:
            self.clock += self.step_seconds
            if saver is not None:
                saver.autosave_tick(self.clock)

        def flush() -> None:
            if not pending:
                return
            journal.commit_step(drawing, list(pending))
            pending.clear()
            result.steps_committed += 1
            record(("journal_gen", journal.steps[-1]))
            tick()
            if abort_after_step is not None and result.steps_committed >= abort_after_step:
                raise _AbortRun()

        def open_pp() -> PPVersionLog:
            nonlocal pp_log
            if pp_log is None:
                pp_log = PPVersionLog.open(paths.pp_log, io=io)
                pp_log.cursor = clamp_cursor(remembered.pp_cursor, pp_log.version_count)
            return pp_log

        try:
            try:
                for command in commands:
                    if command.op == "ADD":
                        pending.append((FLAG_ADDED, command.args[0]))
                    elif command.op == "DEL":
                        pending.append((FLAG_DELETED, command.args[0]))
                    elif command.op == "MOD":
                        pending.extend(make_modify(*command.args))
                    elif command.op == "STEP":
                        flush()
                    elif command.op == "UNDO":
                        flush()
                        try:
                            journal.undo_step(drawing)
                        except NothingToUndo:
                            result.notices.append("nothing to undo")
                        tick()
                    elif command.op == "REDO":
                        flush()
                        try:
                            journal.redo_step(drawing)
                        except NothingToRedo:
                            result.notices.append("nothing to redo")
                        tick()
                    elif command.op == "PPCOMMIT":
                        blob = command.args[0]
                        version = open_pp().commit_pp(blob)
                        record(("pp_gen", version, blob))
                        if saver is not None:
                            saver.set_current_pp(blob)
                        tick()
                    elif command.op == "PPJUMP":
                        blob = open_pp().jump_pp(command.args[0])
                        if saver is not None:
                            saver.set_current_pp(blob.data)
                        tick()
                flush()
            except _AbortRun:
                result.aborted = True

            result.cursor = journal.cursor
            result.step_count = journal.step_count
            if pp_log is not None:
                result.pp_cursor = pp_log.cursor
                result.pp_count = pp_log.version_count

            if result.aborted:
                # Simulated abnormal end: leave journal, sidecar and autosave
                # set as they are; only the locks are released because the
                # process itself lives on.
                journal.close()
                if pp_log is not None:
                    pp_log.close()
                return result

            document = drawing.canonical_bytes()
            save_document(paths.doc, SignedEnvelope(document=document), io)
            drawing.mark_saved()
            if events is not None:  # the digest is only for an audit
                events.append(("doc_saved", _sha(document)))
            state = SidecarState(
                journal_cursor=journal.cursor,
                pp_cursor=pp_log.cursor if pp_log is not None else remembered.pp_cursor,
                positions=journal.session_positions(),
            )
            write_sidecar(paths.sidecar, state, io)
            if saver is not None:
                record(("shutdown_started",))
                saver.clean_shutdown()
                record(("clean_shutdown",))
            journal.close()
            if pp_log is not None:
                pp_log.close()
            return result
        except Exception:
            # Orderly failure: this process survives, so it must not leave
            # stale locks behind.  (A simulated crash is BaseException-based
            # and bypasses this on purpose.)
            journal.close()
            if pp_log is not None:
                pp_log.close()
            raise
