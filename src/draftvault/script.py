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

The runner drives a whole session on a ``session.Session``: it takes the
document lock itself (a caller that holds it gets Locked), starts a
fresh journal, executes commands, ticks autosave on a synthetic clock
that advances ``step_seconds`` per executed operation, then saves the
document and the sidecar and cleans up.  It has no way to stop early:
a session that dies mid-run is made by a crash, through
``faultsim.FaultyIO`` (``crash-sim`` on the command line), which leaves
the journal, the sidecar and the autosave set the way a power cut would.
A tick that fails is logged
and counted, and the next tick retries: the journal already holds every
step, so a failed autosave does not end the session.  The blob log opens
at the version the sidecar remembers; a script that never touches it
leaves that version remembered.

The runner reports nothing to the crash audit: ``faultsim`` works out
the states a run reaches from the script itself and checks them against
the file operations that completed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .autosave import AutosaveConfig, AutosaveSession
from .errors import IoFailure, NothingToRedo, NothingToUndo, ScriptError
from .fileio import FileIO
from .journal import FLAG_ADDED, FLAG_DELETED, Change, make_modify
from .model import ElementPayload
from .session import Session

logger = logging.getLogger(__name__)


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
    autosave_failures: int = 0


class ScriptRunner:
    """Execute an edit script as one document session."""

    def __init__(
        self,
        doc: Path,
        io: FileIO | None = None,
        autosave: AutosaveConfig | None = None,
        start_time: float = 0.0,
        step_seconds: float = 1.0,
    ):
        self.doc = Path(doc)
        self.io = io or FileIO()
        self.autosave_config = autosave
        self.clock = start_time
        self.step_seconds = step_seconds

    def run(self, commands: list[Command]) -> RunResult:
        result = RunResult()
        with Session(self.doc, self.io) as session:
            drawing = session.load()
            journal = session.open_journal(drawing)
            saver: AutosaveSession | None = None
            if self.autosave_config is not None:
                saver = AutosaveSession(self.doc.name, drawing, self.autosave_config, self.io,
                                        started_at=self.clock)

            pending: list[Change] = []

            def tick() -> None:
                self.clock += self.step_seconds
                if saver is not None:
                    try:
                        saver.autosave_tick(self.clock)
                    except IoFailure as exc:
                        result.autosave_failures += 1
                        logger.warning("%s; retrying at the next tick", exc)

            def flush() -> None:
                if not pending:
                    return
                journal.commit_step(drawing, list(pending))
                pending.clear()
                result.steps_committed += 1
                tick()

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
                    session.open_pp_log().commit_pp(blob)
                    if saver is not None:
                        saver.set_current_pp(blob)
                    tick()
                elif command.op == "PPJUMP":
                    blob = session.open_pp_log().jump_pp(command.args[0])
                    if saver is not None:
                        saver.set_current_pp(blob)
                    tick()
            flush()

            result.cursor = journal.cursor
            result.step_count = journal.step_count
            if session.pp_log is not None:
                result.pp_cursor = session.pp_log.cursor
                result.pp_count = session.pp_log.version_count
            session.save(drawing.canonical_bytes())
            if saver is not None:
                saver.clean_shutdown()
        return result
