"""Session-state sidecar (``<doc>.session``).

The journal file format carries no cursor and no positions: both are
session memory.  The CLI spreads one editing session over several
process invocations (edit, then undo, then redo ...), so it parks that
memory here between commands.  ``session.Session`` is the one writer in
the program: at a fresh journal's start (cursor 0, before the first
step), after the document when a session saves, and before the document,
with the cursor unknown, when a restored autosave replaces it.  A missing
or damaged sidecar reads as an empty state, with no journal cursor, and
the session refuses to resume its journal from that: undo and redo fail
rather than guess.  A crash between a save's two writes still leaves a
cursor that no longer matches the document (see the ROADMAP item
"Session memory bound to the document").
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import Corrupt
from .fileio import FileIO, decode_checked_text, encode_checked_text

BANNER = "draftvault-session v1"


@dataclass
class SidecarState:
    journal_cursor: int | None = None
    pp_cursor: int | None = None
    positions: dict[int, list[int]] = field(default_factory=dict)


def write_sidecar(path: Path, state: SidecarState, io: FileIO | None = None) -> None:
    io = io or FileIO()
    lines = []
    if state.journal_cursor is not None:
        lines.append(f"journal_cursor={state.journal_cursor}")
    if state.pp_cursor is not None:
        lines.append(f"pp_cursor={state.pp_cursor}")
    for step_no in sorted(state.positions):
        joined = ",".join(str(p) for p in state.positions[step_no])
        lines.append(f"step={step_no}:{joined}")
    io.write_atomic(path, encode_checked_text(BANNER, lines))


def read_sidecar(path: Path, io: FileIO | None = None) -> SidecarState:
    io = io or FileIO()
    state = SidecarState()
    try:
        for key, value in decode_checked_text(io.read_bytes(path), BANNER):
            if key == "journal_cursor":
                state.journal_cursor = int(value)
            elif key == "pp_cursor":
                state.pp_cursor = int(value)
            elif key == "step":
                step_no, _, rest = value.partition(":")
                state.positions[int(step_no)] = [int(p) for p in rest.split(",") if p]
    except (OSError, Corrupt, ValueError):
        return SidecarState()
    return state
