"""Session-scoped, step-grouped undo/redo over an append-only work file.

Every user-visible change is one *step*: an ordered run of atomic
add/delete records applied to the drawing as a unit, like a transaction.
An attribute modification is modelled as delete-old + add-new.  The work
file holds the records of the current session only; a fresh session
truncates it.

Work file layout: the ``framelog`` container (magic "TCGJ", u16 version,
CRC-32 per frame) with one frame per record, little-endian:

    u32 step_no | u8 flag | u16 kind | u32 payload_len | payload | u32 crc

Flags: 0x00 element deleted, 0x01 element added, 0x02 step commit (kind
and payload_len forced to zero).  Step numbers run 1, 2, 3 ... without
gaps, and each step is one or more element records followed by its
commit record.  A step is durable once its commit record is on disk;
crash recovery keeps the longest prefix of committed steps and drops
everything after it.

Undo replays a step's records in strictly reverse order, inverting each:
an added element is removed again, a deleted element is reinserted at the
position it was removed from.  Record order within a step matters whenever
the same payload appears twice (delete x then add x), which is why the
reverse discipline is unconditional.  Positions are session memory: they
are captured while applying forward and are not part of the file format.
The cursor (count of applied steps) is session memory as well.  A step
reloaded from disk without the positions its session recorded cannot be
undone: undo refuses it with NotFound rather than guess where its deleted
elements stood.  Redoing a step records its positions afresh.

Commit, undo and redo change the drawing in place, one record at a time,
through ``Drawing``'s primitives; no copy of the element list is made.  A
step is still all or nothing, by inversion: when a delete finds no equal
element, an undo meets a position that does not match, or the append to
the file fails, the records already applied are inverted, last first, and
the drawing holds the very objects it held before the step.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import framelog
from .errors import Locked, NotFound, NothingToRedo, NothingToUndo
from .fileio import FileIO
from .framelog import CRC_LEN, HEADER_LEN, FramedLog
from .model import Drawing, ElementPayload

MAGIC = b"TCGJ"
VERSION = 1
HEADER = framelog.header(MAGIC, VERSION)

FLAG_DELETED = 0x00
FLAG_ADDED = 0x01
FLAG_COMMIT = 0x02

_REC_HEAD = struct.Struct("<IBHI")
# The tail of a record head, u16 kind | u32 payload_len, followed by the
# payload is the element's record in the drawing layout.
_ELEMENT_HEAD_LEN = 6
RECORD_OVERHEAD = _REC_HEAD.size + CRC_LEN

Change = tuple[int, ElementPayload]


@dataclass
class ChangeStep:
    """One committed step: its records plus (when known) the list index each
    record touched, parallel to ``changes``.  Positions exist only in session
    memory; a step parsed back from disk has ``positions = None``.

    ``figures`` is ``(records, added, payload_bytes)``: how many element
    records the step has, how many of them are adds, and their payload
    bytes."""

    step_no: int
    changes: list[Change]
    positions: list[int] | None = field(default=None, repr=False)

    @cached_property
    def figures(self) -> tuple[int, int, int]:
        return (
            len(self.changes),
            sum(1 for flag, _ in self.changes if flag == FLAG_ADDED),
            sum(len(p.data) for _, p in self.changes),
        )


class IndexedStep(ChangeStep):
    """A step indexed from a file: its figures come from its frame heads,
    and ``changes`` is decoded from its frame range ``data[start:end]`` on
    first use, by the frame scanner (CRCs checked again).  A subclass, so
    that the steps a session commits keep ``changes`` a plain attribute."""

    def __init__(self, step_no: int, data: bytes, start: int, end: int, figures: tuple[int, int, int]):
        self.step_no = step_no
        self.positions = None
        self.figures = figures
        self._frames = (data, start, end)

    @cached_property
    def changes(self) -> list[Change]:
        data, start, end = self._frames
        frames = framelog.scan_frames(data, HEADER, _REC_HEAD, end, start)
        new = tuple.__new__
        return [
            (flag, new(ElementPayload, (data[s - _ELEMENT_HEAD_LEN : e - CRC_LEN],)))
            for (_, flag, _, _), s, e in frames
            if flag != FLAG_COMMIT
        ]


def make_modify(old: ElementPayload, new: ElementPayload) -> list[Change]:
    """A modification is delete-the-old then add-the-new, in that order."""
    return [(FLAG_DELETED, old), (FLAG_ADDED, new)]


def encode_record(step_no: int, flag: int, kind: int, payload: bytes) -> bytes:
    return framelog.encode_frame(_REC_HEAD, payload, step_no, flag, kind)


def encode_step(step_no: int, changes: list[Change]) -> bytes:
    parts = [encode_record(step_no, flag, p.kind, p.data) for flag, p in changes]
    parts.append(encode_record(step_no, FLAG_COMMIT, 0, b""))
    return b"".join(parts)


# An undo log lists the inverse of each primitive applied to a drawing, in
# the order applied: ``(i, None)`` removes the element at ``i`` again, and
# ``(i, element)`` puts that same object back at ``i``.
UndoLog = list[tuple[int, ElementPayload | None]]


def _roll_back(drawing: Drawing, log: UndoLog) -> None:
    """Play an undo log backwards: the drawing holds the very objects it
    held before the logged primitives ran."""
    for i, element in reversed(log):
        if element is None:
            drawing.remove_at(i)
        else:
            drawing.insert_at(i, element)


def _apply_forward(drawing: Drawing, changes: list[Change], build_mirror: bool) -> UndoLog:
    """Apply changes to the drawing in place, first record first, and
    return their undo log, whose indices are the touched positions.  A
    delete removes the most recently inserted equal element
    (``Drawing.last_index``).  On NotFound, or any other exception, the
    records already applied are rolled back and the drawing is unchanged."""
    log = []
    try:
        for flag, payload in changes:
            if flag == FLAG_ADDED:
                log.append((drawing.append(payload), None))
            else:
                try:
                    i = drawing.last_index(payload, build_mirror)
                except ValueError:
                    raise NotFound(f"delete of kind={payload.kind} found no matching element") from None
                log.append((i, drawing.remove_at(i)))
    except BaseException:
        _roll_back(drawing, log)
        raise
    return log


def _apply_reverse(drawing: Drawing, changes: list[Change], positions: list[int] | None) -> None:
    """Invert a step on the drawing in place, strictly last record first, at
    the positions recorded when it was applied: the pre-step list exactly.
    NotFound leaves the drawing unchanged; it is raised when the step has
    no recorded positions or they do not match the list."""
    if positions is None:
        raise NotFound("undo refused: the step's recorded positions are unknown")
    log = []
    try:
        for (flag, payload), pos in zip(reversed(changes), reversed(positions)):
            if flag == FLAG_ADDED:
                if pos >= len(drawing) or drawing.elements[pos] != payload:
                    raise NotFound("undo diverged: recorded position does not match")
                log.append((pos, drawing.remove_at(pos)))
            else:
                if pos > len(drawing):
                    raise NotFound("undo diverged: recorded position out of range")
                drawing.insert_at(pos, payload)
                log.append((pos, None))
    except BaseException:
        _roll_back(drawing, log)
        raise


class Journal(FramedLog):
    """The undo/redo machine for one editing session.

    steps[0:cursor] are applied to the drawing; steps[cursor:] is the redo
    tail.  All mutating calls assume the single-session ownership enforced
    by the lock file at ``<path>.lock``.
    """

    HEADER = HEADER

    @classmethod
    def _parse(cls, data: bytes) -> tuple[list[ChangeStep], list[int], int]:
        return index_journal(data)

    # -- session lifecycle ------------------------------------------------

    @classmethod
    def begin_session(cls, drawing: Drawing, path: Path, io: FileIO | None = None) -> "Journal":
        """Start a fresh session: truncate any previous work file and take
        the session lock.  Raises Locked if a live session owns the file."""
        return cls._create(Path(path), io or FileIO())

    @classmethod
    def resume(
        cls,
        path: Path,
        io: FileIO | None = None,
        cursor: int | None = None,
        positions: dict[int, list[int]] | None = None,
    ) -> "Journal":
        """Reopen an existing work file as a continuation of its session.

        Parses the valid prefix (repairing a torn tail), re-applies session
        memory (cursor, clamped to 0..step_count, and per-step positions)
        captured by the previous process, and takes the session lock.  A
        step whose positions are missing, miscounted or negative gets none,
        and undo refuses it."""
        journal = cls._open(Path(path), io or FileIO(), cursor)
        if positions:
            for step in journal.steps:
                pos = positions.get(step.step_no)
                if pos is not None and len(pos) == step.figures[0] and min(pos) >= 0:
                    step.positions = pos
        return journal

    def session_positions(self) -> dict[int, list[int]]:
        """Per-step positions by step number, as ``resume`` takes them back."""
        return {s.step_no: s.positions for s in self.steps if s.positions is not None}

    def _require_session(self) -> None:
        if self._lock is None or not self._lock.held:
            raise Locked("journal is not owned by a live session")

    # -- queries -----------------------------------------------------------

    @property
    def steps(self) -> list[ChangeStep]:
        return self._entries

    @property
    def step_count(self) -> int:
        return len(self._entries)

    # -- mutations -----------------------------------------------------------

    def commit_step(self, drawing: Drawing, changes: list[Change]) -> int:
        """Apply one step to the drawing and journal it durably.

        Each change is ``(FLAG_ADDED or FLAG_DELETED, ElementPayload)``;
        anything else raises ValueError or TypeError before the drawing,
        the file or the cursor is touched.  A plain tuple is refused because
        it could compare equal to an element.

        Any redo tail beyond the cursor is truncated from the file first
        (history is linear).  The step is applied to the drawing in place
        first, then appended to the file.  On NotFound the drawing, the file
        and the cursor are all unchanged.  On an append failure the file is
        repaired back to the last commit record, the applied records are
        rolled back, and IoFailure is raised."""
        self._require_session()
        if not changes:
            raise ValueError("a change step must contain at least one change")
        for flag, payload in changes:
            if flag not in (FLAG_ADDED, FLAG_DELETED):
                raise ValueError(f"invalid change flag {flag!r}")
            if not isinstance(payload, ElementPayload):
                raise TypeError(f"a change carries an ElementPayload, not {type(payload).__name__}")
        log = _apply_forward(drawing, changes, build_mirror=True)
        step_no = self.cursor + 1
        try:
            self._append(encode_step(step_no, changes), ChangeStep(step_no, list(changes), [i for i, _ in log]))
        except BaseException:
            _roll_back(drawing, log)
            raise
        drawing.revision += 1
        return step_no

    def undo_step(self, drawing: Drawing) -> None:
        """Take back the latest applied step; the file is not touched."""
        if self.cursor < 1:
            raise NothingToUndo("cursor is at the session start")
        step = self.steps[self.cursor - 1]
        _apply_reverse(drawing, step.changes, step.positions)
        self.cursor -= 1
        drawing.revision += 1

    def redo_step(self, drawing: Drawing) -> None:
        """Re-apply the first step of the redo tail."""
        if self.cursor >= len(self.steps):
            raise NothingToRedo("no steps beyond the cursor")
        step = self.steps[self.cursor]
        log = _apply_forward(drawing, step.changes, build_mirror=False)
        step.positions = [i for i, _ in log]
        self.cursor += 1
        drawing.revision += 1


def _scan_steps(data: bytes, end: int | None) -> tuple[list[tuple[int, int, tuple[int, int, int]]], int]:
    """The recovery brain: the complete steps of the longest valid prefix
    of ``data[:end]``, each as its ``(start, end, figures)`` read from its
    frame heads (see ChangeStep), and the offset where that prefix ends.

    On top of the frame CRCs, a step must carry the next step number,
    consist of element records and end in a commit record with zero kind
    and length.  Raises BadHeader when the magic or version is wrong
    (including a header torn mid-write)."""
    steps = []
    count = pending = added = payload = 0
    valid_end = HEADER_LEN
    for (step_no, flag, kind, length), _, frame_end in framelog.scan_frames(data, HEADER, _REC_HEAD, end):
        if step_no != count + 1 or flag > FLAG_COMMIT:
            break
        if flag == FLAG_COMMIT:
            if kind or length or not pending:
                break
            steps.append((valid_end, frame_end, (pending, added, payload)))
            count += 1
            pending = added = payload = 0
            valid_end = frame_end
        else:
            pending += 1
            added += flag
            payload += length
    return steps, valid_end


def validate_journal(data: bytes, end: int | None = None) -> tuple[int, int]:
    """The number of complete steps in the longest valid prefix of
    ``data[:end]`` and the offset where that prefix ends (see _scan_steps)."""
    steps, valid_end = _scan_steps(data, end)
    return len(steps), valid_end


def index_journal(data: bytes) -> tuple[list[ChangeStep], list[int], int]:
    """The complete steps of the longest valid prefix of ``data``, their
    records not yet decoded, the offset just past each step, and the
    offset where the prefix ends."""
    steps, valid_end = _scan_steps(data, None)
    indexed = [
        IndexedStep(step_no, data, start, stop, figures) for step_no, (start, stop, figures) in enumerate(steps, 1)
    ]
    return indexed, [stop for _, stop, _ in steps], valid_end


def recover_journal(path: Path, io: FileIO | None = None) -> tuple[Journal, bool]:
    """Parse the longest prefix of complete steps and physically truncate
    the file to it.

    Returns the recovered journal (cursor at 0: nothing is applied to any
    in-memory drawing yet; redo from a copy of the session-start drawing
    replays the recovered work) and whether trailing bytes were dropped.
    Must not run while a session owns the file.
    """
    return Journal._load(Path(path), io or FileIO(), repair=True)


def inspect_journal(path: Path, io: FileIO | None = None) -> tuple[Journal, bool]:
    """Read-only variant of recover_journal: a torn tail is skipped but the
    file is left untouched."""
    return Journal._load(Path(path), io or FileIO(), repair=False)
