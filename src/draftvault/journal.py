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
``Journal.positions`` stacks them, one entry per applied step, oldest
first, each ``count x u32 position | u32 count | u32 step_no``, so that
the newest entry is read from the end.  Commit and redo push an entry,
undo reads the top one and pops it once the step is undone.  An entry
whose step number is not the cursor, or whose count does not fit the
stack or the step, cannot be undone: undo refuses it with NotFound rather
than guess where its deleted elements stood.  The cursor (count of
applied steps) is session memory as well.

The step index is session memory too: ``Journal.index`` is the offset
just past each step, as u32 values.  A resume given the index of the file
it opens (the CLI keeps it in the sidecar) reads and scans only the bytes
past its last end; the steps it covers are read and checked in full, by
the same scanner, when undo or redo first reaches them.  History, recovery and inspection
always scan the whole file.  This module alone packs and parses the
positions stack and the step index; the sidecar stores their bytes.

Commit, undo and redo change the drawing in place, one record at a time,
through ``Drawing``'s primitives; no copy of the element list is made.  A
step is still all or nothing, by inversion: when a delete finds no equal
element, an undo meets a position that does not match, or the append to
the file fails, the records already applied are inverted, last first, and
the drawing holds the very objects it held before the step.
"""
from __future__ import annotations

import operator
import os
import struct
from functools import cached_property
from itertools import islice

from . import framelog
from .errors import Corrupt, Locked, NotFound, NothingToRedo, NothingToUndo
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
# The tail of a positions entry: u32 count | u32 step_no.
_ENTRY_TAIL = struct.Struct("<II")
_U32_MAX = 0xFFFFFFFF

Change = tuple[int, ElementPayload]


class ChangeStep:
    """One committed step: its number and its records."""

    def __init__(self, step_no: int, changes: list[Change]):
        self.step_no = step_no
        self.changes = changes


class IndexedStep(ChangeStep):
    """A step indexed from a file.  ``figures`` is ``(records, added,
    payload_bytes)``, read from its frame heads: how many element records
    the step has, how many of them are adds, and their payload bytes.
    ``changes`` is decoded from its frame range ``data[start:end]`` on
    first use, by the frame scanner (CRCs checked again).  A subclass, so
    that the steps a session commits keep ``changes`` a plain attribute."""

    def __init__(self, step_no: int, data: bytes, start: int, end: int, figures: tuple[int, int, int]):
        self.step_no = step_no
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


def _positions_entry(positions: list[int], step_no: int) -> bytes:
    return struct.pack(f"<{len(positions) + 2}I", *positions, len(positions), step_no)


def pack_positions(positions: dict[int, list[int]]) -> bytes:
    """The positions stack (see ``Journal.positions``) of a map from step
    number to the positions of that step: one entry per step, by ascending
    step number."""
    return b"".join(_positions_entry(p, n) for n, p in sorted(positions.items()))


def encode_step(step_no: int, changes: list[Change]) -> bytes:
    parts = [encode_record(step_no, flag, p.kind, p.data) for flag, p in changes]
    parts.append(encode_record(step_no, FLAG_COMMIT, 0, b""))
    return b"".join(parts)


_UNKNOWN_POSITIONS = "undo refused: the step's recorded positions are unknown"

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


def _apply_reverse(drawing: Drawing, changes: list[Change], positions: tuple[int, ...]) -> None:
    """Invert a step on the drawing in place, strictly last record first, at
    the positions recorded when it was applied: the pre-step list exactly.
    NotFound leaves the drawing unchanged; it is raised when the number of
    positions is not the number of records, or when they do not match the
    drawing."""
    if len(positions) != len(changes):
        raise NotFound(_UNKNOWN_POSITIONS)
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

    def __init__(self, path: str, io: FileIO, lock):
        super().__init__(path, io, lock)
        self.positions = bytearray()  # the positions stack; see the module docstring

    @classmethod
    def _read(cls, path: str, io: FileIO, index: bytes = b"") -> tuple[bytes, tuple[list, list[int], int]]:
        """With an ``index`` that fits the file, a buffer of the file's size
        that holds only its header and its bytes from the commit frame
        before the index's last end on: only the bytes past that end are
        scanned, and the steps the index covers are entries still unread
        (None), each read into the buffer by _step when first reached.  An
        index fits when its ends are whole u32 values that strictly
        increase from the header on, and the 15 bytes before its last end
        are exactly the commit frame of step N, N the number of its ends.
        Without an index, or with one that does not fit, the whole file is
        read and scanned."""
        ends = _increasing_ends(index)
        commit = encode_record(len(ends), FLAG_COMMIT, 0, b"")
        start = ends[-1] - len(commit) if ends else 0
        tail = io.read_range(path, start) if start >= HEADER_LEN else b""
        if not tail.startswith(commit):
            data = io.read_bytes(path)
            return data, index_journal(data)
        import mmap

        data = mmap.mmap(-1, start + len(tail))  # anonymous: pages not read into cost nothing, read as zeros
        data[:HEADER_LEN] = io.read_range(path, 0, HEADER_LEN)
        data[start:] = tail
        steps, tail_ends, valid_end = index_journal(data, start=ends[-1], first=len(ends) + 1)
        return data, ([None] * len(ends) + steps, [*ends, *tail_ends], valid_end)

    def _step(self, i: int) -> ChangeStep:
        """Step ``i + 1``.  One the step index covers is read from the file
        on first use and checked in full by the scanner: every frame's CRC,
        its step number, element records then exactly one commit, and
        frames that tile its range exactly.  Corrupt when it fails."""
        step = self._entries[i]
        if step is None:
            start, end = self._prefix_end(i), self._ends[i]
            chunk = self._io.read_range(self.path, start, end)
            self._data[start : start + len(chunk)] = chunk
            steps, _, valid_end = index_journal(self._data, end, start, i + 1)
            if len(steps) != 1 or valid_end != end:
                raise Corrupt(f"{self.path}: step {i + 1} is damaged")
            step = self._entries[i] = steps[0]
        return step

    # -- session lifecycle ------------------------------------------------

    @classmethod
    def begin_session(cls, drawing: Drawing, path: str | os.PathLike, io: FileIO | None = None) -> "Journal":
        """Start a fresh session: truncate any previous work file and take
        the session lock.  Raises Locked if a live session owns the file."""
        return cls._create(os.fspath(path), io or FileIO())

    @classmethod
    def resume(
        cls,
        path: str | os.PathLike,
        io: FileIO | None = None,
        cursor: int | None = None,
        positions: bytes = b"",
        index: bytes = b"",
    ) -> "Journal":
        """Reopen an existing work file as a continuation of its session.

        Parses the valid prefix (repairing a torn tail), re-applies session
        memory captured by the previous process (the cursor, and the
        ``Journal.positions`` stack), and takes the session lock.  A
        negative cursor reads as 0; one past the steps the file holds
        raises Corrupt before the file is repaired.  Undo checks each
        positions entry it reaches (see undo_step).

        ``index`` is the ``Journal.index`` the previous process left.  When
        it fits the file (see _read), only the bytes past its last end are
        read and scanned, and each step it covers is read and checked when
        first reached (Corrupt if it is damaged); otherwise the whole file
        is.  ``positions`` and ``index`` are bytes-like: anything else
        raises TypeError."""
        positions, index = bytearray(memoryview(positions)), memoryview(index)
        journal = cls._open(os.fspath(path), io or FileIO(), cursor, index)
        journal.positions = positions
        return journal

    def _require_session(self) -> None:
        if self._lock is None or not self._lock.held:
            raise Locked("journal is not owned by a live session")

    # -- queries -----------------------------------------------------------

    @property
    def steps(self) -> list[ChangeStep]:
        if None in self._entries:
            for i in range(len(self._entries)):
                self._step(i)
        return self._entries

    @property
    def index(self) -> bytes:
        """The step index a later resume can start from (see resume): the
        offset just past each step as u32 values, empty for an empty file
        or one past what a u32 holds."""
        ends = self._ends
        return struct.pack(f"<{len(ends)}I", *ends) if ends and ends[-1] <= _U32_MAX else b""

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
            self._append(encode_step(step_no, changes), ChangeStep(step_no, list(changes)))
        except BaseException:
            _roll_back(drawing, log)
            raise
        self.positions += _positions_entry([i for i, _ in log], step_no)
        drawing.revision += 1
        return step_no

    def undo_step(self, drawing: Drawing) -> None:
        """Take back the latest applied step at the positions of the top
        entry of the positions stack, then pop that entry; the file is not
        touched.  NotFound, with the drawing and the stack unchanged, when
        the entry's step number is not the cursor or its count does not
        fit (see also _apply_reverse)."""
        if self.cursor < 1:
            raise NothingToUndo("cursor is at the session start")
        stack = self.positions
        count, step_no = _ENTRY_TAIL.unpack_from(stack, len(stack) - 8) if len(stack) >= 8 else (0, 0)
        start = len(stack) - 8 - 4 * count
        if step_no != self.cursor or start < 0:
            raise NotFound(_UNKNOWN_POSITIONS)
        _apply_reverse(drawing, self._step(self.cursor - 1).changes, struct.unpack_from(f"<{count}I", stack, start))
        del stack[start:]
        self.cursor -= 1
        drawing.revision += 1

    def redo_step(self, drawing: Drawing) -> None:
        """Re-apply the first step of the redo tail."""
        if self.cursor >= self.step_count:
            raise NothingToRedo("no steps beyond the cursor")
        log = _apply_forward(drawing, self._step(self.cursor).changes, build_mirror=False)
        self.cursor += 1
        self.positions += _positions_entry([i for i, _ in log], self.cursor)
        drawing.revision += 1


def index_journal(
    data: bytes, end: int | None = None, start: int = HEADER_LEN, first: int = 1
) -> tuple[list[ChangeStep], list[int], int]:
    """The recovery brain: the complete steps of the longest valid prefix
    of ``data[start:end]``, their records not yet decoded (see
    IndexedStep), the offset just past each step, and the offset where
    that prefix ends.  ``start`` is a step boundary and ``first`` the
    number of the step that begins there.  Opening, recovering and
    inspecting a journal all index it here, in the one scan that
    validates it, and so does the check of a step reached by the index.

    On top of the frame CRCs, a step must carry the next step number,
    consist of element records and end in a commit record with zero kind
    and length.  Raises BadHeader when the magic or version is wrong
    (including a header torn mid-write)."""
    steps: list[ChangeStep] = []
    ends: list[int] = []
    pending = added = payload = 0
    valid_end = start
    for (step_no, flag, kind, length), _, frame_end in framelog.scan_frames(data, HEADER, _REC_HEAD, end, start):
        if step_no != first + len(steps) or flag > FLAG_COMMIT:
            break
        if flag == FLAG_COMMIT:
            if kind or length or not pending:
                break
            steps.append(IndexedStep(step_no, data, valid_end, frame_end, (pending, added, payload)))
            ends.append(frame_end)
            pending = added = payload = 0
            valid_end = frame_end
        else:
            pending += 1
            added += flag
            payload += length
    return steps, ends, valid_end


def _increasing_ends(index: bytes) -> tuple[int, ...]:
    """The ends of a step index when they are whole u32 values that
    strictly increase from the header on, else ()."""
    if not index or len(index) % 4:
        return ()
    ends = struct.unpack(f"<{len(index) // 4}I", index)
    return ends if HEADER_LEN < ends[0] and all(map(operator.lt, ends, islice(ends, 1, None))) else ()


def recover_journal(path: str | os.PathLike, io: FileIO | None = None) -> tuple[Journal, bool]:
    """Parse the longest prefix of complete steps and physically truncate
    the file to it.

    Returns the recovered journal (cursor at 0: nothing is applied to any
    in-memory drawing yet; redo from a copy of the session-start drawing
    replays the recovered work) and whether trailing bytes were dropped.
    Must not run while a session owns the file.
    """
    return Journal._load(os.fspath(path), io or FileIO(), repair=True)


def inspect_journal(path: str | os.PathLike, io: FileIO | None = None) -> tuple[Journal, bool]:
    """Read-only variant of recover_journal: a torn tail is skipped but the
    file is left untouched."""
    return Journal._load(os.fspath(path), io or FileIO(), repair=False)
