import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from draftvault.errors import BadHeader, IoFailure, Locked, NotFound, NothingToRedo, NothingToUndo
from draftvault.fileio import FileIO
from draftvault.journal import (
    FLAG_ADDED,
    FLAG_COMMIT,
    FLAG_DELETED,
    HEADER,
    RECORD_OVERHEAD,
    Journal,
    _apply_forward,
    _apply_reverse,
    encode_record,
    encode_step,
    inspect_journal,
    index_journal,
    make_modify,
    recover_journal,
)
from draftvault.model import _HASH, Drawing, ElementPayload, _last_index, _packed_hashes

from conftest import (
    SnapshotOracle,
    apply_changes,
    assert_mirror_in_step,
    multiset,
    payload_pool,
    random_step,
)

A = ElementPayload(1, b"alpha")
B = ElementPayload(2, b"beta")
C = ElementPayload(3, b"gamma")


@pytest.fixture
def session(tmp_path):
    drawing = Drawing(name="doc")
    journal = Journal.begin_session(drawing, tmp_path / "doc.journal")
    yield journal, drawing
    journal.close()


def test_begin_session_fresh_file(tmp_path):
    drawing = Drawing()
    journal = Journal.begin_session(drawing, tmp_path / "j")
    assert journal.step_count == 0 and journal.cursor == 0
    assert (tmp_path / "j").read_bytes() == HEADER
    journal.close()


def test_begin_session_discards_previous_session(tmp_path):
    drawing = Drawing()
    j1 = Journal.begin_session(drawing, tmp_path / "j")
    j1.commit_step(drawing, [(FLAG_ADDED, A)])
    j1.close()
    j2 = Journal.begin_session(Drawing(), tmp_path / "j")
    assert j2.step_count == 0
    assert (tmp_path / "j").read_bytes() == HEADER
    j2.close()


def test_begin_session_twice_is_locked(tmp_path):
    j1 = Journal.begin_session(Drawing(), tmp_path / "j")
    with pytest.raises(Locked):
        Journal.begin_session(Drawing(), tmp_path / "j")
    j1.close()
    j2 = Journal.begin_session(Drawing(), tmp_path / "j")  # released -> fine
    j2.close()


def test_stale_lock_from_dead_pid_is_taken_over(tmp_path):
    (tmp_path / "j.lock").write_text("pid=999999999\n")
    journal = Journal.begin_session(Drawing(), tmp_path / "j")
    journal.close()


def test_make_modify_is_delete_then_add():
    new = ElementPayload(1, b"alpha2")
    assert make_modify(A, new) == [(FLAG_DELETED, A), (FLAG_ADDED, new)]
    assert make_modify(A, A) == [(FLAG_DELETED, A), (FLAG_ADDED, A)]


def test_modify_pair_applies_as_replacement(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    new = ElementPayload(1, b"alpha2")
    journal.commit_step(drawing, make_modify(A, new))
    assert drawing.elements == [new]


def test_first_commit(session):
    journal, drawing = session
    assert journal.commit_step(drawing, [(FLAG_ADDED, A)]) == 1
    assert drawing.elements == [A]
    assert journal.cursor == 1


def test_commit_empty_step_rejected(session):
    journal, drawing = session
    with pytest.raises(ValueError):
        journal.commit_step(drawing, [])


@pytest.mark.parametrize(
    "change, error",
    [
        ((FLAG_ADDED, (1, b"alpha")), TypeError),
        ((FLAG_DELETED, A.record), TypeError),
        ((FLAG_DELETED, (A.record,)), TypeError),
        ((FLAG_COMMIT, A), ValueError),
        ((7, A), ValueError),
    ],
    ids=["plain_tuple", "record_bytes", "record_in_tuple", "commit_flag", "unknown_flag"],
)
def test_commit_rejects_malformed_change_untouched(session, change, error):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    file_before = journal.path.read_bytes()
    with pytest.raises(error):
        journal.commit_step(drawing, [(FLAG_ADDED, B), change])
    assert drawing.elements == [A] and drawing.revision == 1
    assert journal.cursor == 1 and journal.step_count == 1
    assert journal.path.read_bytes() == file_before


def test_commit_missing_delete_aborts_cleanly(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    file_before = journal.path.read_bytes()
    with pytest.raises(NotFound):
        journal.commit_step(drawing, [(FLAG_DELETED, B), (FLAG_ADDED, C)])
    assert drawing.elements == [A]
    assert journal.cursor == 1
    assert journal.path.read_bytes() == file_before


def test_commit_after_undo_truncates_redo_tail(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    journal.commit_step(drawing, [(FLAG_ADDED, B)])
    journal.commit_step(drawing, [(FLAG_ADDED, C)])
    journal.undo_step(drawing)
    journal.undo_step(drawing)
    assert journal.commit_step(drawing, [(FLAG_ADDED, C)]) == 2
    replayed, truncated = inspect_journal(journal.path)
    assert not truncated
    assert [s.step_no for s in replayed.steps] == [1, 2]
    assert [(f, p) for f, p in replayed.steps[1].changes] == [(FLAG_ADDED, C)]


def test_undo_of_add(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    journal.undo_step(drawing)
    assert drawing.elements == []
    assert journal.cursor == 0


def test_undo_of_delete_restores_element(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    journal.commit_step(drawing, [(FLAG_DELETED, A)])
    assert drawing.elements == []
    journal.undo_step(drawing)
    assert drawing.elements == [A]


def test_undo_self_modify_restores_exact_bytes(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A), (FLAG_ADDED, B)])
    before = drawing.canonical_bytes()
    journal.commit_step(drawing, [(FLAG_DELETED, A), (FLAG_ADDED, A)])
    journal.undo_step(drawing)
    assert drawing.canonical_bytes() == before


def test_undo_restores_mid_list_position(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A), (FLAG_ADDED, B), (FLAG_ADDED, C)])
    before = drawing.canonical_bytes()
    journal.commit_step(drawing, [(FLAG_DELETED, B)])
    journal.undo_step(drawing)
    assert drawing.canonical_bytes() == before
    assert drawing.elements == [A, B, C]


def test_undo_divergence_aborts_without_touching_drawing(tmp_path, session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A), (FLAG_ADDED, B)])
    journal.close()
    # a resumed session with a corrupted position memory must refuse cleanly,
    # whether the first record it inverts diverges or a later one
    for positions in ([5, 7], [5, 1]):
        resumed = Journal.resume(journal.path, cursor=1, positions={1: positions})
        snapshot = list(drawing.elements)
        with pytest.raises(NotFound):
            resumed.undo_step(drawing)
        assert _same_objects(drawing.elements, snapshot)
        assert resumed.cursor == 1
        resumed.close()


def test_resume_clamps_a_negative_cursor(tmp_path):
    drawing = Drawing()
    journal = Journal.begin_session(drawing, tmp_path / "j")
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    journal.commit_step(drawing, [(FLAG_ADDED, B)])
    journal.close()
    resumed = Journal.resume(tmp_path / "j", cursor=-1)
    assert resumed.cursor == 0
    replay = Drawing()
    resumed.redo_step(replay)  # the first step, not the last one again
    assert replay.elements == [A] and resumed.cursor == 1
    resumed.close()


def test_resume_drops_negative_positions(tmp_path):
    drawing = Drawing(elements=[A, B, C])
    journal = Journal.begin_session(drawing, tmp_path / "j")
    journal.commit_step(drawing, [(FLAG_DELETED, A)])
    journal.close()
    resumed = Journal.resume(tmp_path / "j", cursor=1, positions={1: [-1]})
    assert resumed.steps[0].positions is None
    with pytest.raises(NotFound):  # refused, not an insert at index -1 or a guess
        resumed.undo_step(drawing)
    assert drawing.elements == [B, C] and resumed.cursor == 1
    resumed.close()


def test_undo_redo_bounds(session):
    journal, drawing = session
    with pytest.raises(NothingToUndo):
        journal.undo_step(drawing)
    with pytest.raises(NothingToRedo):
        journal.redo_step(drawing)
    journal.commit_step(drawing, [(FLAG_ADDED, A)])
    with pytest.raises(NothingToRedo):
        journal.redo_step(drawing)


def test_undo_redo_inverse_pair(session):
    journal, drawing = session
    journal.commit_step(drawing, [(FLAG_ADDED, A), (FLAG_ADDED, B)])
    journal.commit_step(drawing, [(FLAG_DELETED, A), (FLAG_ADDED, C)])
    at_two = drawing.canonical_bytes()
    journal.undo_step(drawing)
    at_one = drawing.canonical_bytes()
    journal.redo_step(drawing)
    assert drawing.canonical_bytes() == at_two
    journal.undo_step(drawing)
    assert drawing.canonical_bytes() == at_one


def test_walk_matches_snapshot_oracle(tmp_path, rng):
    drawing = Drawing()
    journal = Journal.begin_session(drawing, tmp_path / "j", FileIO(fsync_enabled=False))
    oracle = SnapshotOracle(drawing)
    pool = payload_pool(rng, 20)
    present: list = []
    for _ in range(60):
        journal.commit_step(drawing, random_step(rng, pool, present, 6))
        oracle.record_commit(journal.cursor, drawing)
    for _ in range(300):
        if rng.random() < 0.5 and journal.cursor > 0:
            journal.undo_step(drawing)
        elif journal.cursor < journal.step_count:
            journal.redo_step(drawing)
        assert drawing.canonical_bytes() == oracle.expected_bytes(journal.cursor)
    journal.close()


def test_reverse_order_within_distinct_step_matches_any_order(rng):
    # When a step's payloads are pairwise distinct, undoing its records in
    # any order restores the same multiset the strict-reverse replay does.
    pool = payload_pool(rng, 30)
    for _ in range(50):
        base = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        distinct = rng.sample(pool, rng.randint(1, 6))
        changes = []
        sim = list(base)
        for p in distinct:
            if p in sim and rng.random() < 0.5:
                changes.append((FLAG_DELETED, p))
                sim.remove(p)
            else:
                changes.append((FLAG_ADDED, p))
                sim.append(p)

        def undo_in(order, state):
            for flag, p in order:
                if flag == FLAG_ADDED:
                    state.remove(p)
                else:
                    state.append(p)
            return multiset(state)

        strict = undo_in(list(reversed(changes)), list(sim))
        shuffled = list(changes)
        rng.shuffle(shuffled)
        assert undo_in(shuffled, list(sim)) == strict
        assert strict == multiset(base)


# -- recovery ------------------------------------------------------------


def build_journal_file(tmp_path, rng, steps=12, max_changes=4):
    drawing = Drawing()
    journal = Journal.begin_session(drawing, tmp_path / "j", FileIO(fsync_enabled=False))
    pool = payload_pool(rng, 12, max_len=16)
    present: list = []
    boundaries = [len(HEADER)]
    for _ in range(steps):
        journal.commit_step(drawing, random_step(rng, pool, present, max_changes))
        boundaries.append(journal._prefix_end(journal.step_count))
    journal.close()
    data = (tmp_path / "j").read_bytes()
    assert boundaries[-1] == len(data)
    return (tmp_path / "j"), data, boundaries, journal.steps


def test_recover_intact_file(tmp_path, rng):
    path, data, boundaries, steps = build_journal_file(tmp_path, rng)
    journal, truncated = recover_journal(path)
    assert not truncated
    assert journal.cursor == 0
    assert [s.step_no for s in journal.steps] == [s.step_no for s in steps]
    for mine, original in zip(journal.steps, steps):
        assert mine.changes == original.changes


def test_recover_every_truncation_offset(tmp_path, rng):
    """Byte-truncation sweep against an independent boundary oracle."""
    path, data, boundaries, steps = build_journal_file(tmp_path, rng)
    for cut in range(len(HEADER), len(data) + 1):
        expected_steps = max(i for i, end in enumerate(boundaries) if end <= cut)
        path.write_bytes(data[:cut])
        journal, truncated = recover_journal(path)
        assert journal.step_count == expected_steps
        assert truncated == (cut != boundaries[expected_steps])
        assert path.stat().st_size == boundaries[expected_steps]
        for mine, original in zip(journal.steps, steps):
            assert mine.changes == original.changes


def test_recover_too_short_header_is_bad(tmp_path):
    (tmp_path / "j").write_bytes(b"TCG")
    with pytest.raises(BadHeader):
        recover_journal(tmp_path / "j")
    (tmp_path / "j").write_bytes(b"NOPE\x01\x00")
    with pytest.raises(BadHeader):
        recover_journal(tmp_path / "j")


def test_recover_stops_at_corrupted_byte(tmp_path, rng):
    path, data, boundaries, steps = build_journal_file(tmp_path, rng, steps=8)
    for _ in range(60):
        flip = rng.randrange(len(HEADER), len(data))
        mutated = bytearray(data)
        mutated[flip] ^= 0x40
        path.write_bytes(bytes(mutated))
        journal, truncated = recover_journal(path)
        # every step recovered must lie fully before the flipped byte
        surviving = max(i for i, end in enumerate(boundaries) if end <= flip)
        assert journal.step_count <= len(steps)
        assert journal.step_count >= 0
        for mine, original in zip(journal.steps, steps[: journal.step_count]):
            assert mine.changes == original.changes
        assert journal.step_count <= len(boundaries) - 1
        assert journal.step_count >= surviving or not truncated


def test_recover_rejects_noncontiguous_step_numbers(tmp_path):
    data = HEADER + encode_record(1, FLAG_ADDED, 1, b"x") + encode_record(1, FLAG_COMMIT, 0, b"")
    data += encode_record(3, FLAG_ADDED, 1, b"y") + encode_record(3, FLAG_COMMIT, 0, b"")
    (tmp_path / "j").write_bytes(data)
    journal, truncated = recover_journal(tmp_path / "j")
    assert journal.step_count == 1
    assert truncated


def test_recover_rejects_commit_without_records(tmp_path):
    data = HEADER + encode_record(1, FLAG_COMMIT, 0, b"")
    (tmp_path / "j").write_bytes(data)
    journal, truncated = recover_journal(tmp_path / "j")
    assert journal.step_count == 0
    assert truncated


def test_file_size_is_linear_in_payload_bytes(session):
    journal, drawing = session
    payloads = [ElementPayload(5, bytes(range(n))) for n in (0, 7, 31)]
    expected = len(HEADER)
    for i, p in enumerate(payloads, 1):
        journal.commit_step(drawing, [(FLAG_ADDED, p)])
        expected += (RECORD_OVERHEAD + len(p.data)) + RECORD_OVERHEAD
        assert journal.path.stat().st_size == expected


def _reference_last_index(work, payload):
    """The Python scan the element search replaced, kept as its reference."""
    for i in range(len(work) - 1, -1, -1):
        if work[i] == payload:
            return i
    raise NotFound("no matching element")


def _reference_forward(elements, changes):
    work = list(elements)
    positions = []
    for flag, payload in changes:
        if flag == FLAG_ADDED:
            work.append(payload)
            positions.append(len(work) - 1)
        else:
            i = _reference_last_index(work, payload)
            work.pop(i)
            positions.append(i)
    return work, positions


_ALPHABET = [(1, b"a"), (1, b"b"), (2, b"a")]
_letter = st.integers(0, len(_ALPHABET) - 1)
_letters = st.lists(_letter, max_size=12)


def _fresh(letter: int) -> ElementPayload:
    """A new object for each call, so that equal elements are distinct objects."""
    kind, data = _ALPHABET[letter]
    return ElementPayload(kind, data)


def _outcome(fn, elements, *args):
    try:
        return fn(elements, *args)
    except NotFound:
        return NotFound


def _same_objects(lhs, rhs) -> bool:
    return len(lhs) == len(rhs) and all(a is b for a, b in zip(lhs, rhs))


_changes = st.lists(st.tuples(st.sampled_from([FLAG_DELETED, FLAG_ADDED]), _letter), min_size=1, max_size=8)


@given(_letters, _changes, st.booleans())
def test_element_search_matches_the_python_scan(letters, drawn, build_mirror):
    elements = [_fresh(x) for x in letters]
    drawing = Drawing(elements=elements)
    changes = [(flag, _fresh(x)) for flag, x in drawn]

    expected = _outcome(_reference_forward, elements, changes)
    got = _outcome(_apply_forward, drawing, changes, build_mirror)
    assert_mirror_in_step(drawing)
    if expected is NotFound:
        assert got is NotFound
        assert _same_objects(drawing.elements, elements)  # refused: the very same objects
        return
    assert [i for i, _ in got] == expected[1]
    assert drawing.elements == expected[0]
    assert _same_objects(drawing.elements, expected[0])

    # Undo is the exact inverse of the forward apply: each element is the
    # original object or, where the step deleted one, the step's record.
    # It refuses a step whose positions are unknown, touching nothing.
    applied = list(drawing.elements)
    with pytest.raises(NotFound):
        _apply_reverse(drawing, changes, None)
    assert _same_objects(drawing.elements, applied)
    _apply_reverse(drawing, changes, expected[1])
    assert_mirror_in_step(drawing)
    records = [p for _, p in changes]
    assert drawing.elements == elements
    assert all(u is e or any(u is p for p in records) for u, e in zip(drawing.elements, elements))


def test_last_index_skips_unaligned_and_colliding_hits():
    x, y = ElementPayload(1, b"x"), ElementPayload(2, b"y")
    elements = [x, y, x, y, y, y]
    needle = _HASH.pack(hash(x))
    # x's hash sits in slot 2 (x), in slot 5 as well although its element
    # is y (a collision), and across slots 3 and 4 (unaligned)
    mirror = _packed_hashes(elements)
    mirror[40:48] = needle
    mirror[27:35] = needle
    assert mirror.rfind(needle) == 40 and mirror.rfind(needle, 0, 47) == 27
    assert _last_index(mirror, elements, x) == 2
    assert _last_index(_packed_hashes(elements), elements, y) == 5
    with pytest.raises(ValueError):
        _last_index(mirror, elements, ElementPayload(3, b"z"))


class _Hashed:
    """An element whose hash the test chooses."""

    def __init__(self, h: int):
        self.h = h

    def __hash__(self) -> int:
        return self.h

    def __eq__(self, other) -> bool:
        return isinstance(other, _Hashed) and other.h == self.h


def test_last_index_takes_only_aligned_slots_of_a_self_overlapping_hash():
    x, y = _Hashed(0x0101010101010101), _Hashed(0x0202020202020202)
    needle = _HASH.pack(hash(x))  # eight equal bytes: occurrences can overlap
    # slots x, y, y, where slot 1 starts with three bytes of x's hash:
    # the hits at 3, 2 and 1 are unaligned, and the search reaches 0 behind them
    mirror = bytearray(needle + needle[:3] + bytes(5) + _HASH.pack(hash(y)))
    assert mirror.rfind(needle) == 3
    assert _last_index(mirror, [x, y, y], x) == 0
    # an unaligned hit is never taken, even where its slot's element is equal
    mirror = bytearray(needle + bytes(4) + needle[:4] + needle[:4] + b"\x02" * 4)
    assert mirror.rfind(needle) == 12
    assert _last_index(mirror, [x, x, y], x) == 0


def test_append_failure_rolls_back_the_same_objects(tmp_path):
    class FailingAppend(FileIO):
        fail = False

        def append(self, path, data):
            if self.fail:
                raise OSError("disk gone")
            return super().append(path, data)

    io = FailingAppend(fsync_enabled=False)
    first, last = ElementPayload(1, b"dup"), ElementPayload(1, b"dup")
    drawing = Drawing(elements=[first, A, last, B])
    journal = Journal.begin_session(drawing, tmp_path / "j", io)
    journal.commit_step(drawing, [(FLAG_DELETED, B), (FLAG_ADDED, C)])  # builds the mirror
    before, revision = list(drawing.elements), drawing.revision
    file_before = journal.path.read_bytes()
    io.fail = True
    with pytest.raises(IoFailure):
        journal.commit_step(drawing, [(FLAG_DELETED, ElementPayload(1, b"dup")), (FLAG_ADDED, B), (FLAG_DELETED, A)])
    assert _same_objects(drawing.elements, before) and drawing.elements[2] is last
    assert drawing.revision == revision and journal.cursor == 1 and journal.step_count == 1
    assert journal.path.read_bytes() == file_before
    assert drawing._mirror is not None
    assert_mirror_in_step(drawing)
    journal.close()


def _reference_reverse(elements, changes, positions):
    work = list(elements)
    for (flag, payload), pos in zip(reversed(changes), reversed(positions)):
        if flag == FLAG_ADDED:
            work.pop(pos)
        else:
            work.insert(pos, payload)
    return work


_ops = st.lists(
    st.one_of(st.tuples(st.just("commit"), _changes), st.just(("undo",)), st.just(("redo",))), max_size=25
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_letters, _ops)
def test_journal_matches_the_list_reference_with_duplicates(tmp_path_factory, letters, ops):
    """Commits, undos and redos through a Journal on a drawing full of
    duplicates give the drawing bytes and the journal file that the list
    reference gives."""
    path = tmp_path_factory.mktemp("j") / "j"
    drawing = Drawing(elements=[_fresh(x) for x in letters])
    journal = Journal.begin_session(drawing, path, FileIO(fsync_enabled=False))
    work = list(drawing.elements)
    steps, positions, cursor = [], [], 0  # the reference's history
    try:
        for op in ops:
            if op[0] == "commit":
                changes = [(flag, _fresh(x)) for flag, x in op[1]]
                expected = _outcome(_reference_forward, work, changes)
                if expected is NotFound:
                    with pytest.raises(NotFound):
                        journal.commit_step(drawing, changes)
                else:
                    journal.commit_step(drawing, changes)
                    work = expected[0]
                    del steps[cursor:], positions[cursor:]
                    steps.append(changes)
                    positions.append(expected[1])
                    cursor += 1
            elif op[0] == "undo" and cursor:
                journal.undo_step(drawing)
                cursor -= 1
                work = _reference_reverse(work, steps[cursor], positions[cursor])
            elif op[0] == "redo" and cursor < len(steps):
                journal.redo_step(drawing)
                work, positions[cursor] = _reference_forward(work, steps[cursor])
                cursor += 1
            assert drawing.canonical_bytes() == Drawing(elements=work).canonical_bytes()
            assert_mirror_in_step(drawing)
        assert journal.cursor == cursor
        assert path.read_bytes() == HEADER + b"".join(encode_step(n, ch) for n, ch in enumerate(steps, 1))
    finally:
        journal.close()


def test_cold_undo_and_redo_build_no_mirror(tmp_path):
    drawing = Drawing(elements=[A, B, C, A])
    journal = Journal.begin_session(drawing, tmp_path / "j")
    journal.commit_step(drawing, [(FLAG_DELETED, A), (FLAG_ADDED, B)])
    journal.commit_step(drawing, [(FLAG_DELETED, B), (FLAG_ADDED, C)])
    positions = journal.session_positions()
    saved = drawing.canonical_bytes()
    journal.close()
    cold = Drawing.from_canonical_bytes(saved)
    resumed = Journal.resume(tmp_path / "j", cursor=2, positions=positions)
    resumed.undo_step(cold)
    resumed.undo_step(cold)
    resumed.redo_step(cold)  # searches by the plain scan
    assert cold.elements == [A, B, C, B]
    assert cold._mirror is None
    resumed.close()


def test_a_swapped_or_resized_list_gets_a_fresh_mirror():
    drawing = Drawing(elements=[A, B])
    apply_changes(drawing, [(FLAG_DELETED, B), (FLAG_ADDED, B)])  # builds the mirror
    drawing.elements = [B, A, C, A, B]  # a host swaps in a new list
    assert drawing.last_index(A, build_mirror=True) == 3
    assert_mirror_in_step(drawing)
    drawing.elements.append(C)  # a host grows the list behind the mirror's back
    assert drawing.last_index(C, build_mirror=True) == 5
    assert_mirror_in_step(drawing)
    drawing.elements.append(A)
    assert drawing.last_index(A) == 6  # a stale mirror is dropped, not searched
    assert drawing._mirror is None


def test_element_equality_stays_in_c():
    assert ElementPayload.__eq__ is tuple.__eq__
    assert ElementPayload.__hash__ is tuple.__hash__


def test_parsers_build_exact_payloads():
    built = [ElementPayload(1, b"alpha"), ElementPayload(0xFFFF, b""), ElementPayload(0, bytes(range(256)))]
    parsed = Drawing.from_canonical_bytes(Drawing(elements=built).canonical_bytes()).elements
    data = HEADER + encode_step(1, [(FLAG_ADDED, p) for p in built])
    steps, _, _ = index_journal(data)
    for elements in (parsed, [p for _, p in steps[0].changes]):
        assert [type(p) for p in elements] == [ElementPayload] * len(built)
        assert elements == built
        assert [(p.kind, p.data, p.record) for p in elements] == [(p.kind, p.data, p.record) for p in built]


class JournalMachine(RuleBasedStateMachine):
    """Journal vs full-copy oracle under random commit/undo/redo."""

    def __init__(self):
        super().__init__()
        self.rng = random.Random(0xBEEF)
        import tempfile

        self.dir = tempfile.TemporaryDirectory()
        self.drawing = Drawing()
        self.journal = Journal.begin_session(
            self.drawing, f"{self.dir.name}/j", FileIO(fsync_enabled=False)
        )
        self.oracle = SnapshotOracle(self.drawing)
        self.pool = payload_pool(self.rng, 10, max_len=8)
        self.present: list = []

    @initialize()
    def start(self):
        pass

    @rule(seed=st.integers(0, 2**16))
    def commit(self, seed):
        self.rng.seed(seed)
        sim = list(self.oracle.expected(self.journal.cursor))
        self.present = [p for p in sim]
        changes = random_step(self.rng, self.pool, self.present, 4)
        self.journal.commit_step(self.drawing, changes)
        self.oracle.record_commit(self.journal.cursor, self.drawing)

    @rule()
    def undo(self):
        if self.journal.cursor > 0:
            self.journal.undo_step(self.drawing)

    @rule()
    def redo(self):
        if self.journal.cursor < self.journal.step_count:
            self.journal.redo_step(self.drawing)

    @invariant()
    def matches_oracle(self):
        assert self.drawing.canonical_bytes() == self.oracle.expected_bytes(self.journal.cursor)

    def teardown(self):
        self.journal.close()
        self.dir.cleanup()


JournalMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestJournalMachine = JournalMachine.TestCase
