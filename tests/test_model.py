import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from draftvault.errors import BadHeader, Corrupt, NotFound
from draftvault.fileio import FileIO
from draftvault.journal import FLAG_ADDED, FLAG_DELETED, Journal
from draftvault.model import Drawing, ElementPayload, validate_drawing

from conftest import apply_changes, multiset

E1 = ElementPayload(1, b"\x01\x02")
E2 = ElementPayload(2, b"\x03")

elements_strategy = st.lists(
    st.builds(ElementPayload, st.integers(0, 0xFFFF), st.binary(max_size=40)),
    max_size=30,
)


def test_payload_identity_is_content():
    assert ElementPayload(1, b"ab") == ElementPayload(1, b"ab")
    assert ElementPayload(1, b"ab") != ElementPayload(2, b"ab")
    assert ElementPayload(1, b"ab") != ElementPayload(1, b"abc")


def test_payload_is_immutable_and_validated():
    with pytest.raises(Exception):
        ElementPayload(1, b"x").kind = 2
    with pytest.raises(ValueError):
        ElementPayload(-1, b"")
    with pytest.raises(ValueError):
        ElementPayload(0x10000, b"")
    with pytest.raises(TypeError):
        ElementPayload(0, "not bytes")


def test_payload_pickles_and_copies():
    for p in (E1, ElementPayload(0xFFFF, b""), ElementPayload(0, bytes(range(256)))):
        again = [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        again += [copy.copy(p), copy.deepcopy(p)]
        for q in again:
            assert type(q) is ElementPayload
            assert q == p and hash(q) == hash(p)
            assert (q.kind, q.data) == (p.kind, p.data)
    assert repr(E1) == "ElementPayload(kind=1, data=b'\\x01\\x02')"


def test_add_to_empty():
    d = Drawing()
    apply_changes(d, [(FLAG_ADDED, E1)])
    assert d.elements == [E1]


def test_add_duplicate_keeps_both():
    d = Drawing(elements=[E1])
    apply_changes(d, [(FLAG_ADDED, E1)])
    assert len(d) == 2
    assert multiset(d.elements) == {(1, b"\x01\x02"): 2}


def test_add_changes_canonical_bytes():
    d = Drawing()
    before = d.canonical_bytes()
    apply_changes(d, [(FLAG_ADDED, E1)])
    assert d.canonical_bytes() != before


def test_remove_single():
    d = Drawing(elements=[E1])
    apply_changes(d, [(FLAG_DELETED, E1)])
    assert d.elements == []


def test_remove_picks_most_recent_duplicate():
    first = ElementPayload(1, b"dup")
    second = ElementPayload(1, b"dup")
    d = Drawing(elements=[first, E2, second])
    apply_changes(d, [(FLAG_DELETED, ElementPayload(1, b"dup"))])
    assert d.elements == [first, E2]
    assert d.elements[0] is first  # the earlier occurrence survived


def test_remove_missing_raises_and_leaves_drawing():
    d = Drawing(elements=[E1])
    with pytest.raises(NotFound):
        apply_changes(d, [(FLAG_DELETED, E2)])
    assert d.elements == [E1]


def test_remove_preserves_relative_order():
    payloads = [ElementPayload(i % 3, bytes([i])) for i in range(10)]
    d = Drawing(elements=list(payloads))
    apply_changes(d, [(FLAG_DELETED, payloads[4])])
    assert d.elements == payloads[:4] + payloads[5:]


def test_empty_drawing_is_fixed_ten_byte_header():
    assert Drawing().canonical_bytes() == bytes.fromhex("54434744" "0100" "00000000")


def test_equal_drawings_built_differently_serialize_identically():
    a = Drawing(elements=[E1, E2])
    b = Drawing()
    apply_changes(b, [(FLAG_ADDED, E1)])
    apply_changes(b, [(FLAG_ADDED, E2)])
    apply_changes(b, [(FLAG_ADDED, E1)])
    apply_changes(b, [(FLAG_DELETED, E1)])
    assert a.canonical_bytes() == b.canonical_bytes()


@given(elements_strategy)
def test_canonical_round_trip(elements):
    d = Drawing(elements=elements)
    again = Drawing.from_canonical_bytes(d.canonical_bytes())
    assert again.elements == d.elements
    assert again.canonical_bytes() == d.canonical_bytes()


@given(elements_strategy, elements_strategy)
def test_canonical_is_injective_over_sequences(lhs, rhs):
    same = Drawing(elements=lhs).canonical_bytes() == Drawing(elements=rhs).canonical_bytes()
    assert same == (lhs == rhs)


@given(elements_strategy, st.builds(ElementPayload, st.integers(0, 0xFFFF), st.binary(max_size=40)))
def test_remove_inverts_add(elements, extra):
    d = Drawing(elements=list(elements))
    before = multiset(d.elements)
    apply_changes(d, [(FLAG_ADDED, extra)])
    apply_changes(d, [(FLAG_DELETED, extra)])
    assert multiset(d.elements) == before


def test_parse_rejects_garbage():
    with pytest.raises(BadHeader):
        Drawing.from_canonical_bytes(b"nope")
    with pytest.raises(BadHeader):
        Drawing.from_canonical_bytes(bytes.fromhex("54434744" "0200" "00000000"))
    intact = Drawing(elements=[E1]).canonical_bytes()
    with pytest.raises(Corrupt):
        Drawing.from_canonical_bytes(intact[:-1])
    with pytest.raises(Corrupt):
        Drawing.from_canonical_bytes(intact + b"\x00")


def test_revision_counts_mutations(tmp_path):
    """One bump per step the journal applies, whatever its record count,
    and none for a step it refuses."""
    d = Drawing(elements=[E1])
    journal = Journal.begin_session(d, tmp_path / "j", FileIO(fsync_enabled=False))
    r0 = d.revision
    journal.commit_step(d, [(FLAG_ADDED, E2), (FLAG_DELETED, E1), (FLAG_ADDED, E1)])
    assert d.revision == r0 + 1
    with pytest.raises(NotFound):
        journal.commit_step(d, [(FLAG_ADDED, E1), (FLAG_DELETED, ElementPayload(9, b""))])
    assert d.revision == r0 + 1
    journal.undo_step(d)
    journal.redo_step(d)
    assert d.revision == r0 + 3
    journal.close()


def _raised(fn, data):
    try:
        fn(data)
    except (BadHeader, Corrupt) as exc:
        return type(exc), str(exc)
    return None


def test_parse_refuses_exactly_what_validate_refuses():
    """The parse checks the structure in the walk that builds the elements;
    at every cut and one-byte overrun it raises what validate_drawing does."""
    intact = Drawing(elements=[E1, E2, ElementPayload(3, b""), ElementPayload(4, bytes(9))]).canonical_bytes()
    cases = [intact[:cut] for cut in range(len(intact) + 1)]
    cases += [intact + b"\x00", intact[:-1] + b"\x00\x00"]
    cases += [intact[:i] + bytes([(intact[i] + 1) & 0xFF]) + intact[i + 1 :] for i in range(6, len(intact))]
    for data in cases:
        expected = _raised(validate_drawing, data)
        assert _raised(Drawing.from_canonical_bytes, data) == expected
        if expected is None:
            assert Drawing.from_canonical_bytes(data).canonical_bytes() == data
    assert _raised(Drawing.from_canonical_bytes, intact[:-1]) == (Corrupt, "truncated element data")
