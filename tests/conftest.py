"""Shared fixtures: payload factories, the full-copy snapshot oracle, and
sessions that die after a given step."""
from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager

import pytest

from draftvault.faultsim import CrashSimulated, FaultPlan, FaultyIO, reached_states
from draftvault.journal import FLAG_ADDED, FLAG_DELETED, HEADER, _apply_forward, encode_step
from draftvault.model import Drawing, ElementPayload, _packed_hashes
from draftvault.script import parse_script
from draftvault.sidecar import read_sidecar


def make_payload(rng: random.Random, kinds: int = 8, max_len: int = 32) -> ElementPayload:
    return ElementPayload(rng.randrange(kinds), rng.randbytes(rng.randrange(max_len + 1)))


def payload_pool(rng: random.Random, count: int, kinds: int = 64, max_len: int = 32):
    pool = []
    seen = set()
    while len(pool) < count:
        p = make_payload(rng, kinds, max_len)
        key = (p.kind, p.data)
        if key not in seen:
            seen.add(key)
            pool.append(p)
    return pool


def multiset(elements) -> Counter:
    return Counter((e.kind, e.data) for e in elements)


def apply_changes(drawing: Drawing, changes) -> None:
    """Change ``drawing`` the way a commit does, without a journal file:
    the journal's in-place forward apply, building the hash mirror, and
    one revision bump."""
    _apply_forward(drawing, changes, build_mirror=True)
    drawing.revision += 1


def assert_mirror_in_step(drawing: Drawing) -> None:
    """The hash mirror, when there is one, is the packed hashes of the
    drawing's current element list."""
    if drawing._mirror is not None:
        assert drawing._mirrored is drawing.elements
        assert drawing._mirror == _packed_hashes(drawing.elements)


def random_step(rng: random.Random, pool, present: list, max_changes: int = 10):
    """One valid change step against the current content ``present``;
    mutates ``present`` to the post-step state.  Mixes adds, deletes and
    self-modify pairs (delete x then add x back)."""
    sim = list(present)
    changes = []
    target = rng.randint(1, max_changes)
    while len(changes) < target:
        roll = rng.random()
        if roll < 0.15 and sim:
            p = rng.choice(sim)
            changes.append((FLAG_DELETED, p))
            changes.append((FLAG_ADDED, p))
        elif roll < 0.60 or not sim:
            p = rng.choice(pool)
            changes.append((FLAG_ADDED, p))
            sim.append(p)
        else:
            p = rng.choice(sim)
            changes.append((FLAG_DELETED, p))
            sim.remove(p)
    present[:] = sim
    return changes


class SnapshotOracle:
    """Independent full-copy oracle: it never replays records, it just
    keeps a verbatim copy of the element list at every cursor position."""

    def __init__(self, drawing: Drawing):
        self.snapshots: list[list[ElementPayload]] = [list(drawing.elements)]

    def record_commit(self, cursor: int, drawing: Drawing) -> None:
        del self.snapshots[cursor:]
        self.snapshots.append(list(drawing.elements))

    def expected(self, cursor: int) -> list[ElementPayload]:
        return self.snapshots[cursor]

    def expected_bytes(self, cursor: int) -> bytes:
        return Drawing(elements=self.snapshots[cursor]).canonical_bytes()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD0CFA11)


def plan_after_step(script: str, step: int) -> FaultPlan:
    """The crash that ends a fresh session of the linear ``script`` right
    after its step ``step``: a journal kill at the byte where the next
    step starts or, after the last step, a kill at the document save,
    before the autosave set is cleaned up."""
    journal_states, _ = reached_states(parse_script(script))
    if step == len(journal_states) - 1:
        return FaultPlan(0, "envelope")
    steps = journal_states[step]
    return FaultPlan(len(HEADER) + sum(len(encode_step(n, list(c))) for n, c in enumerate(steps, 1)),
                     "journal")


@contextmanager
def dies_after_step(doc, script: str, step: int):
    """Yield the FaultyIO for one session of ``script`` on ``doc`` that dies
    right after its step ``step`` (see plan_after_step), and check that it
    died and left what a dead session leaves: the document as it was and
    the sidecar at the cursor the session started from, 0."""
    before = doc.read_bytes() if doc.exists() else None
    with pytest.raises(CrashSimulated):
        yield FaultyIO(plan_after_step(script, step), doc)
    assert (doc.read_bytes() if doc.exists() else None) == before
    assert read_sidecar(doc.with_name(doc.name + ".session")).journal_cursor == 0
