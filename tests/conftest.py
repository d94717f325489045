"""Shared fixtures: payload factories and the full-copy snapshot oracle."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from draftvault.journal import FLAG_ADDED, FLAG_DELETED, _apply_forward
from draftvault.model import Drawing, ElementPayload, _packed_hashes


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
