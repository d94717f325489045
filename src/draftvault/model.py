"""The drawing model: an ordered multiset of opaque elements.

Elements are (kind, bytes) payloads with content identity: two payloads
are the same element exactly when the kind tags match and the bytes are
identical.  The engine assigns no meaning to either field.

Serialized layout (little-endian):

    magic "TCGD" | u16 version | u32 count | count * (u16 kind | u32 len | data)

The serialization is deterministic and injective over element sequences,
so byte equality of two encodings is exactly sequence equality of two
drawings.  Signatures and test oracles rely on this single byte-form of
truth.  The drawing's name is its file identity and is not part of the
content.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import BadHeader, Corrupt, NotFound

MAGIC = b"TCGD"
FORMAT_VERSION = 1
HEADER_LEN = 10  # magic + u16 version + u32 count

_HEADER = struct.Struct("<4sHI")
_ELEMENT_HEAD = struct.Struct("<HI")

MAX_KIND = 0xFFFF
MAX_DATA_LEN = 0xFFFFFFFF


@dataclass(frozen=True)
class ElementPayload:
    """One opaque geometric element; immutable, identity by content."""

    kind: int
    data: bytes
    _record: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, int) or not 0 <= self.kind <= MAX_KIND:
            raise ValueError(f"kind must be a 16-bit unsigned integer, got {self.kind!r}")
        if not isinstance(self.data, bytes):
            raise TypeError("data must be bytes")
        if len(self.data) > MAX_DATA_LEN:
            raise ValueError("data exceeds 2**32 - 1 bytes")

    def record_bytes(self) -> bytes:
        """Serialized form of this element; cached, payloads are immutable."""
        rec = self._record
        if rec is None:
            rec = _ELEMENT_HEAD.pack(self.kind, len(self.data)) + self.data
            object.__setattr__(self, "_record", rec)
        return rec


class Drawing:
    """Ordered multiset of payloads; duplicates allowed, insertion order kept.

    ``dirty`` tracks changes since the last durable save; ``revision`` is a
    monotonically increasing change counter used by the autosave machinery
    to skip ticks when nothing changed.
    """

    def __init__(self, name: str = "", elements: list[ElementPayload] | None = None):
        self.name = name
        self.elements: list[ElementPayload] = list(elements) if elements else []
        self.dirty = False
        self.revision = 0

    def __len__(self) -> int:
        return len(self.elements)

    def _touch(self) -> None:
        self.dirty = True
        self.revision += 1

    def add_element(self, e: ElementPayload) -> None:
        """Append one element (duplicates are separate occurrences)."""
        self.elements.append(e)
        self._touch()

    def find_matching(self, e: ElementPayload) -> int:
        """Index of the most recently inserted element equal to ``e``."""
        for i in range(len(self.elements) - 1, -1, -1):
            if self.elements[i] == e:
                return i
        raise NotFound(f"no element matches kind={e.kind} len={len(e.data)}")

    def remove_matching(self, e: ElementPayload) -> int:
        """Remove the most recently inserted match; returns its index.

        Raises NotFound when nothing matches, leaving the drawing untouched.
        """
        i = self.find_matching(e)
        del self.elements[i]
        self._touch()
        return i

    def insert_at(self, index: int, e: ElementPayload) -> None:
        """Reinsert an element at a recorded position (undo of a delete)."""
        self.elements.insert(index, e)
        self._touch()

    def replace_elements(self, elements: list[ElementPayload]) -> None:
        """Swap in a fully prepared element list (all-or-nothing updates)."""
        self.elements = elements
        self._touch()

    def canonical_bytes(self) -> bytes:
        parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, len(self.elements))]
        parts.extend(e.record_bytes() for e in self.elements)
        return b"".join(parts)

    @classmethod
    def from_canonical_bytes(cls, data: bytes, name: str = "") -> "Drawing":
        """The drawing ``data`` encodes; raises as validate_drawing does."""
        count = validate_drawing(data)
        unpack_head, head_len = _ELEMENT_HEAD.unpack_from, _ELEMENT_HEAD.size
        elements = []
        pos = HEADER_LEN
        for _ in range(count):
            kind, dlen = unpack_head(data, pos)
            pos += head_len
            elements.append(ElementPayload(kind, data[pos : pos + dlen]))
            pos += dlen
        return cls(name=name, elements=elements)

    def copy_elements(self) -> list[ElementPayload]:
        return list(self.elements)

    def mark_saved(self) -> None:
        self.dirty = False


def validate_drawing(data: bytes) -> int:
    """Check that ``data`` is a complete drawing, without building its
    elements; returns the element count.  BadHeader for a wrong magic or
    version, Corrupt for a torn or overlong element list."""
    if len(data) < HEADER_LEN or data[:4] != MAGIC:
        raise BadHeader("not a drawing file")
    _, version, count = _HEADER.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise BadHeader(f"unsupported drawing format version {version}")
    unpack_head, head_len = _ELEMENT_HEAD.unpack_from, _ELEMENT_HEAD.size
    n = len(data)
    pos = HEADER_LEN
    for _ in range(count):
        if pos + head_len > n:
            raise Corrupt("truncated element header")
        _, dlen = unpack_head(data, pos)
        pos += head_len + dlen
        if pos > n:
            raise Corrupt("truncated element data")
    if pos != n:
        raise Corrupt(f"{n - pos} trailing bytes after last element")
    return count
