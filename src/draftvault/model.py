"""The drawing model: an ordered multiset of opaque elements.

An element is its record: the ``u16 kind | u32 len | data`` bytes that the
drawing layout stores for it.  The engine assigns no meaning to the kind or
the data.  Record encoding is injective, so two elements are the same
element exactly when their records are equal, and equality, hashing and
list searches are bytes comparisons that run in C.

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

from .errors import BadHeader, Corrupt

MAGIC = b"TCGD"
FORMAT_VERSION = 1
HEADER_LEN = 10  # magic + u16 version + u32 count

_HEADER = struct.Struct("<4sHI")
_ELEMENT_HEAD = struct.Struct("<HI")
_KIND = struct.Struct("<H")

MAX_KIND = 0xFFFF
MAX_DATA_LEN = 0xFFFFFFFF


class ElementPayload(tuple):
    """One opaque geometric element; immutable, identity by content.

    A one-item tuple holding the element's record bytes, so ``==``,
    ``hash`` and ``list.index`` are the tuple and bytes operations in C.
    ``ElementPayload(kind, data)`` checks both fields; ``kind`` and
    ``data`` are read back from the record.

    The parsers build an element straight from a record slice of the
    file, with ``tuple.__new__(ElementPayload, (record,))``, and check its
    fields no further: the struct layout bounds the kind to 16 bits and
    the length to 32, and the parser has already checked that the record's
    data lies within the file, so the slice is exactly the record that
    ``ElementPayload(kind, data)`` would build.
    """

    __slots__ = ()

    def __new__(cls, kind: int, data: bytes):
        if not isinstance(kind, int) or not 0 <= kind <= MAX_KIND:
            raise ValueError(f"kind must be a 16-bit unsigned integer, got {kind!r}")
        if not isinstance(data, bytes):
            raise TypeError("data must be bytes")
        if len(data) > MAX_DATA_LEN:
            raise ValueError("data exceeds 2**32 - 1 bytes")
        return tuple.__new__(cls, (_ELEMENT_HEAD.pack(kind, len(data)) + data,))

    @property
    def record(self) -> bytes:
        """Serialized form of this element, as the drawing layout stores it."""
        return self[0]

    @property
    def kind(self) -> int:
        return _KIND.unpack_from(self[0])[0]

    @property
    def data(self) -> bytes:
        return self[0][_ELEMENT_HEAD.size :]

    def __getnewargs__(self) -> tuple[int, bytes]:
        return self.kind, self.data

    def __repr__(self) -> str:
        return f"ElementPayload(kind={self.kind!r}, data={self.data!r})"


class Drawing:
    """Ordered multiset of payloads; duplicates allowed, insertion order kept.

    The journal is the one way to change the element list: it prepares a
    new list and swaps it in with ``replace_elements``.  ``revision`` is a
    monotonically increasing change counter used by the autosave machinery
    to skip ticks when nothing changed.
    """

    def __init__(self, name: str = "", elements: list[ElementPayload] | None = None):
        self.name = name
        self.elements: list[ElementPayload] = list(elements) if elements else []
        self.revision = 0

    def __len__(self) -> int:
        return len(self.elements)

    def replace_elements(self, elements: list[ElementPayload]) -> None:
        """Swap in a fully prepared element list (all-or-nothing updates)."""
        self.elements = elements
        self.revision += 1

    def canonical_bytes(self) -> bytes:
        parts = [e[0] for e in self.elements]
        parts.insert(0, _HEADER.pack(MAGIC, FORMAT_VERSION, len(parts)))
        return b"".join(parts)

    @classmethod
    def from_canonical_bytes(cls, data: bytes, name: str = "") -> "Drawing":
        """The drawing ``data`` encodes; raises as validate_drawing does."""
        count = validate_drawing(data)
        unpack_head, head_len, new = _ELEMENT_HEAD.unpack_from, _ELEMENT_HEAD.size, tuple.__new__
        elements = []
        pos = HEADER_LEN
        for _ in range(count):
            end = pos + head_len + unpack_head(data, pos)[1]
            elements.append(new(ElementPayload, (data[pos:end],)))
            pos = end
        return cls(name=name, elements=elements)


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
