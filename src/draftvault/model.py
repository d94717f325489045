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

The journal changes a drawing in place, one element at a time, through
``Drawing``'s primitives (``append``, ``remove_at``, ``insert_at``), and
finds a delete's target with ``last_index``.  ``elements`` is read-only to
hosts: a host that mutates the list directly leaves the hash mirror below
out of step with it.

The hash mirror is a private ``bytearray`` beside ``elements``: element
*i*'s ``hash()`` as 8 native bytes at offset 8*i*.  ``last_index`` searches
it from the right with ``rfind`` and confirms a hit with ``==``, so it
finds the same element as a scan of the list, at a fraction of the cost.
It lives in memory only and never reaches a file: hashes are randomised
per process.  Only commits build it (``last_index(build_mirror=True)``);
a drawing that is only undone and redone, as a cold CLI call does, keeps
the plain scan and pays no hashing.  A mirror whose list object or length
no longer matches ``elements`` is dropped, and rebuilt by the next commit.
"""
from __future__ import annotations

import operator
import struct

from .errors import BadHeader, Corrupt

MAGIC = b"TCGD"
FORMAT_VERSION = 1
HEADER_LEN = 10  # magic + u16 version + u32 count

_HEADER = struct.Struct("<4sHI")
_ELEMENT_HEAD = struct.Struct("<HI")
_KIND = struct.Struct("<H")
_HASH = struct.Struct("=q")  # one mirror slot: an element's hash(), native byte order

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

    The journal is the one way to change the element list, in place through
    ``append``, ``remove_at`` and ``insert_at``, which keep the hash mirror
    in step with it.  ``revision`` is a monotonically increasing change
    counter, bumped by the journal once per step, that the autosave
    machinery uses to skip ticks when nothing changed.
    """

    def __init__(self, name: str = "", elements: list[ElementPayload] | None = None):
        self.name = name
        self.elements: list[ElementPayload] = list(elements) if elements else []
        self.revision = 0
        self._mirror: bytearray | None = None
        self._mirrored: list[ElementPayload] | None = None  # the list the mirror was built from

    def __len__(self) -> int:
        return len(self.elements)

    def _live_mirror(self) -> bytearray | None:
        """The mirror, or None; a stale one is dropped."""
        mirror = self._mirror
        if mirror is not None and (self._mirrored is not self.elements or len(mirror) != len(self.elements) << 3):
            mirror = self._mirror = self._mirrored = None
        return mirror

    def last_index(self, payload: ElementPayload, build_mirror: bool = False) -> int:
        """Index of the most recently inserted element equal to ``payload``;
        ValueError when there is none.  Searches the hash mirror when there
        is one, building it first if ``build_mirror`` is set, and otherwise
        scans the list from the end in C."""
        mirror = self._live_mirror()
        if mirror is None:
            if not build_mirror:
                elements = self.elements
                return len(elements) - 1 - operator.indexOf(reversed(elements), payload)
            mirror = self._mirror = _packed_hashes(self.elements)
            self._mirrored = self.elements
        return _last_index(mirror, self.elements, payload)

    def append(self, payload: ElementPayload) -> int:
        """Add ``payload`` at the end; returns its index."""
        mirror = self._live_mirror()
        self.elements.append(payload)
        if mirror is not None:
            mirror += _HASH.pack(hash(payload))
        return len(self.elements) - 1

    def remove_at(self, index: int) -> ElementPayload:
        """Remove and return the element at ``index`` (0 <= index < len)."""
        if index < 0:
            raise IndexError("element index out of range")
        mirror = self._live_mirror()
        payload = self.elements.pop(index)
        if mirror is not None:
            del mirror[index << 3 : (index + 1) << 3]
        return payload

    def insert_at(self, index: int, payload: ElementPayload) -> None:
        """Insert ``payload`` so that it lands at ``index`` (0 <= index <= len)."""
        mirror = self._live_mirror()
        self.elements.insert(index, payload)
        if mirror is not None:
            mirror[index << 3 : index << 3] = _HASH.pack(hash(payload))

    def canonical_bytes(self) -> bytes:
        parts = [e[0] for e in self.elements]
        parts.insert(0, _HEADER.pack(MAGIC, FORMAT_VERSION, len(parts)))
        return b"".join(parts)

    @classmethod
    def from_canonical_bytes(cls, data: bytes, name: str = "") -> "Drawing":
        """The drawing ``data`` encodes; raises as validate_drawing does,
        checking each element head in the same walk that builds it."""
        count = _check_header(data)
        unpack_head, head_len, new = _ELEMENT_HEAD.unpack_from, _ELEMENT_HEAD.size, tuple.__new__
        elements = []
        append = elements.append
        n = len(data)
        pos = HEADER_LEN
        for _ in range(count):
            if pos + head_len > n:
                raise Corrupt("truncated element header")
            end = pos + head_len + unpack_head(data, pos)[1]
            if end > n:
                raise Corrupt("truncated element data")
            append(new(ElementPayload, (data[pos:end],)))
            pos = end
        if pos != n:
            raise Corrupt(f"{n - pos} trailing bytes after last element")
        drawing = cls(name=name)
        drawing.elements = elements  # nobody else holds the list: no copy
        return drawing


def _packed_hashes(elements: list[ElementPayload]) -> bytearray:
    """The hash mirror of ``elements``."""
    from array import array  # here, so that commands that build no mirror (cold undo, redo) skip its import

    return bytearray(array("q", map(hash, elements)))


def _last_index(mirror: bytearray, elements: list[ElementPayload], payload: ElementPayload) -> int:
    """Index of the last element equal to ``payload``, found through its
    hash in ``mirror`` (see the module docstring); ValueError when there is
    none.  A hit that is not slot-aligned, or whose element is unequal (a
    hash collision), is skipped and the search goes on to its left."""
    needle = _HASH.pack(hash(payload))
    end = len(mirror)
    while (at := mirror.rfind(needle, 0, end)) >= 0:
        if not at & 7 and elements[at >> 3] == payload:
            return at >> 3
        end = at + 7  # the next hit starts left of this one
    raise ValueError("no equal element")


def _check_header(data: bytes) -> int:
    """The element count of a drawing header; BadHeader for a wrong magic or version."""
    if len(data) < HEADER_LEN or data[:4] != MAGIC:
        raise BadHeader("not a drawing file")
    _, version, count = _HEADER.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise BadHeader(f"unsupported drawing format version {version}")
    return count


def validate_drawing(data: bytes) -> int:
    """Check that ``data`` is a complete drawing, without building its
    elements; returns the element count.  BadHeader for a wrong magic or
    version, Corrupt for a torn or overlong element list."""
    count = _check_header(data)
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
