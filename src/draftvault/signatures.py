"""Electronic signatures that freeze a document.

A signature does not encrypt anything: it is an integrity record.  While
at least one signature is present, every mutation of the document is
rejected, so the signed content is guaranteed to be what the signer saw.
Signatures are protected by personal passwords for authentication, but
anyone may remove one - removal is deliberately unprotected and leaves a
line in a plaintext audit log, so a drawing that lost its signatures is
visibly unsigned.

Construction: doc_digest = SHA-256 of the document bytes; auth_tag =
HMAC-SHA-256 over doc_digest || signer_id || signed_at, keyed by
PBKDF2-HMAC-SHA256(password, per-record 16-byte salt, 100000 iterations).

Envelope file layout: the ``framelog`` container (magic "TCGE", u16
version, CRC-32 per frame) with one frame per section, little-endian:

    u8 type | u32 len | value | u32 crc

Section 0x01 (exactly one, first) carries the document bytes; each 0x02
section is one signature record:

    u16 signer_len | signer utf-8 | u64 signed_at | salt[16] |
    doc_digest[32] | auth_tag[32]

An unsigned document is stored as a bare drawing file; the envelope form
appears once the first signature is added.
"""
from __future__ import annotations

import os
import struct
from collections import namedtuple

from .errors import (
    BadHeader,
    Corrupt,
    DocumentFrozen,
    DuplicateSigner,
    NoSuchSigner,
    WeakPassword,
)
from . import framelog
from . import model
from .fileio import FileIO

MAGIC = b"TCGE"
VERSION = 1
HEADER = framelog.header(MAGIC, VERSION)

SECTION_DOCUMENT = 0x01
SECTION_SIGNATURE = 0x02

PBKDF2_ITERATIONS = 100_000
SALT_LEN = 16
DIGEST_LEN = 32
TAG_LEN = 32

_SECTION_HEAD = struct.Struct("<BI")
_SIG_FIXED = struct.Struct("<Q16s32s32s")


class _Outcome:
    """A closed set of named outcomes, compared by identity, as an
    ``enum.Enum`` would give them without loading ``enum`` on the cold
    path: each upper-case class attribute of a subclass becomes an
    instance of it with that ``name`` and the given ``value``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str):
        self.name, self.value = name, value

    def __init_subclass__(cls):
        for name, value in list(vars(cls).items()):
            if name.isupper():
                setattr(cls, name, cls(name, value))

    def __repr__(self) -> str:
        return f"<{type(self).__name__}.{self.name}: {self.value!r}>"


class EditGuard(_Outcome):
    ALLOWED = "allowed"
    LOCKED = "locked"


class IntegrityStatus(_Outcome):
    INTACT = "intact"
    CONTENT_CHANGED = "content-changed"


class AuthResult(_Outcome):
    AUTHENTIC = "authentic"
    BAD_PASSWORD = "bad-password"
    NO_SUCH_SIGNER = "no-such-signer"


class SignatureRecord(namedtuple("SignatureRecord", "signer_id signed_at salt doc_digest auth_tag")):
    __slots__ = ()


class SignedEnvelope(namedtuple("SignedEnvelope", "document signatures", defaults=((),))):
    """Document bytes plus a tuple of zero or more signature records;
    value-like."""

    __slots__ = ()

    def signer_ids(self) -> list[str]:
        return [record.signer_id for record in self.signatures]


# ``hashlib`` and ``hmac`` are imported by the calls that take a digest,
# so that a command that takes none (undo, redo, history, pp, unsign)
# loads no OpenSSL.


def _compute_tag(password: str, salt: bytes, doc_digest: bytes, signer_id: str, signed_at: int) -> bytes:
    import hashlib
    import hmac

    key = hashlib.pbkdf2_hmac("sha256", password.encode(), salt, PBKDF2_ITERATIONS, dklen=32)
    message = doc_digest + signer_id.encode() + struct.pack("<Q", signed_at)
    return hmac.new(key, message, hashlib.sha256).digest()


def sign(
    env: SignedEnvelope,
    signer_id: str,
    password: str,
    signed_at: int,
    salt: bytes | None = None,
) -> SignedEnvelope:
    """Add a signature over the current document bytes.

    The document itself is untouched; from now on (or still) every edit is
    rejected until all signatures are removed.  The salt is 16 fresh bytes
    from ``os.urandom`` unless the caller passes one.
    """
    import hashlib

    if not password:
        raise WeakPassword("empty password")
    if not signer_id:
        raise ValueError("signer id must be non-empty")
    if signer_id in env.signer_ids():
        raise DuplicateSigner(f"{signer_id!r} already signed this document")
    if salt is None:
        salt = os.urandom(SALT_LEN)
    if len(salt) != SALT_LEN:
        raise ValueError(f"salt must be {SALT_LEN} bytes")
    if any(record.salt == salt for record in env.signatures):
        raise ValueError("salt already used by another signature on this document")
    doc_digest = hashlib.sha256(env.document).digest()
    tag = _compute_tag(password, salt, doc_digest, signer_id, signed_at)
    record = SignatureRecord(signer_id, signed_at, salt, doc_digest, tag)
    return env._replace(signatures=env.signatures + (record,))


def guard_edit(env: SignedEnvelope) -> EditGuard:
    """LOCKED while at least one signature is present; consulted by every
    mutating path before it touches document bytes."""
    return EditGuard.LOCKED if env.signatures else EditGuard.ALLOWED


def verify_integrity(env: SignedEnvelope) -> list[tuple[str, IntegrityStatus]]:
    """Per-signature check that the document still matches what was signed.
    Needs no passwords."""
    import hashlib

    current = hashlib.sha256(env.document).digest()
    return [
        (
            record.signer_id,
            IntegrityStatus.INTACT if record.doc_digest == current else IntegrityStatus.CONTENT_CHANGED,
        )
        for record in env.signatures
    ]


def authenticate_signature(env: SignedEnvelope, signer_id: str, password: str) -> AuthResult:
    """Check a password against a signature record; outcomes are values."""
    import hmac

    for record in env.signatures:
        if record.signer_id == signer_id:
            tag = _compute_tag(password, record.salt, record.doc_digest, record.signer_id, record.signed_at)
            if hmac.compare_digest(tag, record.auth_tag):
                return AuthResult.AUTHENTIC
            return AuthResult.BAD_PASSWORD
    return AuthResult.NO_SUCH_SIGNER


def remove_signature(env: SignedEnvelope, signer_id: str) -> SignedEnvelope:
    """Remove a signature; no password required, by design.

    The caller appends the removal to the document's audit log so the
    removal stays visible.
    """
    kept = tuple(r for r in env.signatures if r.signer_id != signer_id)
    if len(kept) == len(env.signatures):
        raise NoSuchSigner(f"{signer_id!r} has not signed this document")
    return env._replace(signatures=kept)


# -- envelope serialization -------------------------------------------------


def _encode_signature(record: SignatureRecord) -> bytes:
    signer = record.signer_id.encode()
    return (
        struct.pack("<H", len(signer))
        + signer
        + _SIG_FIXED.pack(record.signed_at, record.salt, record.doc_digest, record.auth_tag)
    )


def _decode_signature(value: bytes) -> SignatureRecord:
    if len(value) < 2:
        raise Corrupt("signature section too short")
    (signer_len,) = struct.unpack_from("<H", value, 0)
    fixed_at = 2 + signer_len
    if len(value) != fixed_at + _SIG_FIXED.size:
        raise Corrupt("signature section has wrong length")
    try:
        signer = value[2:fixed_at].decode()
    except UnicodeDecodeError as exc:
        raise Corrupt(f"signer id is not valid UTF-8: {exc}") from exc
    signed_at, salt, digest, tag = _SIG_FIXED.unpack_from(value, fixed_at)
    return SignatureRecord(signer, signed_at, salt, digest, tag)


def encode_envelope(env: SignedEnvelope) -> bytes:
    parts = [HEADER, *framelog.frame_parts(_SECTION_HEAD, env.document, SECTION_DOCUMENT)]
    parts.extend(
        framelog.encode_frame(_SECTION_HEAD, _encode_signature(r), SECTION_SIGNATURE) for r in env.signatures
    )
    return b"".join(parts)


def parse_envelope(data: bytes) -> SignedEnvelope:
    sections = framelog.read_frames(data, HEADER, _SECTION_HEAD)
    if not sections or sections[0][0][0] != SECTION_DOCUMENT:
        raise Corrupt("envelope must start with a document section")
    document = sections[0][1]
    signatures = []
    for (stype, _), value in sections[1:]:
        if stype != SECTION_SIGNATURE:
            raise Corrupt(f"unexpected envelope section type 0x{stype:02x}")
        signatures.append(_decode_signature(value))
    return SignedEnvelope(document, tuple(signatures))


# -- documents on disk --------------------------------------------------------


def _read_document(path: str | os.PathLike, io: FileIO) -> tuple[SignedEnvelope, bool]:
    """Read a document file once: its envelope, and whether the file is a
    bare drawing whose structure is still unchecked.  BadHeader for any
    other magic."""
    data = io.read_bytes(path)
    if data[:4] == MAGIC:
        return parse_envelope(data), False
    if data[:4] == model.MAGIC:
        return SignedEnvelope(document=data), True
    raise BadHeader(f"{path} is neither a drawing nor an envelope")


def load_document(path: str | os.PathLike, io: FileIO | None = None) -> SignedEnvelope:
    """Read a document file: a bare drawing is an unsigned envelope, an
    envelope file carries its signatures along."""
    env, bare = _read_document(path, io or FileIO())
    if bare:
        model.validate_drawing(env.document)
    return env


def load_editable(path: str | os.PathLike, io: FileIO | None = None) -> model.Drawing:
    """Open a document for editing: its drawing, named after the file, or
    an empty one if the file does not exist yet.  Raises DocumentFrozen
    while the document is signed, Corrupt or BadHeader when it is damaged."""
    try:
        env, _ = _read_document(path, io or FileIO())
    except FileNotFoundError:
        return model.Drawing(name=os.path.splitext(os.path.basename(path))[0])
    if guard_edit(env) is EditGuard.LOCKED:
        raise DocumentFrozen(f"{path} is signed; remove all signatures to edit it")
    return model.Drawing.from_canonical_bytes(env.document, name=os.path.splitext(os.path.basename(path))[0])


def save_document(path: str | os.PathLike, env: SignedEnvelope, io: FileIO | None = None) -> None:
    """Persist a document, enforcing the freeze.

    This is the single choke point through which document bytes reach
    disk: if the file currently holds a signed envelope, the incoming
    document bytes must be identical (signature records may still be
    added or removed).  Unsigned envelopes are stored as bare drawings.

    The file being replaced is read and its structure validated again
    here, even when the caller opened it with load_editable moments
    before: a single flipped bit turns the ``TCGE`` magic into ``TCGD``,
    and only validating the result as a drawing (which fails) keeps a
    damaged signed envelope from being overwritten as if it were unsigned.
    """
    io = io or FileIO()
    if io.exists(path):
        existing = load_document(path, io)
        if existing.signatures and env.document != existing.document:
            raise DocumentFrozen(f"{path} is signed; remove all signatures to edit it")
    if env.signatures:
        io.write_atomic(path, encode_envelope(env))
    else:
        io.write_atomic(path, env.document)


def append_audit(siglog: str | os.PathLike, when: str, signer_id: str, remaining: int,
                 io: FileIO | None = None) -> None:
    """Record a signature removal in the plaintext audit log."""
    io = io or FileIO()
    line = f"{when}\tUNSIGNED\tsigner={signer_id}\tremaining={remaining}\n"
    io.append(siglog, line.encode())
