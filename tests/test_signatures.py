import hashlib
import hmac as hmac_mod
import struct
import zlib

import pytest

from draftvault.errors import (
    Corrupt,
    DocumentFrozen,
    DuplicateSigner,
    NoSuchSigner,
    WeakPassword,
)
from draftvault.model import Drawing, ElementPayload
from draftvault.signatures import (
    AuthResult,
    EditGuard,
    IntegrityStatus,
    SignedEnvelope,
    append_audit,
    authenticate_signature,
    encode_envelope,
    guard_edit,
    load_document,
    parse_envelope,
    remove_signature,
    save_document,
    sign,
    verify_integrity,
)

SALT = bytes(range(16))
DOC = Drawing(elements=[ElementPayload(1, b"pipe"), ElementPayload(2, b"valve")]).canonical_bytes()


def signed_env(doc=DOC, signer="ivanov", password="pw-1", at=1000):
    return sign(SignedEnvelope(document=doc), signer, password, signed_at=at, salt=SALT)


def test_sign_freezes_document():
    env = SignedEnvelope(document=DOC)
    assert guard_edit(env) is EditGuard.ALLOWED
    env = signed_env()
    assert guard_edit(env) is EditGuard.LOCKED
    assert env.document == DOC  # untouched bytes


def test_second_signer_keeps_independent_records():
    env = signed_env()
    env = sign(env, "petrov", "pw-2", signed_at=2000, salt=bytes(range(16, 32)))
    assert env.signer_ids() == ["ivanov", "petrov"]
    assert env.signatures[0].salt != env.signatures[1].salt
    assert guard_edit(env) is EditGuard.LOCKED


def test_duplicate_signer_rejected():
    env = signed_env()
    with pytest.raises(DuplicateSigner):
        sign(env, "ivanov", "other", signed_at=3000, salt=SALT)


def test_salt_reuse_across_records_rejected():
    env = signed_env()
    with pytest.raises(ValueError):
        sign(env, "petrov", "pw-2", signed_at=2000, salt=SALT)


def test_empty_password_rejected():
    with pytest.raises(WeakPassword):
        sign(SignedEnvelope(document=DOC), "ivanov", "", signed_at=0, salt=SALT)


def test_tag_construction_matches_independent_recomputation():
    env = signed_env()
    record = env.signatures[0]
    digest = hashlib.sha256(DOC).digest()
    key = hashlib.pbkdf2_hmac("sha256", b"pw-1", SALT, 100_000, dklen=32)
    expected = hmac_mod.new(
        key, digest + b"ivanov" + struct.pack("<Q", 1000), hashlib.sha256
    ).digest()
    assert record.doc_digest == digest
    assert record.auth_tag == expected


def test_frozen_golden_tag_vector():
    doc = bytes.fromhex("54434744010000000000")
    env = sign(SignedEnvelope(document=doc), "ivanov", "secret-1",
               signed_at=1_700_000_000, salt=SALT)
    record = env.signatures[0]
    assert record.doc_digest.hex() == "84aade58ba780b7697ce56cc33c5802b9a6bb9035c73ce95d659b806270f05c9"
    assert record.auth_tag.hex() == "d9778fc5a22138c4af757ab321325a4b4c031f30618a90a700dd21245e088706"


def test_verify_intact_and_unsigned():
    assert verify_integrity(SignedEnvelope(document=DOC)) == []
    env = signed_env()
    env = sign(env, "petrov", "pw-2", signed_at=2000, salt=bytes(range(16, 32)))
    assert verify_integrity(env) == [
        ("ivanov", IntegrityStatus.INTACT),
        ("petrov", IntegrityStatus.INTACT),
    ]


def test_every_single_byte_flip_is_detected():
    env = signed_env()
    for offset in range(len(DOC)):
        for mask in (0x01, 0x80):
            mutated = bytearray(DOC)
            mutated[offset] ^= mask
            tampered = SignedEnvelope(document=bytes(mutated), signatures=env.signatures)
            assert all(
                status is IntegrityStatus.CONTENT_CHANGED
                for _, status in verify_integrity(tampered)
            )


def test_authenticate_outcomes():
    env = signed_env()
    assert authenticate_signature(env, "ivanov", "pw-1") is AuthResult.AUTHENTIC
    assert authenticate_signature(env, "ivanov", "pw-wrong") is AuthResult.BAD_PASSWORD
    assert authenticate_signature(env, "ghost", "pw-1") is AuthResult.NO_SUCH_SIGNER


def test_authentication_is_deterministic():
    results = {authenticate_signature(signed_env(), "ivanov", "pw-wrong") for _ in range(3)}
    assert results == {AuthResult.BAD_PASSWORD}
    tags = {signed_env().signatures[0].auth_tag for _ in range(3)}
    assert len(tags) == 1


def test_remove_signature_requires_no_password():
    env = signed_env()
    env = remove_signature(env, "ivanov")
    assert env.signatures == ()
    assert guard_edit(env) is EditGuard.ALLOWED


def test_remove_one_of_two_keeps_freeze():
    env = signed_env()
    env = sign(env, "petrov", "pw-2", signed_at=2000, salt=bytes(range(16, 32)))
    env = remove_signature(env, "ivanov")
    assert guard_edit(env) is EditGuard.LOCKED


def test_remove_absent_signer():
    with pytest.raises(NoSuchSigner):
        remove_signature(signed_env(), "ghost")


def test_sign_then_remove_never_touches_document_bytes():
    env = SignedEnvelope(document=DOC)
    env2 = sign(env, "a", "pw", signed_at=1, salt=SALT)
    env3 = remove_signature(env2, "a")
    assert env.document == env2.document == env3.document == DOC


# -- envelope serialization ---------------------------------------------------


def test_envelope_round_trip():
    env = signed_env()
    env = sign(env, "petrov", "pw-2", signed_at=2000, salt=bytes(range(16, 32)))
    parsed = parse_envelope(encode_envelope(env))
    assert parsed == env
    assert encode_envelope(parsed) == encode_envelope(env)


def test_envelope_rejects_trailing_garbage():
    data = encode_envelope(signed_env())
    with pytest.raises(Corrupt):
        parse_envelope(data + b"\x00")
    with pytest.raises(Corrupt):
        parse_envelope(data[:-1])


def _section(stype: int, value: bytes) -> bytes:
    body = struct.pack("<BI", stype, len(value)) + value
    return body + struct.pack("<I", zlib.crc32(body))


def envelope_with_raw_signer(signer: bytes) -> bytes:
    """An envelope whose sections all pass their CRC but whose signature
    carries ``signer`` as raw bytes."""
    record = struct.pack("<H", len(signer)) + signer + struct.pack("<Q16s32s32s", 1000, SALT, bytes(32), bytes(32))
    return b"TCGE\x01\x00" + _section(0x01, DOC) + _section(0x02, record)


def test_envelope_rejects_signer_that_is_not_utf8():
    with pytest.raises(Corrupt):
        parse_envelope(envelope_with_raw_signer(b"iv\xffnov"))


# -- documents on disk --------------------------------------------------------


def test_unsigned_document_stored_as_bare_drawing(tmp_path):
    path = tmp_path / "d.tcgd"
    save_document(path, SignedEnvelope(document=DOC))
    assert path.read_bytes() == DOC
    assert load_document(path) == SignedEnvelope(document=DOC)


def test_signed_document_stored_as_envelope(tmp_path):
    path = tmp_path / "d.tcgd"
    save_document(path, SignedEnvelope(document=DOC))
    env = signed_env()
    save_document(path, env)
    assert path.read_bytes()[:4] == b"TCGE"
    assert load_document(path) == env


def test_save_rejects_content_change_while_signed(tmp_path):
    path = tmp_path / "d.tcgd"
    save_document(path, signed_env())
    other = Drawing(elements=[ElementPayload(9, b"tampered")]).canonical_bytes()
    before = path.read_bytes()
    with pytest.raises(DocumentFrozen):
        save_document(path, SignedEnvelope(document=other))
    with pytest.raises(DocumentFrozen):
        save_document(path, sign(SignedEnvelope(document=other), "x", "pw", signed_at=5, salt=SALT))
    assert path.read_bytes() == before  # rejected attempts leave bytes intact


def test_save_allows_signature_changes_and_unfreezing(tmp_path):
    path = tmp_path / "d.tcgd"
    env = signed_env()
    save_document(path, env)
    env = sign(env, "petrov", "pw-2", signed_at=2000, salt=bytes(range(16, 32)))
    save_document(path, env)  # same document bytes: allowed
    env = remove_signature(remove_signature(env, "ivanov"), "petrov")
    save_document(path, env)
    assert path.read_bytes() == DOC  # back to a bare, editable drawing
    other = Drawing(elements=[ElementPayload(9, b"edit")]).canonical_bytes()
    save_document(path, SignedEnvelope(document=other))  # remove-then-edit works
    assert path.read_bytes() == other


def test_audit_log_appends(tmp_path):
    siglog = tmp_path / "d.tcgd.siglog"
    append_audit(siglog, "2026-08-08T10:00:00Z", "ivanov", 1)
    append_audit(siglog, "2026-08-08T10:05:00Z", "petrov", 0)
    lines = siglog.read_text().splitlines()
    assert len(lines) == 2
    assert "UNSIGNED" in lines[0] and "signer=ivanov" in lines[0] and "remaining=1" in lines[0]
    assert "signer=petrov" in lines[1] and "remaining=0" in lines[1]


def test_salt_env_override():
    first = sign(SignedEnvelope(document=DOC), "x", "pw", signed_at=7)
    second = sign(SignedEnvelope(document=DOC), "x", "pw", signed_at=7)
    assert first.signatures[0].salt != second.signatures[0].salt  # urandom salts
