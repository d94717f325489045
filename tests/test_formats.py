"""Golden-file pinning of the five container layouts (journal, blob log,
envelope, autosave set, session sidecar) and the drawing form.

The expected bytes are frozen hex literals, originally produced by an
independent inline constructor (plain struct + zlib, no engine code); the
constructor lives here too and must keep agreeing with the literals, so a
layout regression has to break two independent encoders to slip through.
"""
import hashlib
import struct
import zlib

from draftvault.autosave import AutosaveConfig, AutosaveSession, probe_recovery, restore
from draftvault.fileio import FileIO
from draftvault.journal import FLAG_ADDED, FLAG_DELETED, Journal, inspect_journal, recover_journal
from draftvault.model import Drawing, ElementPayload
from draftvault.ppversions import PPVersionLog, recover_pp_log
from draftvault.sidecar import SidecarState, read_sidecar, write_sidecar
from draftvault.signatures import SignedEnvelope, encode_envelope, parse_envelope, sign

GOLD_TCGD = (
    "54434744010002000000010004000000706970650200020000000001"
)
GOLD_TCGJ = (
    "5443474a01000100000001010001000000aa6ce2ce810100000001020001000000bb03d896da"
    "0100000002000000000000057f963d0200000000010001000000aa0230fa3a"
    "0200000002000000000000041974a4"
)
GOLD_TCGP = "54434750010002000000aa015d64e5df000000001cdf442103000000ccddeeeade1547"
GOLD_TCGE = (
    "544347450100011c00000054434744010002000000010004000000706970650200020000000001"
    "c76b92fd026000000006006976616e6f7600f1536500000000000102030405060708090a0b0c0d"
    "0e0fa2d32223d06cbbd62f0f17449e75438dca8602b600f32998586168da235c726316feeefb52"
    "d0ac83b24df99c3f053037fd5eb1811bf54882704c7458e2ae55c70e3e022f"
)
GOLD_TCGS = (
    "544347530300120000000101020000000000000001000000000000007e6a700c1c000000"
    "00000000010000000200000001000000000000000100000002000000155fed1508000000"
    "35000000540000007d759bf4"
)
GOLD_SET = (
    "5443474101005c0000000000000000000440021c000000a2d32223d06cbbd62f0f17449e7543"
    "8dca8602b600f32998586168da235c7263020000005a8814ae66ff07179d2c22381da6221f6f"
    "e754e6175c47d7d87846080f0a9715706c616e74372e746367642cb4c08d1c00000054434744"
    "010002000000010004000000706970650200020000000001149416a802000000ccdd83362763"
)

ELEMENTS = [ElementPayload(1, b"pipe"), ElementPayload(2, b"\x00\x01")]


def _crc(data: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(data) & 0xFFFFFFFF)


def test_drawing_layout_pinned():
    assert Drawing(elements=ELEMENTS).canonical_bytes().hex() == GOLD_TCGD
    # independent reconstruction
    raw = b"TCGD" + struct.pack("<H", 1) + struct.pack("<I", 2)
    raw += struct.pack("<HI", 1, 4) + b"pipe" + struct.pack("<HI", 2, 2) + b"\x00\x01"
    assert raw.hex() == GOLD_TCGD


def test_journal_layout_pinned(tmp_path):
    drawing = Drawing()
    journal = Journal.begin_session(drawing, tmp_path / "j")
    journal.commit_step(drawing, [(FLAG_ADDED, ElementPayload(1, b"\xaa")),
                                  (FLAG_ADDED, ElementPayload(2, b"\xbb"))])
    journal.commit_step(drawing, [(FLAG_DELETED, ElementPayload(1, b"\xaa"))])
    journal.close()
    assert (tmp_path / "j").read_bytes().hex() == GOLD_TCGJ

    def rec(step, flag, kind, payload):
        body = struct.pack("<IBHI", step, flag, kind, len(payload)) + payload
        return body + _crc(body)

    raw = b"TCGJ" + struct.pack("<H", 1)
    raw += rec(1, 1, 1, b"\xaa") + rec(1, 1, 2, b"\xbb") + rec(1, 2, 0, b"")
    raw += rec(2, 0, 1, b"\xaa") + rec(2, 2, 0, b"")
    assert raw.hex() == GOLD_TCGJ


def test_pp_log_layout_pinned(tmp_path):
    log = PPVersionLog.create(tmp_path / "p")
    for blob in (b"\xaa\x01", b"", b"\xcc\xdd\xee"):
        log.commit_pp(blob)
    log.close()
    assert (tmp_path / "p").read_bytes().hex() == GOLD_TCGP

    def block(data):
        body = struct.pack("<I", len(data)) + data
        return body + _crc(body)

    raw = b"TCGP" + struct.pack("<H", 1) + block(b"\xaa\x01") + block(b"") + block(b"\xcc\xdd\xee")
    assert raw.hex() == GOLD_TCGP


def test_envelope_layout_pinned():
    env = sign(
        SignedEnvelope(document=bytes.fromhex(GOLD_TCGD)),
        "ivanov", "secret-1", signed_at=1_700_000_000, salt=bytes(range(16)),
    )
    assert encode_envelope(env).hex() == GOLD_TCGE


def test_reencoding_decoded_files_is_byte_identical(tmp_path):
    # journal: parse the golden file back and re-encode it step by step
    (tmp_path / "j").write_bytes(bytes.fromhex(GOLD_TCGJ))
    journal, truncated = recover_journal(tmp_path / "j")
    assert not truncated
    drawing = Drawing()
    replay = Journal.begin_session(drawing, tmp_path / "j2", FileIO())
    for step in journal.steps:
        replay.commit_step(drawing, step.changes)
    replay.close()
    assert (tmp_path / "j2").read_bytes().hex() == GOLD_TCGJ

    # pp log
    (tmp_path / "p").write_bytes(bytes.fromhex(GOLD_TCGP))
    log, truncated = recover_pp_log(tmp_path / "p")
    assert not truncated
    relog = PPVersionLog.create(tmp_path / "p2")
    for blob in log.versions:
        relog.commit_pp(blob)
    relog.close()
    assert (tmp_path / "p2").read_bytes().hex() == GOLD_TCGP

    # envelope
    env = parse_envelope(bytes.fromhex(GOLD_TCGE))
    assert encode_envelope(env).hex() == GOLD_TCGE

    # drawing
    again = Drawing.from_canonical_bytes(bytes.fromhex(GOLD_TCGD))
    assert again.canonical_bytes().hex() == GOLD_TCGD


def test_inspect_journal_of_golden(tmp_path):
    (tmp_path / "j").write_bytes(bytes.fromhex(GOLD_TCGJ))
    journal, truncated = inspect_journal(tmp_path / "j")
    assert not truncated
    assert [s.step_no for s in journal.steps] == [1, 2]
    assert journal.steps[0].changes == [
        (FLAG_ADDED, ElementPayload(1, b"\xaa")),
        (FLAG_ADDED, ElementPayload(2, b"\xbb")),
    ]
    assert journal.steps[1].changes == [(FLAG_DELETED, ElementPayload(1, b"\xaa"))]


def test_sidecar_layout_pinned(tmp_path):
    """``TCGS`` version 3: the cursor frame, the positions stack of
    ``GOLD_TCGJ``'s two steps, and its step index (its steps end at 53 and
    84)."""
    (tmp_path / "j").write_bytes(bytes.fromhex(GOLD_TCGJ))
    journal, _ = inspect_journal(tmp_path / "j")
    assert journal.index == struct.pack("<II", 53, 84)
    state = SidecarState(journal_cursor=2, pp_cursor=1, positions={2: [0], 1: [0, 1]}, index=journal.index)
    write_sidecar(tmp_path / "s", state, FileIO())
    assert (tmp_path / "s").read_bytes().hex() == GOLD_TCGS

    def frame(payload):
        body = struct.pack("<I", len(payload)) + payload
        return body + _crc(body)

    cursors = struct.pack("<BBqq", 1, 1, 2, 1)  # both present, journal 2, pp 1
    # oldest step first, each entry its positions, then u32 count | u32 step_no
    positions = struct.pack("<IIII", 0, 1, 2, 1) + struct.pack("<III", 0, 1, 2)
    step_index = struct.pack("<II", 53, 84)
    raw = b"TCGS" + struct.pack("<H", 3) + frame(cursors) + frame(positions) + frame(step_index)
    assert raw.hex() == GOLD_TCGS

    back = read_sidecar(tmp_path / "s")
    assert (back.journal_cursor, back.pp_cursor, back.positions, back.index) == (2, 1, positions, step_index)
    write_sidecar(tmp_path / "s", SidecarState(journal_cursor=-1), FileIO())
    assert (tmp_path / "s").read_bytes()[-16:] == frame(b"") * 2  # no positions, no index: empty frames
    back = read_sidecar(tmp_path / "s")  # an absent cursor is not 0, a negative one stays
    assert (back.journal_cursor, back.pp_cursor, back.positions, back.index) == (-1, None, b"", b"")
    v2_positions = struct.pack("<IIII", 1, 2, 0, 1) + struct.pack("<III", 2, 1, 0)
    v2_index = bytes.fromhex(GOLD_TCGJ)[-4:] + step_index  # led by the last commit frame's CRC
    (tmp_path / "s").write_bytes(b"TCGS" + struct.pack("<H", 2) + frame(cursors) + frame(v2_positions)
                                 + frame(v2_index))
    assert read_sidecar(tmp_path / "s").journal_cursor is None  # version 2 reads as missing
    (tmp_path / "s").write_bytes(b"TCGS" + struct.pack("<H", 1) + frame(cursors) + frame(v2_positions))
    assert read_sidecar(tmp_path / "s").journal_cursor is None  # and so does version 1


def test_autosave_set_layout_pinned(tmp_path):
    drawing = Drawing(elements=ELEMENTS)
    session = AutosaveSession("plant7.tcgd", drawing, AutosaveConfig(1.0, tmp_path),
                              FileIO())
    session.set_current_pp(b"\xcc\xdd")
    assert session.autosave_tick(2.5) is not None
    assert (tmp_path / "plant7.tcgd.autosave.set").read_bytes().hex() == GOLD_SET

    def frame(payload):
        body = struct.pack("<I", len(payload)) + payload
        return body + _crc(body)

    tcgd, blob = bytes.fromhex(GOLD_TCGD), b"\xcc\xdd"
    meta = struct.pack("<dB", 2.5, 2)
    meta += struct.pack("<I", len(tcgd)) + hashlib.sha256(tcgd).digest()
    meta += struct.pack("<I", len(blob)) + hashlib.sha256(blob).digest()
    meta += b"plant7.tcgd"
    raw = b"TCGA" + struct.pack("<H", 1) + frame(meta) + frame(tcgd) + frame(blob)
    assert raw.hex() == GOLD_SET

    aset = probe_recovery(tmp_path, "plant7.tcgd")
    assert aset is not None
    assert (aset.created_at, aset.drawing_size, aset.pp_size) == (2.5, 28, 2)
    assert aset.drawing_sha == "a2d32223d06cbbd62f0f17449e75438dca8602b600f32998586168da235c7263"
    restored, pp = restore(aset)
    assert restored.canonical_bytes().hex() == GOLD_TCGD and pp == blob
