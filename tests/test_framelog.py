"""Properties of the shared frame scanner over all three container formats,
and of the logs that decode their entries from it lazily.

The byte streams are built here with plain struct + zlib, independent of
the engine's encoders.
"""
import contextlib
import hashlib
import io
import random
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from draftvault.autosave import AutosaveConfig, AutosaveSession, probe_recovery
from draftvault.cli import parse_args
from draftvault.errors import BadHeader, Corrupt
from draftvault.framelog import CRC_LEN, HEADER_LEN, encode_frame, header, read_frames, scan_frames
from draftvault.journal import FLAG_ADDED, index_journal, inspect_journal, pack_positions
from draftvault.model import Drawing, ElementPayload
from draftvault.ppversions import PPVersionLog, recover_pp_log
from draftvault.sidecar import SidecarState, read_sidecar, write_sidecar
from draftvault.signatures import SignatureRecord, SignedEnvelope, encode_envelope, parse_envelope

V1 = struct.pack("<H", 1)  # the version of every format here
HEADS = {b"TCGJ": struct.Struct("<IBHI"), b"TCGP": struct.Struct("<I"), b"TCGE": struct.Struct("<BI")}


def _frame(fmt: str, *fields_then_payload) -> bytes:
    *fields, payload = fields_then_payload
    body = struct.pack(fmt, *fields, len(payload)) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _journal_bytes(rng: random.Random) -> bytes:
    out = [b"TCGJ\x01\x00"]
    for step_no in range(1, rng.randint(1, 8)):
        for _ in range(rng.randint(1, 4)):
            out.append(_frame("<IBHI", step_no, rng.randint(0, 1), rng.randrange(16), rng.randbytes(rng.randrange(20))))
        out.append(_frame("<IBHI", step_no, 2, 0, b""))
    return b"".join(out)


def _blocks_bytes(rng: random.Random) -> bytes:
    return b"TCGP\x01\x00" + b"".join(_frame("<I", rng.randbytes(rng.randrange(30))) for _ in range(rng.randint(0, 6)))


def _sections_bytes(rng: random.Random) -> bytes:
    return b"TCGE\x01\x00" + b"".join(
        _frame("<BI", rng.randint(1, 2), rng.randbytes(rng.randrange(30))) for _ in range(rng.randint(0, 6))
    )


STREAMS = {b"TCGJ": _journal_bytes, b"TCGP": _blocks_bytes, b"TCGE": _sections_bytes}
FORMATS = pytest.mark.parametrize("magic", list(STREAMS), ids=["journal", "blocks", "sections"])


def _prefix(data: bytes, magic: bytes) -> tuple[list[tuple[tuple, bytes]], int]:
    """The intact frames of ``data`` as ``(fields, payload)``, and the
    offset where they end."""
    frames, valid_end = [], HEADER_LEN
    for fields, start, valid_end in scan_frames(data, magic + V1, HEADS[magic]):
        frames.append((fields, data[start : valid_end - CRC_LEN]))
    return frames, valid_end


@FORMATS
@given(seed=st.integers(0, 2**32 - 1), cut=st.integers(0, 400))
@settings(max_examples=100, deadline=None)
def test_scan_of_a_cut_is_a_prefix_of_the_full_scan(magic, seed, cut):
    data = STREAMS[magic](random.Random(seed))
    cut = HEADER_LEN + cut % (len(data) - HEADER_LEN + 1)
    full, full_end = _prefix(data, magic)
    part, part_end = _prefix(data[:cut], magic)
    assert part == full[: len(part)]
    assert part_end <= cut and part_end <= full_end
    head = HEADS[magic]
    assert list(scan_frames(data, magic + V1, head, cut)) == list(scan_frames(data[:cut], magic + V1, head))
    if cut == len(data):
        assert part_end == len(data)


@FORMATS
@given(seed=st.integers(0, 2**32 - 1), flip=st.integers(HEADER_LEN, 400))
@settings(max_examples=100, deadline=None)
def test_a_flipped_byte_yields_no_frame_past_it(magic, seed, flip):
    data = STREAMS[magic](random.Random(seed))
    if flip >= len(data):
        return
    mutated = bytearray(data)
    mutated[flip] ^= 0xFF
    frames, valid_end = _prefix(bytes(mutated), magic)
    assert valid_end <= flip
    assert frames == _prefix(data, magic)[0][: len(frames)]


@FORMATS
def test_bad_magic_wrong_version_and_short_header_raise_bad_header(magic):
    for bad in (b"WRNG\x01\x00", magic + b"\x02\x00", magic + b"\x01", magic[:3], b""):
        with pytest.raises(BadHeader):
            scan_frames(bad, magic + V1, HEADS[magic])
    good = STREAMS[magic](random.Random(3))
    for cut in range(HEADER_LEN):  # a cut inside the header is a torn header
        with pytest.raises(BadHeader):
            scan_frames(good, magic + V1, HEADS[magic], cut)


def test_each_format_checks_its_own_version():
    """A scanner accepts only the version of the header it is given: a
    format can move to version 2 while the others stay at 1."""
    v2 = header(b"TCGP", 2) + _frame("<I", b"blob")
    assert header(b"TCGP", 2) == b"TCGP" + struct.pack("<H", 2)
    assert read_frames(v2, header(b"TCGP", 2), HEADS[b"TCGP"]) == [((4,), b"blob")]
    with pytest.raises(BadHeader, match="version 2"):
        scan_frames(v2, header(b"TCGP", 1), HEADS[b"TCGP"])
    with pytest.raises(BadHeader, match="version 1"):
        scan_frames(b"TCGP" + V1, header(b"TCGP", 2), HEADS[b"TCGP"])


@given(payload=st.binary(max_size=64), fields=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 255),
                                                        st.integers(0, 2**16 - 1)))
def test_encode_frame_matches_an_independent_encoder(payload, fields):
    assert encode_frame(HEADS[b"TCGJ"], payload, *fields) == _frame("<IBHI", *fields, payload)
    assert encode_frame(HEADS[b"TCGP"], payload) == _frame("<I", payload)


def test_format_parsers_reject_bad_headers(tmp_path):
    for bad in (b"WRNG\x01\x00", b"TCGJ\x02\x00", b"TCG"):
        with pytest.raises(BadHeader):
            index_journal(bad)
        with pytest.raises(BadHeader):
            index_journal(bad, len(bad))
    for bad in (b"WRNG\x01\x00", b"TCGE\x02\x00", b"TCGE\x01"):
        with pytest.raises(BadHeader):
            parse_envelope(bad)
    for bad in (b"WRNG\x01\x00", b"TCGP\x02\x00", b"TCGP"):
        (tmp_path / "p").write_bytes(bad)
        with pytest.raises(BadHeader):
            recover_pp_log(tmp_path / "p")


def _indexed(result) -> tuple:
    """What ``index_journal`` found, with each step as its number, frame-head
    figures and decoded records."""
    steps, ends, valid_end = result
    return [(s.step_no, s.figures, s.changes) for s in steps], ends, valid_end


@given(seed=st.integers(0, 2**32 - 1), flip=st.integers(-1, 400))
@settings(max_examples=100, deadline=None)
def test_journal_validator_agrees_with_parse_at_strided_cuts(seed, flip):
    data = _journal_bytes(random.Random(seed))
    if HEADER_LEN <= flip < len(data):
        mutated = bytearray(data)
        mutated[flip] ^= 0xFF
        data = bytes(mutated)
    for cut in list(range(HEADER_LEN, len(data), 7)) + [len(data)]:
        steps, ends, valid_end = index_journal(data[:cut])
        assert _indexed(index_journal(data, cut)) == _indexed((steps, ends, valid_end))
        assert _indexed(index_journal(data[:cut], cut)) == _indexed((steps, ends, valid_end))


def _flipped(data: bytes, flip: int) -> bytes:
    if not HEADER_LEN <= flip < len(data):
        return data
    mutated = bytearray(data)
    mutated[flip] ^= 0xFF
    return bytes(mutated)


def _history_from_decoded(steps, cursor, torn: bool) -> str:
    """What ``history`` prints, computed from fully decoded steps; a cursor
    past them marks none."""
    lines = []
    for step in steps:
        added = sum(1 for flag, _ in step.changes if flag == FLAG_ADDED)
        deleted = len(step.changes) - added
        size = sum(len(p.data) for _, p in step.changes)
        marker = "  <- cursor" if step.step_no == cursor else ""
        lines.append(f"step {step.step_no}: +{added} -{deleted} ({size} payload bytes){marker}")
    if cursor == 0:
        lines.append("cursor at session start")
    elif cursor > len(steps):
        lines.append(f"cursor {cursor} is past the {len(steps)} intact step(s)")
    lines.append(f"{len(steps)} step(s) in session journal" + (" (torn tail ignored)" if torn else ""))
    return "\n".join(lines) + "\n"


@given(seed=st.integers(0, 2**32 - 1), flip=st.integers(-1, 400), cursor=st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_lazy_journal_steps_agree_with_eager_decoding(seed, flip, cursor):
    """At strided cuts, steps indexed from a file and decoded on first use
    equal the same steps all decoded at once, their frame-head figures
    equal the counts of the decoded records, and ``history`` prints what
    the decoded steps say."""
    data = _flipped(_journal_bytes(random.Random(seed)), flip)
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "d.tcgd"
        journal_path = Path(tmp) / "d.tcgd.journal"
        write_sidecar(Path(tmp) / "d.tcgd.session", SidecarState(journal_cursor=cursor))
        history = parse_args(["history", str(doc)])
        for cut in list(range(HEADER_LEN, len(data), 7)) + [len(data)]:
            eager, _, valid_end = index_journal(data[:cut])
            for step in eager:
                step.changes  # decodes every step before the lazy journal is read
            journal_path.write_bytes(data[:cut])
            lazy, torn = inspect_journal(journal_path)
            assert torn == (valid_end < cut)
            assert lazy._prefix_end(lazy.step_count) == valid_end
            assert [s.step_no for s in lazy.steps] == [s.step_no for s in eager]
            for mine, theirs in zip(lazy.steps, eager):
                records = theirs.changes
                assert mine.figures == (len(records), sum(1 for flag, _ in records if flag == FLAG_ADDED),
                                        sum(len(p.data) for _, p in records))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert history.func(history) == 0
            assert out.getvalue() == _history_from_decoded(eager, cursor, torn)
            for mine, theirs in zip(lazy.steps, eager):
                assert mine.changes == theirs.changes


@given(seed=st.integers(0, 2**32 - 1), flip=st.integers(-1, 400))
@settings(max_examples=60, deadline=None)
def test_lazy_blobs_agree_with_read_frames(seed, flip):
    """At strided cuts, each blob a reopened log slices out on demand equals
    the one the frame scanner gives, in any order of access."""
    data = _flipped(_blocks_bytes(random.Random(seed)), flip)
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.tcgd.pp"
        for cut in list(range(HEADER_LEN, len(data), 7)) + [len(data)]:
            frames, _ = _prefix(data[:cut], b"TCGP")
            blobs = [blob for _, blob in frames]
            path.write_bytes(data[:cut])
            log = PPVersionLog.open(path)
            try:
                assert log.version_count == len(blobs)
                for target in rng.sample(range(1, len(blobs) + 1), len(blobs)):
                    assert log.jump_pp(target) == blobs[target - 1]
                assert log.versions == blobs
            finally:
                log.close()


def _frame_ends(data: bytes, head: struct.Struct) -> list[int]:
    """The end of each frame of an intact file, walked by its length fields."""
    ends, pos = [], HEADER_LEN
    while pos < len(data):
        pos += head.size + head.unpack_from(data, pos)[-1] + CRC_LEN
        ends.append(pos)
    assert pos == len(data)
    return ends


def _envelope(tmp_path):
    document = Drawing(elements=[ElementPayload(1, b"pipe")]).canonical_bytes()
    record = SignatureRecord("ivanov", 1000, bytes(16), hashlib.sha256(document).digest(), bytes(32))
    data = encode_envelope(SignedEnvelope(document, (record,)))
    assert parse_envelope(data).signatures == (record,)

    def refused(bad):
        with pytest.raises(Corrupt):
            parse_envelope(bad)

    return data, HEADS[b"TCGE"], refused


def _autosave_set(tmp_path):
    drawing = Drawing(name="d", elements=[ElementPayload(1, b"pipe")])
    session = AutosaveSession("d.tcgd", drawing, AutosaveConfig(1.0, tmp_path))
    session.set_current_pp(b"blob")
    session.autosave_tick(1.0)
    data = Path(session.path).read_bytes()
    assert probe_recovery(tmp_path, "d.tcgd").pp_size == 4

    def refused(bad):
        Path(session.path).write_bytes(bad)
        assert probe_recovery(tmp_path, "d.tcgd") is None
        assert not Path(session.path).exists()  # collected

    return data, HEADS[b"TCGP"], refused


def _sidecar(tmp_path):
    path = tmp_path / "d.tcgd.session"
    write_sidecar(path, SidecarState(2, 1, {1: [0], 2: [0, 1]}))
    data = path.read_bytes()
    assert read_sidecar(path).positions == pack_positions({1: [0], 2: [0, 1]})

    def refused(bad):
        path.write_bytes(bad)
        assert read_sidecar(path) == SidecarState()

    return data, HEADS[b"TCGP"], refused


# A cut of the envelope at a section boundary is left out: it drops whole
# signatures and still parses (see ROADMAP, "Signature loss is never silent").
@pytest.mark.parametrize("build, at_boundaries", [(_envelope, False), (_autosave_set, True), (_sidecar, True)],
                         ids=["envelope", "autosave-set", "sidecar"])
def test_a_whole_file_refuses_a_torn_or_padded_file(tmp_path, build, at_boundaries):
    """Every format whose file must be whole refuses it cut inside a frame
    or with a byte after its last frame, and the set and the sidecar also
    when cut at a frame boundary."""
    data, head, refused = build(tmp_path)
    ends = _frame_ends(data, head)
    cuts = [cut for cut in range(HEADER_LEN + 1, len(data)) if cut not in ends]
    if at_boundaries:
        cuts += [HEADER_LEN, *ends[:-1]]
    for cut in cuts:
        refused(data[:cut])
    refused(data + b"\x00")
