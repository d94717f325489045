import os
import tracemalloc
from pathlib import Path

import pytest

from draftvault import framelog
from draftvault.autosave import (
    _META,
    _PAYLOAD,
    HEADER,
    AutosaveConfig,
    AutosaveSession,
    probe_recovery,
    restore,
)
from draftvault.errors import Corrupt, IoFailure
from draftvault.fileio import FileIO
from draftvault.framelog import LENGTH_HEAD
from draftvault.journal import FLAG_ADDED
from draftvault.model import Drawing, ElementPayload

from conftest import apply_changes

DOC = "plant7.tcgd"
SET = f"{DOC}.autosave.set"


def make_session(tmp_path, interval=300.0, started_at=0.0, io=None):
    drawing = Drawing(name="plant7", elements=[ElementPayload(1, b"pipe")])
    config = AutosaveConfig(interval=interval, autosave_dir=tmp_path)
    return AutosaveSession(DOC, drawing, config, io, started_at=started_at), drawing


def autosave_files(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir() if ".autosave." in p.name)


class CountingIO(FileIO):
    """Records each operation on a file of the autosave stream."""

    def __init__(self, fail_writes: bool = False):
        self.ops: list[tuple[str, str]] = []
        self.fail_writes = fail_writes

    def _note(self, op, path):
        if ".autosave." in str(path):
            self.ops.append((op, os.path.basename(path)))

    def read_bytes(self, path):
        self._note("read", path)
        return super().read_bytes(path)

    def write_file(self, path, data):
        self._note("write", path)
        if self.fail_writes and ".autosave." in str(path):
            raise OSError(28, "No space left on device")
        super().write_file(path, data)

    def replace(self, src, dst):
        self._note("replace", dst)
        super().replace(src, dst)

    def unlink(self, path):
        self._note("unlink", path)
        super().unlink(path)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        AutosaveConfig(interval=0, autosave_dir=tmp_path)


def test_tick_too_early_is_skipped(tmp_path):
    session, _ = make_session(tmp_path)
    assert session.autosave_tick(100.0) is None
    assert autosave_files(tmp_path) == []


def test_tick_saves_after_interval(tmp_path):
    session, _ = make_session(tmp_path)
    saved = session.autosave_tick(301.0)
    assert saved is not None
    assert Path(saved.path) == tmp_path / SET
    assert autosave_files(tmp_path) == [SET]


def test_tick_is_one_write_and_one_replace(tmp_path):
    io = CountingIO()
    session, drawing = make_session(tmp_path, io=io)
    session.set_current_pp(b"profile")
    for i in range(3):
        apply_changes(drawing, [(FLAG_ADDED, ElementPayload(3, bytes([i])))])
        io.ops.clear()
        assert session.autosave_tick(301.0 * (i + 1)) is not None
        assert io.ops == [("write", f"{SET}.tmp"), ("replace", SET)]
    io.ops.clear()
    assert probe_recovery(tmp_path, DOC, io) is not None
    assert io.ops == [("unlink", f"{SET}.tmp"), ("read", SET)]
    io.ops.clear()
    session.clean_shutdown()
    assert io.ops == [("unlink", SET), ("unlink", f"{SET}.tmp")]


def test_failed_tick_raises_and_stays_due(tmp_path):
    io = CountingIO(fail_writes=True)
    session, _ = make_session(tmp_path, io=io)
    with pytest.raises(IoFailure):
        session.autosave_tick(301.0)
    assert probe_recovery(tmp_path, DOC) is None
    io.fail_writes = False
    assert session.autosave_tick(302.0) is not None  # due again at once: the retry
    assert autosave_files(tmp_path) == [SET]


def test_tick_with_no_change_is_skipped(tmp_path):
    session, drawing = make_session(tmp_path)
    assert session.autosave_tick(301.0) is not None
    assert session.autosave_tick(700.0) is None  # nothing changed
    apply_changes(drawing, [(FLAG_ADDED, ElementPayload(2, b"valve"))])
    assert session.autosave_tick(701.0) is not None


def test_exactly_one_set_across_many_ticks(tmp_path):
    session, drawing = make_session(tmp_path)
    for i in range(5):
        apply_changes(drawing, [(FLAG_ADDED, ElementPayload(3, bytes([i])))])
        assert session.autosave_tick(301.0 * (i + 1)) is not None
        assert autosave_files(tmp_path) == [SET]


def test_pp_copy_written_and_removed_with_set(tmp_path):
    session, drawing = make_session(tmp_path)
    session.set_current_pp(b"profile-v1")
    assert session.autosave_tick(301.0) is not None
    found = probe_recovery(tmp_path, DOC)
    assert found.pp_size == len(b"profile-v1")
    assert restore(found)[1] == b"profile-v1"
    apply_changes(drawing, [(FLAG_ADDED, ElementPayload(9, b"x"))])
    session.set_current_pp(None)  # task closed: next set has no blob
    assert session.autosave_tick(602.0) is not None
    found = probe_recovery(tmp_path, DOC)
    assert (found.pp_sha, found.pp_size) == (None, None)
    assert restore(found)[1] is None


def test_probe_after_crash_finds_set(tmp_path):
    session, drawing = make_session(tmp_path)
    session.set_current_pp(b"pp-bytes")
    saved = session.autosave_tick(301.0)
    # no clean_shutdown: that's the crash
    found = probe_recovery(tmp_path, DOC)
    assert found == saved
    restored, pp = restore(found)
    assert restored.canonical_bytes() == drawing.canonical_bytes()
    assert pp == b"pp-bytes"


def test_restore_without_pp(tmp_path):
    session, drawing = make_session(tmp_path)
    session.autosave_tick(301.0)
    found = probe_recovery(tmp_path, DOC)
    restored, pp = restore(found)
    assert pp is None
    assert restored.canonical_bytes() == drawing.canonical_bytes()


def test_restore_matches_harness_recorded_copy(tmp_path):
    session, drawing = make_session(tmp_path)
    recorded = drawing.canonical_bytes()  # independent copy before the tick
    session.autosave_tick(301.0)
    apply_changes(drawing, [(FLAG_ADDED, ElementPayload(5, b"later"))])  # mutate after the tick
    found = probe_recovery(tmp_path, DOC)
    restored, _ = restore(found)
    assert restored.canonical_bytes() == recorded


def test_restore_refuses_a_set_written_after_the_probe(tmp_path):
    session, drawing = make_session(tmp_path)
    session.autosave_tick(301.0)
    found = probe_recovery(tmp_path, DOC)
    apply_changes(drawing, [(FLAG_ADDED, ElementPayload(5, b"later"))])
    session.autosave_tick(602.0)  # a valid set, but not the one found
    with pytest.raises(Corrupt, match="changed"):
        restore(found)


def test_every_single_byte_flip_in_copy_is_detected(tmp_path):
    """A flip of any byte of the set file, in the header, the meta frame,
    the drawing or the blob, makes restore raise Corrupt and the probe
    discard the file."""
    session, _ = make_session(tmp_path)
    session.set_current_pp(b"blob")
    session.autosave_tick(301.0)
    set_path = tmp_path / SET
    original = set_path.read_bytes()
    found = probe_recovery(tmp_path, DOC)
    for offset in range(len(original)):
        for mask in (0x01, 0x80, 0xFF):
            mutated = bytearray(original)
            mutated[offset] ^= mask
            set_path.write_bytes(bytes(mutated))
            with pytest.raises(Corrupt):
                restore(found)
            assert probe_recovery(tmp_path, DOC) is None, (offset, mask)
            assert not set_path.exists()
    set_path.write_bytes(original)
    restore(found)


def test_clean_shutdown_removes_everything(tmp_path):
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
    (tmp_path / f"{SET}.tmp").write_bytes(b"left by a failed tick")
    session.clean_shutdown()
    assert autosave_files(tmp_path) == []
    assert probe_recovery(tmp_path, DOC) is None


def test_clean_shutdown_with_no_set_is_noop(tmp_path):
    session, _ = make_session(tmp_path)
    session.clean_shutdown()
    assert probe_recovery(tmp_path, DOC) is None


def test_probe_fresh_document_is_none(tmp_path):
    assert probe_recovery(tmp_path, DOC) is None


def test_probe_ignores_and_collects_marker_for_other_doc(tmp_path, caplog):
    """The meta frame, the set's marker, names the document: a set under
    another document's name is not that document's."""
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
    other = tmp_path / "other.tcgd.autosave.set"
    other.write_bytes((tmp_path / SET).read_bytes())  # the meta frame says plant7
    assert probe_recovery(tmp_path, "other.tcgd") is None
    assert not other.exists()
    assert "belongs to 'plant7.tcgd'" in caplog.text


def test_probe_collects_a_leftover_tmp_and_keeps_the_set(tmp_path):
    """A tick that died before its rename leaves ``<set>.tmp``, torn or
    whole, beside the previous set: the probe keeps the set and collects
    the temp file."""
    session, drawing = make_session(tmp_path)
    saved = session.autosave_tick(301.0)
    (tmp_path / f"{SET}.tmp").write_bytes((tmp_path / SET).read_bytes()[:20])
    assert probe_recovery(tmp_path, DOC) == saved
    assert autosave_files(tmp_path) == [SET]


def test_probe_collects_corrupt_marker(tmp_path, caplog):
    """A set cut short, one with bytes after its last frame, one whose
    meta frame vouches for a blob frame it lacks and one whose recorded
    drawing digest is wrong (every frame intact) are each discarded."""
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
    set_path = tmp_path / SET
    good = set_path.read_bytes()
    (_, meta), (_, drawing) = framelog.read_frames(good, HEADER, LENGTH_HEAD)
    created_at, _ = _META.unpack_from(meta)
    entry = meta[_META.size : _META.size + _PAYLOAD.size]
    claims_a_blob = _META.pack(created_at, 2) + entry + entry + meta[_META.size + _PAYLOAD.size :]
    wrong_digest = bytearray(meta)
    wrong_digest[-len(DOC) - 1] ^= 0x01  # the last byte of the drawing's SHA-256
    for bad in (
        good[:-3],
        good + b"\x00",
        HEADER + b"".join(framelog.encode_frame(LENGTH_HEAD, p) for p in (claims_a_blob, drawing)),
        HEADER + b"".join(framelog.encode_frame(LENGTH_HEAD, p) for p in (bytes(wrong_digest), drawing)),
    ):
        set_path.write_bytes(bad)
        assert probe_recovery(tmp_path, DOC) is None
        assert autosave_files(tmp_path) == []
    assert "discarding invalid autosave set" in caplog.text


def test_loss_window_bounded_by_interval(tmp_path):
    """With ticks offered every second, recoverable state is never older
    than `interval` relative to the last mutation."""
    interval = 10.0
    session, drawing = make_session(tmp_path, interval=interval)
    mutation_times = []
    last_saved_revision_time = None
    for t in range(1, 100):
        apply_changes(drawing, [(FLAG_ADDED, ElementPayload(1, t.to_bytes(2, "little")))])
        mutation_times.append(float(t))
        if session.autosave_tick(float(t)) is not None:
            last_saved_revision_time = float(t)
    # crash now at t=99; the recoverable copy is from last_saved_revision_time
    found = probe_recovery(tmp_path, DOC)
    assert found is not None
    assert last_saved_revision_time is not None
    assert mutation_times[-1] - last_saved_revision_time <= interval


def test_probe_hashes_the_payloads_without_copying_them(tmp_path):
    """Probing holds the file's bytes and hashes views of them: the peak
    stays well below the file read plus a copy of every payload."""
    drawing = Drawing(name="plant7", elements=[ElementPayload(1, bytes([i]) * 1_000_000) for i in range(4)])
    session = AutosaveSession(DOC, drawing, AutosaveConfig(1.0, tmp_path), started_at=0.0)
    session.set_current_pp(b"\xbb" * 1_000_000)
    assert session.autosave_tick(1.0) is not None
    size = (tmp_path / SET).stat().st_size
    tracemalloc.start()
    try:
        found = probe_recovery(tmp_path, DOC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None and found.drawing_size + found.pp_size < size
    assert peak < 1.5 * size, f"peak {peak} B for a set of {size} B"
    restored, blob = restore(found)
    assert restored.elements == drawing.elements and blob == b"\xbb" * 1_000_000
