import pytest

from draftvault.autosave import (
    AutosaveConfig,
    AutosaveSession,
    probe_recovery,
    restore,
)
from draftvault.errors import Corrupt
from draftvault.journal import FLAG_ADDED
from draftvault.model import Drawing, ElementPayload

from conftest import apply_changes

DOC = "plant7.tcgd"


def make_session(tmp_path, interval=300.0, started_at=0.0):
    drawing = Drawing(name="plant7", elements=[ElementPayload(1, b"pipe")])
    config = AutosaveConfig(interval=interval, autosave_dir=tmp_path)
    return AutosaveSession(DOC, drawing, config, started_at=started_at), drawing


def autosave_files(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir() if ".autosave." in p.name)


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
    assert autosave_files(tmp_path) == [
        f"{DOC}.autosave.drawing",
        f"{DOC}.autosave.marker",
    ]


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
        assert autosave_files(tmp_path) == [
            f"{DOC}.autosave.drawing",
            f"{DOC}.autosave.marker",
        ]


def test_pp_copy_written_and_removed_with_set(tmp_path):
    session, drawing = make_session(tmp_path)
    session.set_current_pp(b"profile-v1")
    assert session.autosave_tick(301.0) is not None
    assert f"{DOC}.autosave.pp" in autosave_files(tmp_path)
    apply_changes(drawing, [(FLAG_ADDED, ElementPayload(9, b"x"))])
    session.set_current_pp(None)  # task closed: next set has no pp copy
    assert session.autosave_tick(602.0) is not None
    assert f"{DOC}.autosave.pp" not in autosave_files(tmp_path)


def test_probe_after_crash_finds_set(tmp_path):
    session, drawing = make_session(tmp_path)
    session.set_current_pp(b"pp-bytes")
    saved = session.autosave_tick(301.0)
    # no clean_shutdown: that's the crash
    found = probe_recovery(tmp_path, DOC)
    assert found is not None
    assert found.drawing_sha == saved.drawing_sha
    assert found.pp_sha == saved.pp_sha
    restored, pp = restore(found)
    assert restored.canonical_bytes() == drawing.canonical_bytes()
    assert pp.data == b"pp-bytes"


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


def test_every_single_byte_flip_in_copy_is_detected(tmp_path):
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
    copy_path = tmp_path / f"{DOC}.autosave.drawing"
    original = copy_path.read_bytes()
    found = probe_recovery(tmp_path, DOC)
    for offset in range(len(original)):
        mutated = bytearray(original)
        mutated[offset] ^= 0x01
        copy_path.write_bytes(bytes(mutated))
        with pytest.raises(Corrupt):
            restore(found)
    copy_path.write_bytes(original)
    restore(found)


def test_clean_shutdown_removes_everything(tmp_path):
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
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
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
    marker = tmp_path / f"{DOC}.autosave.marker"
    other = tmp_path / "other.tcgd.autosave.marker"
    other.write_bytes(marker.read_bytes())  # doc= field says plant7
    assert probe_recovery(tmp_path, "other.tcgd") is None
    assert not other.exists()
    assert "autosave" in caplog.text.lower() or caplog.text == ""


def test_probe_collects_orphan_copies_without_marker(tmp_path):
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
    (tmp_path / f"{DOC}.autosave.marker").unlink()
    assert probe_recovery(tmp_path, DOC) is None
    assert autosave_files(tmp_path) == []


def test_probe_collects_corrupt_marker(tmp_path, caplog):
    session, _ = make_session(tmp_path)
    session.autosave_tick(301.0)
    marker = tmp_path / f"{DOC}.autosave.marker"
    marker.write_bytes(marker.read_bytes()[:-3])
    assert probe_recovery(tmp_path, DOC) is None
    assert autosave_files(tmp_path) == []


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
