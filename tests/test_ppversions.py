import pytest

from draftvault.errors import BadHeader, Locked, NothingToRedo, NothingToUndo, OutOfRange
from draftvault.fileio import FileIO
from draftvault.ppversions import HEADER, PPVersionLog, recover_pp_log


@pytest.fixture
def log(tmp_path):
    log = PPVersionLog.create(tmp_path / "doc.pp")
    yield log
    log.close()


def test_commit_to_empty_log(log):
    assert log.commit_pp(b"v1") == 1
    assert log.cursor == 1
    assert log.current() == b"v1"


def test_commit_extends(log):
    for n in range(1, 4):
        assert log.commit_pp(f"v{n}".encode()) == n
    assert log.cursor == 3


def test_commit_after_undo_drops_redo_tail(log, tmp_path):
    for n in range(1, 4):
        log.commit_pp(f"v{n}".encode())
    log.jump_pp(1)
    assert log.commit_pp(b"v2-new") == 2
    reloaded, truncated = recover_pp_log(tmp_path / "doc.pp")
    assert not truncated
    assert reloaded.versions == [b"v1", b"v2-new"]


def test_undo_redo_walk(log):
    for n in range(1, 4):
        log.commit_pp(f"v{n}".encode())
    assert log.undo_pp() == b"v2"
    assert log.undo_pp() == b"v1"
    with pytest.raises(NothingToUndo):
        log.undo_pp()
    assert log.redo_pp() == b"v2"
    assert log.redo_pp() == b"v3"
    with pytest.raises(NothingToRedo):
        log.redo_pp()


def test_jump_semantics(log):
    for n in range(1, 6):
        log.commit_pp(f"v{n}".encode())
    assert log.jump_pp(2) == b"v2"
    assert log.cursor == 2
    assert log.jump_pp(2) == b"v2"  # identity jump
    with pytest.raises(OutOfRange):
        log.jump_pp(0)
    with pytest.raises(OutOfRange):
        log.jump_pp(6)


def test_jump_equals_repeated_single_steps(tmp_path):
    a = PPVersionLog.create(tmp_path / "a.pp")
    b = PPVersionLog.create(tmp_path / "b.pp")
    for n in range(1, 6):
        a.commit_pp(f"v{n}".encode())
        b.commit_pp(f"v{n}".encode())
    jumped = a.jump_pp(2)
    b.undo_pp(), b.undo_pp()
    stepped = b.undo_pp()
    assert jumped == stepped and a.cursor == b.cursor
    a.close(), b.close()


def test_round_trip_reopen_allows_any_jump(tmp_path, rng):
    blobs = [rng.randbytes(rng.randrange(64)) for _ in range(10)]
    log = PPVersionLog.create(tmp_path / "doc.pp")
    for blob in blobs:
        log.commit_pp(blob)
    log.close()
    again = PPVersionLog.open(tmp_path / "doc.pp")
    assert again.versions == blobs
    for target in (3, 10, 1, 7):
        assert again.jump_pp(target) == blobs[target - 1]
    again.close()


def test_random_walk_matches_list_oracle(tmp_path, rng):
    log = PPVersionLog.create(tmp_path / "doc.pp", io=FileIO(fsync_enabled=False))
    oracle: list[bytes] = []
    cursor = 0
    for _ in range(400):
        move = rng.random()
        if move < 0.4 or not oracle:
            blob = rng.randbytes(rng.randrange(40))
            del oracle[cursor:]
            oracle.append(blob)
            log.commit_pp(blob)
            cursor = len(oracle)
        elif move < 0.6 and cursor > 1:
            assert log.undo_pp() == oracle[cursor - 2]
            cursor -= 1
        elif move < 0.8 and cursor < len(oracle):
            assert log.redo_pp() == oracle[cursor]
            cursor += 1
        else:
            target = rng.randint(1, len(oracle))
            assert log.jump_pp(target) == oracle[target - 1]
            cursor = target
        assert log.cursor == cursor
        assert log.versions == oracle
    log.close()


def test_returned_bytes_are_bit_exact(tmp_path, rng):
    log = PPVersionLog.create(tmp_path / "doc.pp")
    blobs = [rng.randbytes(33), rng.randbytes(0), rng.randbytes(129)]
    for blob in blobs:
        log.commit_pp(blob)
    assert log.jump_pp(1) == blobs[0]
    assert log.redo_pp() == blobs[1]
    assert log.redo_pp() == blobs[2]
    log.close()


def test_open_lock_contention(tmp_path):
    log = PPVersionLog.create(tmp_path / "doc.pp")
    with pytest.raises(Locked):
        PPVersionLog.open(tmp_path / "doc.pp")
    log.close()


def test_recover_truncated_tail(tmp_path, rng):
    log = PPVersionLog.create(tmp_path / "doc.pp")
    for n in range(5):
        log.commit_pp(rng.randbytes(20))
    log.close()
    data = (tmp_path / "doc.pp").read_bytes()
    boundaries = [len(HEADER) + i * 28 for i in range(6)]
    for cut in range(len(HEADER), len(data) + 1):
        expected = max(i for i, end in enumerate(boundaries) if end <= cut)
        (tmp_path / "doc.pp").write_bytes(data[:cut])
        recovered, truncated = recover_pp_log(tmp_path / "doc.pp")
        assert recovered.version_count == expected
        assert truncated == (cut != boundaries[expected])


def test_recover_bad_header(tmp_path):
    (tmp_path / "x.pp").write_bytes(b"JUNK\x01\x00")
    with pytest.raises(BadHeader):
        recover_pp_log(tmp_path / "x.pp")


def test_blob_is_value_like(log):
    """A blob is plain bytes: a copy of what was committed, equal by value."""
    source = bytearray(b"x")
    log.commit_pp(source)
    source[0] = ord("y")
    assert type(log.current()) is bytes and log.current() == b"x"
