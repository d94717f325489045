import datetime as dt
import hashlib
import os
from pathlib import Path

import pytest

from draftvault.backup import (
    BackupConfig,
    BackupManifest,
    backup_due,
    load_manifest,
    parse_config,
    parse_weekdays,
    run_backup,
    save_manifest,
)
from draftvault.errors import Corrupt, IoFailure
from draftvault.fileio import FileIO
from draftvault.locks import SessionLock

MON = dt.date(2026, 8, 3)
TUE = dt.date(2026, 8, 4)
WED = dt.date(2026, 8, 5)


def make_tree(root, files: dict[str, bytes]):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def vault_snapshot(vault):
    """Full-content map of every file in the vault (the oracle's view)."""
    return {
        str(p.relative_to(vault)): p.read_bytes()
        for p in sorted(vault.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def setup(tmp_path):
    work = tmp_path / "work"
    vault = tmp_path / "vault"
    work.mkdir()
    config = BackupConfig(
        weekdays=parse_weekdays("mon,wed"), watch_roots=(work,), vault_root=vault
    )
    return work, vault, config


def test_weekday_parsing():
    assert parse_weekdays("Mon, Wednesday FRI") == frozenset({0, 2, 4})
    assert parse_weekdays("") == frozenset()
    with pytest.raises(ValueError):
        parse_weekdays("noday")


def test_due_on_designated_day_first_launch(setup):
    _, _, config = setup
    assert backup_due(config, BackupManifest(), MON)


def test_not_due_second_launch_same_day(setup):
    _, _, config = setup
    manifest = BackupManifest(last_backup_date=MON)
    assert not backup_due(config, manifest, MON)
    assert not backup_due(config, manifest, MON)


def test_never_due_with_empty_weekdays(setup):
    work, vault, _ = setup
    config = BackupConfig(weekdays=frozenset(), watch_roots=(work,), vault_root=vault)
    for day in (MON, TUE, WED):
        assert not backup_due(config, BackupManifest(), day)


def test_not_due_on_other_weekday(setup):
    _, _, config = setup
    assert not backup_due(config, BackupManifest(), TUE)


def test_first_backup_copies_everything(setup):
    work, vault, config = setup
    files = {"a.tcgd": b"AAA", "sub/b.tcgd": b"BBB"}
    make_tree(work, files)
    backup_set, manifest = run_backup(config, BackupManifest(), MON)
    assert Path(backup_set.dir) == vault / "2026-08-03"
    assert sorted(rel for _, rel in backup_set.copied) == ["work/a.tcgd", "work/sub/b.tcgd"]
    for rel, data in files.items():
        assert (vault / "2026-08-03" / "work" / rel).read_bytes() == data
    assert manifest.last_backup_date == MON


def test_delta_contains_exactly_changed_files(setup):
    work, vault, config = setup
    make_tree(work, {"a": b"1", "b": b"2", "c": b"3"})
    _, manifest = run_backup(config, BackupManifest(), MON)
    (work / "b").write_bytes(b"2-changed")
    (work / "d").write_bytes(b"new")
    (work / "a").write_bytes(b"1")  # rewritten with identical content
    backup_set, manifest = run_backup(config, manifest, WED)
    assert sorted(rel for _, rel in backup_set.copied) == ["work/b", "work/d"]
    assert (vault / "2026-08-05" / "work" / "b").read_bytes() == b"2-changed"


def test_nothing_changed_creates_no_directory_but_records_date(setup):
    work, vault, config = setup
    make_tree(work, {"a": b"1"})
    _, manifest = run_backup(config, BackupManifest(), MON)
    before = vault_snapshot(vault)
    backup_set, manifest = run_backup(config, manifest, WED)
    assert backup_set.dir is None
    assert manifest.last_backup_date == WED
    assert not (vault / "2026-08-05").exists()
    after = vault_snapshot(vault)
    before.pop("manifest.txt"), after.pop("manifest.txt")
    assert after == before


def test_copies_are_byte_identical(setup, rng):
    work, vault, config = setup
    files = {f"f{i}": rng.randbytes(rng.randrange(1, 4096)) for i in range(20)}
    make_tree(work, files)
    backup_set, _ = run_backup(config, BackupManifest(), MON)
    for source, rel in backup_set.copied:
        assert hashlib.sha256((Path(backup_set.dir) / rel).read_bytes()).digest() == \
            hashlib.sha256(Path(source).read_bytes()).digest()


def test_deleted_files_leave_manifest(setup):
    work, _, config = setup
    make_tree(work, {"a": b"1", "b": b"2"})
    _, manifest = run_backup(config, BackupManifest(), MON)
    (work / "b").unlink()
    _, manifest = run_backup(config, manifest, WED)
    assert set(manifest.entries) == {"work/a"}


def test_prior_date_directories_are_never_touched(setup):
    work, vault, config = setup
    make_tree(work, {"a": b"version-1"})
    _, manifest = run_backup(config, BackupManifest(), MON)
    monday_before = vault_snapshot(vault / "2026-08-03")
    (work / "a").write_bytes(b"version-2")
    run_backup(config, manifest, WED)
    assert vault_snapshot(vault / "2026-08-03") == monday_before
    assert (vault / "2026-08-05" / "work" / "a").read_bytes() == b"version-2"


def test_abort_leaves_manifest_unchanged(setup, monkeypatch):
    work, vault, config = setup
    make_tree(work, {"a": b"1", "b": b"2"})
    _, manifest = run_backup(config, BackupManifest(), MON)
    (work / "a").write_bytes(b"1x")
    (work / "b").write_bytes(b"2x")
    calls = []
    original = FileIO.write_atomic

    def failing(self, path, data):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        return original(self, path, data)

    monkeypatch.setattr(FileIO, "write_atomic", failing)
    with pytest.raises(IoFailure):
        run_backup(config, manifest, WED)
    monkeypatch.undo()
    assert load_manifest(vault).last_backup_date == MON  # not updated: retried next launch
    backup_set, manifest2 = run_backup(config, manifest, WED)
    assert sorted(rel for _, rel in backup_set.copied) == ["work/a", "work/b"]


def test_live_session_lock_aborts_backup(setup):
    work, _, config = setup
    make_tree(work, {"a": b"1"})
    with SessionLock(work / "a"), pytest.raises(IoFailure):
        run_backup(config, BackupManifest(), MON)


def test_transient_files_are_not_backed_up(setup):
    work, _, config = setup
    make_tree(
        work,
        {
            "a.tcgd": b"1",
            "a.tcgd.lock": b"pid=999999999\n",  # left by a crash: still excluded
            "x.tmp": b"t",
            "a.tcgd.autosave.set": b"copy",
            "plant.autosave.tcgd": b"2",  # a drawing, named so by its user
        },
    )
    backup_set, manifest = run_backup(config, BackupManifest(), MON)
    assert sorted(rel for _, rel in backup_set.copied) == ["work/a.tcgd", "work/plant.autosave.tcgd"]


def test_vault_inside_watch_root_is_not_recursed(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    make_tree(work, {"a": b"1"})
    config = BackupConfig(
        weekdays=parse_weekdays("mon"), watch_roots=(work,), vault_root=work / "vault"
    )
    _, manifest = run_backup(config, BackupManifest(), MON)
    backup_set, _ = run_backup(config, manifest, dt.date(2026, 8, 10))
    assert backup_set.copied == []  # vault content never re-enters the delta


def test_manifest_round_trip(tmp_path):
    manifest = BackupManifest(entries={"r/a": "ff" * 32, "r/b": "00" * 32}, last_backup_date=MON)
    save_manifest(tmp_path, manifest)
    text = (tmp_path / "manifest.txt").read_text()
    assert "last_backup=2026-08-03" in text
    loaded = load_manifest(tmp_path)
    assert loaded == manifest


def test_two_roots_with_same_basename_do_not_collide(tmp_path):
    r1 = tmp_path / "x" / "docs"
    r2 = tmp_path / "y" / "docs"
    vault = tmp_path / "vault"
    make_tree(r1, {"f": b"one"})
    make_tree(r2, {"f": b"two"})
    config = BackupConfig(weekdays=parse_weekdays("mon"), watch_roots=(r1, r2), vault_root=vault)
    backup_set, manifest = run_backup(config, BackupManifest(), MON)
    assert (vault / "2026-08-03" / "docs" / "f").read_bytes() == b"one"
    assert (vault / "2026-08-03" / "docs-2" / "f").read_bytes() == b"two"


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "backup.cfg"
    cfg.write_text(
        "# schedule\nweekdays = mon, fri\nwatch_root = /data/a\nwatch_root = /data/b\nvault_root = /vault\n"
    )
    config = parse_config(cfg)
    assert config.weekdays == frozenset({0, 4})
    assert tuple(map(Path, config.watch_roots)) == (Path("/data/a"), Path("/data/b"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("weekdays = mon\n")
    with pytest.raises(Corrupt):
        parse_config(bad)


def test_manifest_records_the_digest_of_the_copied_bytes(setup):
    """A file rewritten between the scan and the copy is recorded with the
    digest of the bytes the vault holds, so when its scanned content comes
    back it is a change and gets backed up."""
    work, vault, config = setup
    make_tree(work, {"a.tcgd": b"v1"})
    source = work / "a.tcgd"

    class RewritingIO(FileIO):
        def read_bytes(self, path):
            if Path(path) == source:
                source.write_bytes(b"v2")
            return super().read_bytes(path)

    _, manifest = run_backup(config, BackupManifest(), MON, RewritingIO())
    assert vault_snapshot(vault)[f"{MON.isoformat()}/work/a.tcgd"] == b"v2"
    assert manifest.entries == {"work/a.tcgd": hashlib.sha256(b"v2").hexdigest()}
    source.write_bytes(b"v1")
    backup_set, _ = run_backup(config, manifest, WED)
    assert [relpath for _, relpath in backup_set.copied] == ["work/a.tcgd"]
    assert vault_snapshot(vault)[f"{WED.isoformat()}/work/a.tcgd"] == b"v1"


@pytest.mark.parametrize("name", [b"b\xff.tcgd", b"two\nlines.tcgd", b"ends-in-space.tcgd ", "ч.tcgd".encode()],
                         ids=["not-utf8", "line-break", "trailing-space", "utf8"])
def test_any_file_name_round_trips_through_the_manifest(tmp_path, capsys, name):
    """A watched file whose name is not UTF-8 text, or that a manifest line
    would not keep whole, is recorded all the same: the second run finds
    it unchanged and copies nothing, and the manifest stays UTF-8."""
    from draftvault.cli import main

    work, vault = tmp_path / "w", tmp_path / "v"
    work.mkdir()
    path = work / os.fsdecode(name)
    path.write_bytes(b"drawing")
    cfg = tmp_path / "backup.cfg"
    cfg.write_text(f"weekdays = mon,tue\nwatch_root = {work}\nvault_root = {vault}\n")
    assert main(["backup", "--config", str(cfg), "--today", "2026-08-03"]) == 0
    assert capsys.readouterr().out.startswith("backed up 1 file(s)")
    assert (vault / "2026-08-03" / "w" / path.name).read_bytes() == b"drawing"
    (vault / "manifest.txt").read_bytes().decode()
    assert load_manifest(vault).entries == {f"w/{path.name}": hashlib.sha256(b"drawing").hexdigest()}
    assert main(["backup", "--config", str(cfg), "--today", "2026-08-04"]) == 0
    assert capsys.readouterr().out == "nothing changed since last backup; date recorded\n"
    assert not (vault / "2026-08-04").exists()


@pytest.mark.parametrize("field", ["/zz", "/", ""])
def test_a_bad_relpath_field_is_corrupt(tmp_path, field):
    (tmp_path / "manifest.txt").write_text(f"{'ab' * 32}\t{field}\nlast_backup=2026-08-03\n")
    with pytest.raises(Corrupt, match="malformed manifest line"):
        load_manifest(tmp_path)


# -- how a watch tree is read: pinned behaviour of the path handling ----------------


def _config_run(tmp_path, monkeypatch, watch_root: str, vault: str) -> dict:
    """One backup of ``watch_root`` (as the config file spells it, relative
    to ``tmp_path``) into ``vault``; the manifest it leaves."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / f"{vault}.cfg"
    cfg.write_text(f"weekdays = mon\nwatch_root = {watch_root}\nvault_root = {vault}\n")
    config = parse_config(cfg)
    run_backup(config, load_manifest(config.vault_root), MON)
    return load_manifest(tmp_path / vault).entries


def test_a_watch_root_spelled_with_a_slash_or_dot_keeps_its_label(tmp_path, monkeypatch):
    make_tree(tmp_path / "w", {"a.tcgd": b"1", "sub/b.tcgd": b"2"})
    plain = _config_run(tmp_path, monkeypatch, "w", "v1")
    assert sorted(plain) == ["w/a.tcgd", "w/sub/b.tcgd"]
    assert _config_run(tmp_path, monkeypatch, "w/", "v2") == plain
    assert _config_run(tmp_path, monkeypatch, "./w", "v3") == plain
    assert _config_run(tmp_path, monkeypatch, ".//w/./", "v4") == plain


def test_a_watch_root_of_dot_is_labelled_root(tmp_path, monkeypatch):
    make_tree(tmp_path / "w", {"a.tcgd": b"1"})
    monkeypatch.chdir(tmp_path / "w")
    config = BackupConfig(weekdays=parse_weekdays("mon"), watch_roots=(Path("."),), vault_root=tmp_path / "v")
    backup_set, manifest = run_backup(config, BackupManifest(), MON)
    assert sorted(manifest.entries) == ["root/a.tcgd"]
    assert (tmp_path / "v" / "2026-08-03" / "root" / "a.tcgd").read_bytes() == b"1"


def test_symlinks_are_skipped_and_dotfiles_copied(setup, tmp_path):
    """A symlinked file and a symlinked directory under a watch root are
    not copied, nor is the directory entered; a dotfile is copied."""
    work, _, config = setup
    make_tree(work, {"a.tcgd": b"1", ".hidden.tcgd": b"2", ".dot/c.tcgd": b"3"})
    make_tree(tmp_path / "outside", {"o.tcgd": b"4"})
    (work / "link.tcgd").symlink_to(work / "a.tcgd")
    (work / "linkdir").symlink_to(tmp_path / "outside", target_is_directory=True)
    (work / "broken.tcgd").symlink_to(tmp_path / "nowhere")
    backup_set, manifest = run_backup(config, BackupManifest(), MON)
    assert sorted(rel for _, rel in backup_set.copied) == ["work/.dot/c.tcgd", "work/.hidden.tcgd", "work/a.tcgd"]
    assert sorted(manifest.entries) == ["work/.dot/c.tcgd", "work/.hidden.tcgd", "work/a.tcgd"]


def test_files_are_copied_in_the_order_of_their_path_components(setup):
    """``a/b`` comes before ``a-b``: the walk sorts by component, not by the
    path as one string (where ``-`` sorts before ``/``)."""
    work, _, config = setup
    make_tree(work, {"a-b": b"1", "a/b": b"2", "a/c/d": b"3", "a.x": b"4", "b": b"5"})
    backup_set, _ = run_backup(config, BackupManifest(), MON)
    assert [rel for _, rel in backup_set.copied] == ["work/a/b", "work/a/c/d", "work/a-b", "work/a.x", "work/b"]


def test_two_runs_over_one_tree_write_the_same_manifest(tmp_path):
    work = tmp_path / "work"
    make_tree(work, {"b": b"1", "a-b": b"2", "a/b": b"3", ".z": b"4", "sub/deeper/x.tcgd": b"5"})
    manifests = []
    for vault in (tmp_path / "v1", tmp_path / "v2"):
        config = BackupConfig(weekdays=parse_weekdays("mon"), watch_roots=(work,), vault_root=vault)
        run_backup(config, BackupManifest(), MON)
        manifests.append((vault / "manifest.txt").read_bytes())
    assert manifests[0] == manifests[1]
    assert manifests[0].count(b"\n") == 6
