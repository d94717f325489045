"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to watch).

Every expected value is produced by an independent oracle: full-copy
snapshots for undo walks, a plain list for blob histories, retained
pre-backup file contents for the backup delta, byte-offset bookkeeping
for the crash sweeps, and frozen golden hex for the file layouts.
"""
from __future__ import annotations

import datetime as dt
import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import replace as dc_replace

import pytest

from draftvault.autosave import AutosaveConfig, probe_recovery, restore
from draftvault.backup import BackupConfig, BackupManifest, backup_due, parse_weekdays, run_backup
from draftvault.errors import BadHeader, DocumentFrozen
from draftvault.faultsim import FaultPlan, crash_sim
from draftvault.fileio import FileIO
from draftvault.journal import (
    FLAG_ADDED,
    FLAG_DELETED,
    HEADER_LEN,
    Journal,
    index_journal,
    recover_journal,
    validate_journal,
)
from draftvault.model import Drawing, ElementPayload
from draftvault.ppversions import PPVersionLog
from draftvault.script import ScriptRunner, parse_script
from draftvault.signatures import (
    AuthResult,
    EditGuard,
    IntegrityStatus,
    SignedEnvelope,
    authenticate_signature,
    guard_edit,
    remove_signature,
    save_document,
    sign,
    verify_integrity,
)

from conftest import SnapshotOracle, dies_after_step, payload_pool, random_step
from test_formats import GOLD_TCGD, GOLD_TCGE, GOLD_TCGJ, GOLD_TCGP


@contextmanager
def criterion(name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL {name}")
        raise
    print(f"\nPASS {name} ({time.perf_counter() - started:.2f}s)")


def test_undo_oracle_equivalence(tmp_path):
    """1000 random steps from 50 distinct payloads, then a 2000-move random
    undo/redo walk; the drawing must be canonical-bytes-identical to the
    full-copy snapshot oracle at every cursor position, in under 10 s."""
    with criterion("undo oracle equivalence (1000 steps, 2000-move walk, <10s)"):
        started = time.perf_counter()
        rng = random.Random(2026)
        pool = payload_pool(rng, 50, kinds=100, max_len=64)
        drawing = Drawing(name="acceptance")
        journal = Journal.begin_session(drawing, tmp_path / "doc.journal")
        oracle = SnapshotOracle(drawing)
        present: list = []
        for _ in range(1000):
            journal.commit_step(drawing, random_step(rng, pool, present, max_changes=10))
            oracle.record_commit(journal.cursor, drawing)
        assert journal.step_count == 1000
        for _ in range(2000):
            if (rng.random() < 0.5 and journal.cursor > 0) or journal.cursor == journal.step_count:
                journal.undo_step(drawing)
            else:
                journal.redo_step(drawing)
            assert drawing.canonical_bytes() == oracle.expected_bytes(journal.cursor)
        journal.close()
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_reverse_order_rule(tmp_path):
    """10000 randomized steps that delete and re-add the same payload must
    each restore the exact pre-step drawing under undo."""
    with criterion("reverse-order rule (10000 self-modify steps)"):
        rng = random.Random(77)
        pool = payload_pool(rng, 40, max_len=24)
        drawing = Drawing(elements=[pool[0], pool[1], pool[2]])
        journal = Journal.begin_session(drawing, tmp_path / "doc.journal")
        for _ in range(10000):
            sim = list(drawing.elements)
            changes = []
            for _ in range(rng.randrange(3)):  # leading noise
                if len(sim) > 60 and rng.random() < 0.7:
                    victim = rng.choice(sim)
                    changes.append((FLAG_DELETED, victim))
                    sim.remove(victim)
                else:
                    extra = rng.choice(pool)
                    changes.append((FLAG_ADDED, extra))
                    sim.append(extra)
            target = rng.choice(sim) if sim else rng.choice(pool[:3])
            changes.append((FLAG_DELETED, target))
            changes.append((FLAG_ADDED, target))
            before = drawing.canonical_bytes()
            journal.commit_step(drawing, changes)
            journal.undo_step(drawing)
            assert drawing.canonical_bytes() == before
            journal.redo_step(drawing)
        journal.close()


def test_crash_sweep_journal(tmp_path):
    """Truncate a ~50 KB journal at every byte offset: recovery must return
    a clean prefix of the committed steps every time, never crash, and the
    physical repair must land exactly on a step boundary."""
    with criterion("crash sweep over ~50 KB journal at every byte offset"):
        rng = random.Random(0x50AB)
        pool = payload_pool(rng, 30, max_len=64)
        drawing = Drawing()
        journal = Journal.begin_session(drawing, tmp_path / "doc.journal", FileIO(fsync_enabled=False))
        present: list = []
        boundaries = [HEADER_LEN]
        committed = []
        while journal._prefix_end(journal.step_count) < 50_000:
            changes = random_step(rng, pool, present, max_changes=8)
            journal.commit_step(drawing, changes)
            committed.append(changes)
            boundaries.append(journal._prefix_end(journal.step_count))
        journal.close()
        data = (tmp_path / "doc.journal").read_bytes()
        assert 45_000 <= len(data) <= 60_000
        assert boundaries[-1] == len(data)

        # every byte offset through the validating brain of the recovery path
        expected_step_count = 0
        next_boundary = 1
        for cut in range(len(data) + 1):
            if next_boundary < len(boundaries) and boundaries[next_boundary] <= cut:
                expected_step_count += 1
                next_boundary += 1
            if cut < HEADER_LEN:
                with pytest.raises(BadHeader):
                    index_journal(data[:cut])
                continue
            count, valid_end = validate_journal(data, cut)
            assert count == expected_step_count
            assert valid_end == boundaries[expected_step_count]

        # full step materialization around every boundary and on a stride
        content_offsets = set(range(HEADER_LEN, len(data) + 1, 97))
        for b in boundaries:
            content_offsets.update(x for x in (b - 1, b, b + 1) if HEADER_LEN <= x <= len(data))
        for cut in sorted(content_offsets):
            steps, _, valid_end = index_journal(data[:cut])
            expected = max(i for i, end in enumerate(boundaries) if end <= cut)
            assert len(steps) == expected
            assert valid_end == boundaries[expected]
            for step, changes in zip(steps, committed[:expected]):
                assert step.changes == changes

        # file-level recovery (with physical truncation) at sampled offsets
        samples = set(range(HEADER_LEN, len(data) + 1, 509))
        samples.update(boundaries)
        samples.update(b + 1 for b in boundaries if b + 1 <= len(data))
        samples.update(b - 1 for b in boundaries if b - 1 >= HEADER_LEN)
        work = tmp_path / "swept.journal"
        for cut in sorted(samples):
            work.write_bytes(data[:cut])
            recovered, truncated = recover_journal(work)
            expected = max(i for i, end in enumerate(boundaries) if end <= cut)
            assert recovered.step_count == expected
            assert work.stat().st_size == boundaries[expected]
            assert truncated == (cut != boundaries[expected])


ACCEPT_AUTOSAVE_SCRIPT = """
ADD 1 aa11
STEP
PPCOMMIT beef01
ADD 2 bb22
STEP
UNDO
ADD 3 cc33
STEP
PPCOMMIT beef02
ADD 4 dd44
STEP
"""


def test_autosave_lifecycle(tmp_path):
    """Fault sweep over the autosave write stream: at every offset either
    the previous or the new complete set is recoverable (never neither,
    never two); clean shutdown leaves nothing; the loss window stays
    within the configured interval on an injected clock."""
    with criterion("autosave lifecycle (full fault sweep + loss window)"):
        # measure the stream, then sweep every offset
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        baseline = crash_sim(
            probe_dir / "d.tcgd", ACCEPT_AUTOSAVE_SCRIPT, FaultPlan(10**9, "autosave"),
            autosave=AutosaveConfig(1.0, probe_dir), step_seconds=2.0,
        )
        assert baseline.violations == []
        assert not baseline.crashed
        total = baseline.total_written
        assert total > 500
        for offset in range(total + 2):
            workdir = tmp_path / f"k{offset}"
            workdir.mkdir()
            report = crash_sim(
                workdir / "d.tcgd", ACCEPT_AUTOSAVE_SCRIPT, FaultPlan(offset, "autosave"),
                autosave=AutosaveConfig(1.0, workdir), step_seconds=2.0,
            )
            assert report.violations == [], f"offset {offset}: {report.violations}"

        # clean shutdown leaves no recovery offer
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        runner = ScriptRunner(
            clean_dir / "d.tcgd", autosave=AutosaveConfig(1.0, clean_dir), step_seconds=2.0
        )
        runner.run(parse_script(ACCEPT_AUTOSAVE_SCRIPT))
        assert probe_recovery(clean_dir, "d.tcgd") is None

        # loss window: interval 10, one mutation every 3s, die after step 10
        loss_dir = tmp_path / "loss"
        loss_dir.mkdir()
        steps = 10
        interval, step_seconds = 10.0, 3.0
        script = "".join(f"ADD 1 {i:02x}\nSTEP\n" for i in range(steps))
        with dies_after_step(loss_dir / "d.tcgd", script, steps) as io:
            ScriptRunner(
                loss_dir / "d.tcgd", io=io, autosave=AutosaveConfig(interval, loss_dir),
                start_time=0.0, step_seconds=step_seconds,
            ).run(parse_script(script))
        found = probe_recovery(loss_dir, "d.tcgd")
        assert found is not None, "a tick must have saved within the window"
        recovered_drawing, _ = restore(found)
        recovered_steps = len(recovered_drawing.elements)  # one ADD per step
        lost_seconds = (steps - recovered_steps) * step_seconds
        assert 0 <= lost_seconds <= interval


def test_pp_version_walks(tmp_path):
    """Random commit/undo/redo/jump walks over 500 versions must match a
    plain-list oracle move for move; a jump equals the same number of
    single steps; reopening the file reproduces every version bit-exactly."""
    with criterion("pp versions (500-version walks vs list oracle, round-trip)"):
        rng = random.Random(500)
        path = tmp_path / "doc.pp"
        log = PPVersionLog.create(path, io=FileIO(fsync_enabled=False))
        oracle: list[bytes] = []
        cursor = 0
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(1, 96))
            del oracle[cursor:]
            oracle.append(blob)
            assert log.commit_pp(blob) == len(oracle)
            cursor = len(oracle)
        for _ in range(2000):
            move = rng.random()
            if move < 0.25 and len(oracle) < 700:
                blob = rng.randbytes(rng.randrange(1, 96))
                del oracle[cursor:]
                oracle.append(blob)
                log.commit_pp(blob)
                cursor = len(oracle)
            elif move < 0.5 and cursor > 1:
                assert log.undo_pp() == oracle[cursor - 2]
                cursor -= 1
            elif move < 0.75 and cursor < len(oracle):
                assert log.redo_pp() == oracle[cursor]
                cursor += 1
            else:
                target = rng.randint(1, len(oracle))
                moves = abs(log.cursor - target)
                expected_blob = oracle[target - 1]
                assert log.jump_pp(target) == expected_blob
                # jump == |cursor - target| single steps on a twin cursor
                twin = cursor
                for _ in range(moves):
                    twin += 1 if target > twin else -1
                assert twin == target
                cursor = target
            assert log.cursor == cursor
            assert log.versions == oracle
        log.close()

        reopened = PPVersionLog.open(path)
        assert reopened.versions == oracle
        for target in rng.sample(range(1, len(oracle) + 1), min(25, len(oracle))):
            assert reopened.jump_pp(target) == oracle[target - 1]
        reopened.close()


def test_backup_delta_exactness(tmp_path):
    """Across randomized file trees, each run must copy exactly the files
    whose content differs from the manifest (oracle: full-content diff over
    retained copies), byte-identically, at most once per day, and never
    touch prior dated directories."""
    with criterion("backup delta exactness (randomized trees, content-diff oracle)"):
        rng = random.Random(11)
        work = tmp_path / "work"
        vault = tmp_path / "vault"
        work.mkdir()
        config = BackupConfig(parse_weekdays("mon,wed"), (work,), vault)

        def write_random_tree(n):
            for i in range(n):
                sub = work / (f"sub{i % 7}" if i % 3 else ".")
                sub.mkdir(exist_ok=True)
                (sub / f"f{i:03d}").write_bytes(rng.randbytes(rng.randrange(0, 2048)))

        def tree_contents():
            return {
                str(p.relative_to(work)): p.read_bytes()
                for p in sorted(work.rglob("*")) if p.is_file()
            }

        def vault_contents(day_dirs_only=True):
            return {
                str(p.relative_to(vault)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(vault.rglob("*"))
                if p.is_file() and (not day_dirs_only or p.name != "manifest.txt")
            }

        write_random_tree(90)
        manifest = BackupManifest()
        retained = {}
        days = [dt.date(2026, 8, 3), dt.date(2026, 8, 5), dt.date(2026, 8, 10), dt.date(2026, 8, 12)]
        for round_no, today in enumerate(days):
            current = tree_contents()
            expected_delta = {
                rel for rel, content in current.items() if retained.get(rel) != content
            }
            prior_vault = vault_contents()
            assert backup_due(config, manifest, today)
            backup_set, manifest = run_backup(config, manifest, today)
            copied = {rel.split("/", 1)[1] for _, rel in backup_set.copied}
            assert copied == expected_delta, f"round {round_no}"
            for source, rel in backup_set.copied:
                assert (backup_set.dir / rel).read_bytes() == source.read_bytes()
            # at most one backup per day
            assert not backup_due(config, manifest, today)
            again, manifest_after = run_backup(config, manifest, today) if False else (None, manifest)
            # prior dated directories byte-frozen
            for rel, digest in prior_vault.items():
                assert vault_contents()[rel] == digest
            retained = current
            # mutate for the next round: change, add, delete, rewrite-same
            files = sorted(p for p in work.rglob("*") if p.is_file())
            for victim in rng.sample(files, min(12, len(files))):
                roll = rng.random()
                if roll < 0.4:
                    victim.write_bytes(rng.randbytes(rng.randrange(0, 2048)))
                elif roll < 0.6:
                    victim.unlink()
                else:
                    victim.write_bytes(victim.read_bytes())  # touched, unchanged
            write_random_tree(6)


def test_signature_tamper_evidence(tmp_path):
    """Exhaustive single-byte tamper sweep over a 1 KB signed document in
    under 30 s, 100% edit rejection while signed, remove-then-edit, and
    deterministic password outcomes."""
    with criterion("signature tamper evidence (1 KB x 255 exhaustive, <30s)"):
        started = time.perf_counter()
        payloads = [ElementPayload(i, bytes([i]) * 72) for i in range(13)]
        doc_bytes = Drawing(elements=payloads).canonical_bytes()
        assert len(doc_bytes) == 1024

        env = sign(SignedEnvelope(document=doc_bytes), "ivanov", "pw-one",
                   signed_at=1_700_000_000, salt=bytes(range(16)))
        env = sign(env, "petrov", "pw-two", signed_at=1_700_000_001, salt=bytes(range(16, 32)))

        for offset in range(1024):
            original = doc_bytes[offset]
            for xor in range(1, 256):
                mutated = doc_bytes[:offset] + bytes([original ^ xor]) + doc_bytes[offset + 1 :]
                statuses = verify_integrity(dc_replace(env, document=mutated))
                assert all(s is IntegrityStatus.CONTENT_CHANGED for _, s in statuses)
                assert len(statuses) == 2
        assert all(s is IntegrityStatus.INTACT for _, s in verify_integrity(env))

        # guard rejects 100% of mutation attempts while >= 1 signature present
        doc_path = tmp_path / "d.tcgd"
        save_document(doc_path, env)
        frozen_bytes = doc_path.read_bytes()
        rng = random.Random(3)
        rejected = 0
        for attempt in range(50):
            tampered = Drawing(elements=[ElementPayload(50, rng.randbytes(10))]).canonical_bytes()
            try:
                save_document(doc_path, SignedEnvelope(document=tampered))
            except DocumentFrozen:
                rejected += 1
            assert doc_path.read_bytes() == frozen_bytes
        assert rejected == 50
        with pytest.raises(DocumentFrozen):
            ScriptRunner(doc_path).run(parse_script("ADD 9 ff\nSTEP\n"))
        assert doc_path.read_bytes() == frozen_bytes
        assert guard_edit(env) is EditGuard.LOCKED

        # removing every signature unfreezes; the edit then succeeds
        unsigned = remove_signature(remove_signature(env, "ivanov"), "petrov")
        assert guard_edit(unsigned) is EditGuard.ALLOWED
        save_document(doc_path, unsigned)
        ScriptRunner(doc_path).run(parse_script("ADD 9 ff\nSTEP\n"))
        assert doc_path.read_bytes() != frozen_bytes

        # wrong password deterministically refused, right one accepted
        for _ in range(3):
            assert authenticate_signature(env, "ivanov", "pw-wrong") is AuthResult.BAD_PASSWORD
            assert authenticate_signature(env, "ivanov", "pw-one") is AuthResult.AUTHENTIC
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_format_stability(tmp_path):
    """The journal, blob-log and envelope byte layouts stay pinned to their
    golden files, and decode-then-reencode is byte-identical."""
    with criterion("format stability (golden TCGJ/TCGP/TCGE layouts)"):
        from draftvault.ppversions import recover_pp_log
        from draftvault.signatures import encode_envelope, parse_envelope

        drawing = Drawing()
        journal = Journal.begin_session(drawing, tmp_path / "j")
        journal.commit_step(drawing, [(FLAG_ADDED, ElementPayload(1, b"\xaa")),
                                      (FLAG_ADDED, ElementPayload(2, b"\xbb"))])
        journal.commit_step(drawing, [(FLAG_DELETED, ElementPayload(1, b"\xaa"))])
        journal.close()
        assert (tmp_path / "j").read_bytes().hex() == GOLD_TCGJ

        log = PPVersionLog.create(tmp_path / "p")
        for blob in (b"\xaa\x01", b"", b"\xcc\xdd\xee"):
            log.commit_pp(blob)
        log.close()
        assert (tmp_path / "p").read_bytes().hex() == GOLD_TCGP

        env = sign(SignedEnvelope(document=bytes.fromhex(GOLD_TCGD)),
                   "ivanov", "secret-1", signed_at=1_700_000_000, salt=bytes(range(16)))
        assert encode_envelope(env).hex() == GOLD_TCGE

        # re-encoding decoded files is byte-identical
        steps, _, _ = index_journal(bytes.fromhex(GOLD_TCGJ))
        redrawn = Drawing()
        rejournal = Journal.begin_session(redrawn, tmp_path / "j2")
        for step in steps:
            rejournal.commit_step(redrawn, step.changes)
        rejournal.close()
        assert (tmp_path / "j2").read_bytes().hex() == GOLD_TCGJ

        relog_src, _ = recover_pp_log(tmp_path / "p")
        relog = PPVersionLog.create(tmp_path / "p2")
        for blob in relog_src.versions:
            relog.commit_pp(blob)
        relog.close()
        assert (tmp_path / "p2").read_bytes().hex() == GOLD_TCGP

        assert encode_envelope(parse_envelope(bytes.fromhex(GOLD_TCGE))).hex() == GOLD_TCGE
