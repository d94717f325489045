"""The three workloads, written once and driven two ways.

``edit_rounds`` is an editor host that embeds the library; it always runs
inside a worker process of its own and replays sessions that the parent
planned with ``build_edit_plan``.  The scripted and CLI workloads take a
``call(name, argv) -> (exit_code, stdout)`` function, so the same sessions,
rounds and output checks run against ``python -m draftvault`` children
(end-to-end pass) or against ``draftvault.cli.main`` in-process (traced pass).

Every function here needs ``src`` on ``sys.path``; imports of the program
are local so that the parent can import this module without the program.
"""
from __future__ import annotations

import datetime as dt
import pickle
import shutil
from collections import Counter
from pathlib import Path
from time import perf_counter

from common import (
    FLAG_ADDED,
    Oracle,
    decode_drawing,
    encode_drawing,
    encode_journal,
    encode_pp_log,
    median,
    percentile,
    random_element,
    rng_for,
    write_synced,
)

START = dt.datetime(2026, 1, 5, 9, 0, 0)
DOC_NAME = "plant.tcgd"


def corrupt(data: bytes) -> bytes:
    """Flip one bit in the middle: the deliberate fault of ``--corrupt-output``."""
    if not data:
        return b"\x00"
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- edit_session: an editor host embedding the library ---------------------------


class EditRun:
    """Latency samples and counters of an ``edit_rounds`` pass."""

    def __init__(self):
        self.commit_s: list[float] = []
        self.undo_redo_s: list[float] = []
        self.blob_s: list[float] = []
        self.autosave_write_s: list[float] = []
        self.program_s = 0.0  # time inside program calls: ops, ticks, open, save, close
        self.ops = 0
        self.failed = 0
        self.payload_bytes = 0
        self.mix = Counter()

    def summary(self) -> dict:
        return {
            "commit_p50_ms": median(self.commit_s) * 1e3,
            "commit_p99_ms": percentile(self.commit_s, 0.99) * 1e3 if self.commit_s else 0.0,
            "commits": len(self.commit_s),
            "undo_redo_p50_ms": median(self.undo_redo_s) * 1e3,
            "undo_redos": len(self.undo_redo_s),
            "autosave_p50_ms": median(self.autosave_write_s) * 1e3,
            "autosave_writes": len(self.autosave_write_s),
            "blob_p50_ms": median(self.blob_s) * 1e3,
            "edit_ops_per_s": self.ops / self.program_s if self.program_s else 0.0,
            "program_s": self.program_s,
            "ops": self.ops,
            "failed": self.failed,
            "payload_bytes": self.payload_bytes,
            "mix": dict(self.mix),
        }


def _draw_op(rng, cursor: int, queue: list[str]) -> str:
    """Next editor op: about 75% commits, 10% undo, 10% redo, 5% blob
    commits.  Undo comes in runs of 1-3 that are mostly redone in full;
    otherwise the next commit drops the rest of the redo tail."""
    x = rng.random()
    if x < 0.0588 and cursor > 0:
        k = min(rng.randint(1, 3), cursor)
        redo = k if rng.random() < 0.75 else k - 1
        queue.extend(["undo"] * (k - 1) + ["redo"] * redo)
        return "undo"
    if x > 0.9412:
        return "blob"
    return "commit"


def build_edit_plan(seed: int, sz: dict, plan: Path) -> None:
    """Write the edit sessions' inputs and expected outputs under ``plan``.

    ``start.tcgd`` is the starting drawing every session opens.  Session
    ``k`` has its ops in ``k.ops`` (a pickle of ``(op, argument)`` pairs with
    the step count and user payload bytes) and the document and journal
    bytes the program must leave in ``k.tcgd`` and ``k.journal``.  The list
    oracle lives only here, so the process that replays the ops holds none
    of it and its peak RSS is the program's.
    """
    rng = rng_for(seed, "edit", "drawing")
    initial = [random_element(rng) for _ in range(sz["elements"])]
    write_synced(plan / "start.tcgd", encode_drawing(initial))
    for k in range(sz["sessions"]):
        rng = rng_for(seed, "edit", "ops", k)
        oracle = Oracle(initial)
        ops, queue, payload = [], [], 0
        for _ in range(sz["ops_per_round"]):
            op = queue.pop(0) if queue else _draw_op(rng, oracle.cursor, queue)
            arg = None
            if op == "commit":
                arg = oracle.make_step(rng, rng.randint(1, 6), 0.5, modify=True)
                payload += sum(len(data) for flag, (_, data) in arg if flag == FLAG_ADDED)
            elif op == "blob":
                arg = rng.randbytes(sz["blob_bytes"])
                payload += len(arg)
            else:
                getattr(oracle, op)()
            ops.append((op, arg))
        write_synced(plan / f"{k}.ops", pickle.dumps(
            {"ops": ops, "steps": len(oracle.steps), "payload_bytes": payload}))
        write_synced(plan / f"{k}.tcgd", encode_drawing(oracle.elements))
        write_synced(plan / f"{k}.journal", encode_journal(oracle.steps))


def same_bytes(a: Path, b: Path) -> bool:
    """Compare two files in chunks, so that neither is held whole in memory."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(1 << 16), fb.read(1 << 16)
            if x != y:
                return False
            if not x:
                return True


def edit_rounds(plan: Path, sz: dict, workdir: Path, *, seconds: float | None = None,
                rounds: int | None = None, tracer=None, corrupt_output: bool = False) -> EditRun:
    """Replay the sessions of ``plan`` in turn until ``rounds`` are done, or
    until ``seconds`` have passed and the commit quota is met.

    A session opens the starting drawing, runs its ops, each followed by an
    autosave tick on a synthetic clock of one unit per op, saves, writes the
    sidecar and closes; then its document and journal are compared with the
    plan's.  Every session starts from the same drawing, so the working-set
    size does not drift with speed.
    """
    from draftvault import (
        AutosaveConfig,
        AutosaveSession,
        Drawing,
        ElementPayload,
        Journal,
        PPVersionLog,
        SignedEnvelope,
        inspect_journal,
        load_document,
        save_document,
    )
    from draftvault.journal import FLAG_ADDED as J_ADDED, FLAG_DELETED as J_DELETED
    from draftvault.sidecar import SidecarState, write_sidecar

    run = EditRun()
    started = perf_counter()
    r = 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if rounds is None and r > 0 and perf_counter() - started >= seconds \
                and len(run.commit_s) >= sz["min_commits"]:
            break
        k = r % sz["sessions"]
        session = pickle.loads((plan / f"{k}.ops").read_bytes())
        d = fresh_dir(workdir / "session")
        doc = d / DOC_NAME
        shutil.copyfile(plan / "start.tcgd", doc)
        journal_path, pp_path = d / (DOC_NAME + ".journal"), d / (DOC_NAME + ".pp")
        clock = 0.0

        t0 = perf_counter()
        drawing = Drawing.from_canonical_bytes(load_document(doc).document, name="plant")
        journal = Journal.begin_session(drawing, journal_path)
        pp = PPVersionLog.open(pp_path)
        saver = AutosaveSession(DOC_NAME, drawing,
                                AutosaveConfig(sz["autosave_interval"], fresh_dir(d / "autosave")),
                                started_at=clock)
        run.program_s += perf_counter() - t0

        for op, arg in session["ops"]:
            if op == "commit":
                changes = [(J_ADDED if flag == FLAG_ADDED else J_DELETED, ElementPayload(kind, data))
                           for flag, (kind, data) in arg]
            if tracer is not None:
                tracer.op = run.ops
            clock += 1.0
            try:
                t0 = perf_counter()
                if op == "commit":
                    journal.commit_step(drawing, changes)
                elif op == "undo":
                    journal.undo_step(drawing)
                elif op == "redo":
                    journal.redo_step(drawing)
                else:
                    pp.commit_pp(arg)
                    saver.set_current_pp(arg)
                t1 = perf_counter()
                wrote = saver.autosave_tick(clock)
                t2 = perf_counter()
            except Exception:
                run.failed += 1
                break
            finally:
                run.ops += 1
                run.mix[op] += 1
            run.program_s += t2 - t0
            {"commit": run.commit_s, "blob": run.blob_s}.get(op, run.undo_redo_s).append(t1 - t0)
            if wrote is not None:
                run.autosave_write_s.append(t2 - t1)
        run.payload_bytes += session["payload_bytes"]

        if tracer is not None:
            tracer.op = run.ops
        t0 = perf_counter()
        save_document(doc, SignedEnvelope(document=drawing.canonical_bytes()))
        write_sidecar(d / (DOC_NAME + ".session"),
                      SidecarState(journal_cursor=journal.cursor, pp_cursor=pp.cursor))
        saver.clean_shutdown()
        journal.close()
        pp.close()
        run.program_s += perf_counter() - t0

        if tracer is not None:
            tracer.paused = True
        if corrupt_output and r == 0:
            doc.write_bytes(corrupt(doc.read_bytes()))
        run.failed += not same_bytes(doc, plan / f"{k}.tcgd")
        run.failed += not same_bytes(journal_path, plan / f"{k}.journal")
        run.failed += inspect_journal(journal_path)[0].step_count != session["steps"]
        if tracer is not None:
            tracer.paused = False
        r += 1
    return run


# -- scripted_session: the autosave-run CLI over a generated script -------------------


class Script:
    """A generated edit script on disk: ``steps`` steps of 1-4 ADD/DEL lines
    from an empty drawing, with a PPCOMMIT every ``pp_every`` steps, and the
    oracle of the drawing it leaves."""

    def __init__(self, seed: int, steps: int, sz: dict, workdir: Path):
        rng = rng_for(seed, "script", steps)
        self.oracle = Oracle([])
        self.steps, self.blobs, self.payload_bytes = steps, 0, 0
        lines = []
        for s in range(1, steps + 1):
            for flag, (kind, data) in self.oracle.make_step(rng, rng.randint(1, 4), 0.6, modify=False):
                lines.append(f"{'ADD' if flag == FLAG_ADDED else 'DEL'} {kind} {data.hex()}")
                self.payload_bytes += len(data) if flag == FLAG_ADDED else 0
            lines.append("STEP")
            if s % sz["pp_every"] == 0:
                blob = rng.randbytes(sz["pp_bytes"])
                lines.append(f"PPCOMMIT {blob.hex()}")
                self.blobs += 1
                self.payload_bytes += len(blob)
        self.path = workdir / f"script-{steps}.txt"
        write_synced(self.path, ("\n".join(lines) + "\n").encode())


def build_scripts(seed: int, sz: dict, workdir: Path) -> list[Script]:
    return [Script(seed, n, sz, workdir) for n in sz["steps"]]


def scripted_session(call, script: Script, sz: dict, workdir: Path, name: str,
                     corrupt_output: bool = False) -> bool:
    """Run one autosave-run session from an empty document in a fresh
    directory ``workdir/name`` and check it: exit code, the summary lines,
    the saved element multiset and the exact journal bytes."""
    d = fresh_dir(workdir / name)
    doc = d / DOC_NAME
    n = script.steps
    rc, out = call("autosave_run", ["autosave-run", str(doc), "--script", str(script.path),
                                    "--interval", str(sz["autosave_interval"]),
                                    "--now", START.isoformat()])
    ok = rc == 0 and f"committed {n} step(s); cursor at {n} of {n}" in out
    ok = ok and f"pp at version {script.blobs} of {script.blobs}" in out
    if ok:
        saved = doc.read_bytes()
        if corrupt_output:
            saved = corrupt(saved)
        try:
            ok = Counter(decode_drawing(saved)) == Counter(script.oracle.elements)
        except (ValueError, IndexError):
            ok = False
        journal = doc.with_name(DOC_NAME + ".journal").read_bytes()
        ok = ok and journal == encode_journal(script.oracle.steps)
    shutil.rmtree(d, ignore_errors=True)
    return ok


# -- cold_cli: one large session read by cold CLI calls ----------------------------


class ColdFixture:
    """A large session left on disk: document, 10k-step journal with its
    sidecar, blob log, an autosave set of a session that never shut down,
    a watch tree of unchanging drawings and a backup vault seeded by one
    backup run (done by the caller through the CLI)."""

    def __init__(self, seed: int, sz: dict, root: Path):
        from draftvault import AutosaveConfig, AutosaveSession, Drawing
        from draftvault.sidecar import SidecarState, write_sidecar

        rng = rng_for(seed, "cold")
        self.root = fresh_dir(root)
        self.session = fresh_dir(root / "session")
        self.autosave_dir = fresh_dir(root / "autosave")
        self.vault = root / "vault"
        self.doc = self.session / DOC_NAME
        self.steps = sz["journal_steps"]
        self.undo_n = sz["undo_n"]
        self.signer = f"eng{seed % 1000}"
        self.password = f"pw-{seed}"

        oracle = Oracle([random_element(rng) for _ in range(sz["doc_elements"])])
        for _ in range(self.steps):
            oracle.make_step(rng, rng.randint(1, 4), 0.5, modify=False)
        doc_bytes = encode_drawing(oracle.elements)
        write_synced(self.doc, doc_bytes)
        write_synced(self.doc.with_name(DOC_NAME + ".journal"), encode_journal(oracle.steps))
        self.blobs = [rng.randbytes(sz["blob_bytes"]) for _ in range(sz["blobs"])]
        write_synced(self.doc.with_name(DOC_NAME + ".pp"), encode_pp_log(self.blobs))
        write_sidecar(self.doc.with_name(DOC_NAME + ".session"),
                      SidecarState(journal_cursor=self.steps,
                                   positions={i + 1: p for i, p in enumerate(oracle.positions)}))

        saver = AutosaveSession(DOC_NAME, Drawing.from_canonical_bytes(doc_bytes, name="plant"),
                                AutosaveConfig(1.0, self.autosave_dir), started_at=0.0)
        saver.set_current_pp(self.blobs[-1])
        saver.autosave_tick(1.0)  # and never shut down: the set stays behind
        self.doc_size = len(doc_bytes)

        drawings = fresh_dir(root / "drawings")
        for d in range(sz["watch_dirs"]):
            sub = fresh_dir(drawings / f"area{d}")
            for f in range(sz["watch_files"]):
                elements, size = [], 10
                while size < sz["watch_file_bytes"]:
                    elements.append(random_element(rng, 1024, 4096))
                    size += 6 + len(elements[-1][1])
                write_synced(sub / f"sheet{f}.tcgd", encode_drawing(elements))
        self.config = root / "backup.cfg"
        self.config.write_text(
            "weekdays = mon,tue,wed,thu,fri,sat,sun\n"
            f"watch_root = {self.session}\nwatch_root = {drawings}\nvault_root = {self.vault}\n")
        self.jump_rng = rng_for(seed, "cold", "jump")
        self.jump_to = 0

    def day(self, r: int) -> dt.date:
        return START.date() + dt.timedelta(days=r + 1)

    def seed_backup(self, call) -> bool:
        """The first backup copies the whole watch tree; rounds then copy
        only what they changed."""
        rc, out = call("backup", ["backup", "--config", str(self.config),
                                  "--today", START.date().isoformat()])
        return rc == 0 and "backed up" in out

    def round(self, call, r: int, corrupt_output: bool = False) -> int:
        """One round of ten CLI calls; returns how many failed their check."""
        doc, n, u = str(self.doc), self.steps, self.undo_n
        day = self.day(r)
        now = f"{day.isoformat()}T12:00:00"
        k = self.jump_to
        while k == self.jump_to:
            k = self.jump_rng.randint(1, len(self.blobs))
        self.jump_to = k
        dated = self.vault / day.isoformat()
        expected = {f"session/{DOC_NAME}.siglog", f"session/{DOC_NAME}.session"}

        def backed_up(out: str) -> bool:
            copied = {p.relative_to(dated).as_posix() for p in dated.rglob("*") if p.is_file()}
            return f"backed up {len(expected)} file(s) into {dated}" in out and copied == expected

        calls = [
            ("undo", ["undo", doc, "-n", str(u)], lambda out: f"cursor at {n - u} of {n}" in out),
            ("redo", ["redo", doc, "-n", str(u)], lambda out: f"cursor at {n} of {n}" in out),
            ("history", ["history", doc],
             lambda out: out.rstrip().endswith(f"\n{n} step(s) in session journal")),
            ("verify", ["verify", doc], lambda out: f"{DOC_NAME} carries no signatures" in out),
            ("sign", ["sign", doc, "--signer", self.signer, "--now", now],
             lambda out: f"signed by {self.signer}; 1 signature(s)" in out),
            ("verify", ["verify", doc], lambda out: f"{self.signer}: intact" in out),
            ("unsign", ["unsign", doc, "--signer", self.signer, "--now", now],
             lambda out: f"signature of {self.signer} removed; 0 remain" in out),
            ("recover", ["recover", doc],
             lambda out: f"autosave set found for {DOC_NAME}" in out
             and f"drawing {self.doc_size} bytes" in out),
            ("pp_jump", ["pp", "jump", doc, "--to", str(k)],
             lambda out: f"at version {k} of {len(self.blobs)}: {self.blobs[k - 1].hex()}\n" in out),
            ("backup", ["backup", "--config", str(self.config), "--today", day.isoformat()],
             backed_up),
        ]
        failed = 0
        for i, (name, argv, check) in enumerate(calls):
            rc, out = call(name, argv)
            if corrupt_output and r == 0 and i == 0:
                out = corrupt(out.encode()).decode(errors="replace")
            failed += not (rc == 0 and check(out))
        return failed
