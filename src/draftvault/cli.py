"""draftvault command line.

Exit codes: 0 success (including graceful no-ops like "nothing to
undo"), 1 usage error, 2 I/O abort or busy document, 3 verification or
integrity failure (tampered signature, frozen document, corrupt file).

All time-dependent behaviour accepts injected clocks (``--now``,
``--today``) so runs are reproducible; without them the real clock is
used.  Environment: DRAFTVAULT_AUTOSAVE_DIR overrides the autosave
directory, DRAFTVAULT_PASSWORD supplies the signing password
non-interactively (meant for tests and scripting).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .errors import (
    BadHeader,
    Corrupt,
    DocumentFrozen,
    DraftVaultError,
    DuplicateSigner,
    IoFailure,
    Locked,
    NoSuchSigner,
    NothingToRedo,
    NothingToUndo,
    NotFound,
    OutOfRange,
    ScriptError,
    WeakPassword,
)
from .paths import STREAMS, for_doc

PASSWORD_ENV = "DRAFTVAULT_PASSWORD"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _parse_now(text: str | None) -> float:
    if text is None:
        return time.time()
    import datetime as dt

    moment = dt.datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=dt.timezone.utc)
    return moment.timestamp()


def _iso(now: float) -> str:
    import datetime as dt

    return dt.datetime.fromtimestamp(now, dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# -- commands -----------------------------------------------------------------
#
# Each command imports the modules it uses when it runs, so that a cold
# call loads only those.


def _log_warnings() -> None:
    """Show the warnings of autosave and backup (discarded leftovers,
    skipped files) on stderr; only the commands that run them call this."""
    import logging

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(message)s")


def _unlink_all(io, paths) -> None:
    for path in paths:
        try:
            io.unlink(path)
        except FileNotFoundError:
            pass


def cmd_edit(args) -> int:
    from .autosave import AutosaveConfig
    from .fileio import FileIO
    from .locks import SessionLock
    from .script import ScriptRunner, parse_script

    _log_warnings()
    paths = for_doc(args.doc)
    io = FileIO()
    autosave_cfg = None
    if getattr(args, "interval", None):
        autosave_cfg = AutosaveConfig(args.interval, paths.autosave_dir())
    with SessionLock(paths.doc):
        runner = ScriptRunner(
            paths.doc,
            io=io,
            autosave=autosave_cfg,
            start_time=_parse_now(args.now),
            step_seconds=args.step_seconds,
        )
        result = runner.run(parse_script(Path(args.script).read_text()),
                            abort_after_step=getattr(args, "abort_after_step", None))
    for notice in result.notices:
        print(notice)
    if result.aborted:
        print(f"aborted after step {result.steps_committed} (session left as-is)")
    else:
        print(f"committed {result.steps_committed} step(s); cursor at {result.cursor} of {result.step_count}")
    if result.pp_cursor is not None:
        print(f"pp at version {result.pp_cursor} of {result.pp_count}")
    return 0


def _move_cursor(args, direction: str) -> int:
    from .fileio import FileIO
    from .journal import Journal
    from .locks import SessionLock
    from .sidecar import read_sidecar, write_sidecar
    from .signatures import SignedEnvelope, load_editable, save_document

    paths = for_doc(args.doc)
    io = FileIO()
    if not io.exists(paths.journal):
        print(f"nothing to {direction}")
        return 0
    with SessionLock(paths.doc):
        drawing = load_editable(paths.doc, io)
        state = read_sidecar(paths.sidecar, io)
        journal = Journal.resume(paths.journal, io, state.journal_cursor, state.positions)
        try:
            moved = 0
            for _ in range(args.count):
                try:
                    if direction == "undo":
                        journal.undo_step(drawing)
                    else:
                        journal.redo_step(drawing)
                    moved += 1
                except (NothingToUndo, NothingToRedo):
                    break
            if moved:
                save_document(paths.doc, SignedEnvelope(document=drawing.canonical_bytes()), io)
                state.journal_cursor = journal.cursor
                state.positions = journal.session_positions()
                write_sidecar(paths.sidecar, state, io)
        finally:
            journal.close()
    if moved:
        print(f"{direction}: {moved} step(s); cursor at {journal.cursor} of {journal.step_count}")
    else:
        print(f"nothing to {direction}")
    return 0


def cmd_undo(args) -> int:
    return _move_cursor(args, "undo")


def cmd_redo(args) -> int:
    return _move_cursor(args, "redo")


def cmd_history(args) -> int:
    """The steps' figures come from the journal's frame heads; no payload
    is decoded."""
    from .fileio import FileIO
    from .framelog import clamp_cursor
    from .journal import inspect_journal
    from .sidecar import read_sidecar

    paths = for_doc(args.doc)
    io = FileIO()
    if not io.exists(paths.journal):
        print("no session history")
        return 0
    journal, truncated = inspect_journal(paths.journal, io)
    state = read_sidecar(paths.sidecar, io)
    cursor = clamp_cursor(state.journal_cursor, journal.step_count)
    lines = []
    for step in journal.steps:
        records, added, size = step.figures
        marker = "  <- cursor" if step.step_no == cursor else ""
        lines.append(f"step {step.step_no}: +{added} -{records - added} ({size} payload bytes){marker}")
    if cursor == 0:
        lines.append("cursor at session start")
    torn = " (torn tail ignored)" if truncated else ""
    lines.append(f"{journal.step_count} step(s) in session journal{torn}")
    print("\n".join(lines))  # one write: on an unbuffered stdout each print is a syscall
    return 0


def cmd_pp(args) -> int:
    from .fileio import FileIO
    from .framelog import clamp_cursor
    from .locks import SessionLock
    from .ppversions import PPVersionLog
    from .sidecar import read_sidecar, write_sidecar

    paths = for_doc(args.doc)
    io = FileIO()
    with SessionLock(paths.doc):
        state = read_sidecar(paths.sidecar, io)
        log = PPVersionLog.open(paths.pp_log, io=io)
        log.cursor = clamp_cursor(state.pp_cursor, log.version_count)
        try:
            if args.pp_op == "commit":
                version = log.commit_pp(bytes.fromhex(args.data))
                print(f"committed version {version}")
            elif args.pp_op == "undo":
                try:
                    blob = log.undo_pp()
                    print(f"at version {log.cursor} of {log.version_count}: {blob.data.hex()}")
                except NothingToUndo:
                    print("nothing to undo")
            elif args.pp_op == "redo":
                try:
                    blob = log.redo_pp()
                    print(f"at version {log.cursor} of {log.version_count}: {blob.data.hex()}")
                except NothingToRedo:
                    print("nothing to redo")
            else:  # jump
                blob = log.jump_pp(args.to)
                print(f"at version {log.cursor} of {log.version_count}: {blob.data.hex()}")
            state.pp_cursor = log.cursor
            write_sidecar(paths.sidecar, state, io)
        finally:
            log.close()
    return 0


def cmd_recover(args) -> int:
    """Probe, discard and restore all run under the document's session
    lock: the autosave files of a live session are not leftovers."""
    from .autosave import probe_recovery, restore
    from .fileio import FileIO
    from .locks import SessionLock
    from .ppversions import PPVersionLog
    from .sidecar import read_sidecar, write_sidecar
    from .signatures import SignedEnvelope, load_editable, save_document

    _log_warnings()
    paths = for_doc(args.doc)
    io = FileIO()
    autosave_dir = paths.autosave_dir(Path(args.autosave_dir) if args.autosave_dir else None)
    with SessionLock(paths.doc):
        aset = probe_recovery(autosave_dir, paths.name, io)
        if aset is None:
            print(f"no autosave found for {paths.name}")
            return 0
        print(f"autosave set found for {paths.name} (saved at t={aset.created_at}, "
              f"drawing {aset.drawing_size} bytes"
              + (f", pp {aset.pp_size} bytes)" if aset.pp_sha else ", no pp)"))
        set_paths = [aset.marker, aset.drawing_copy] + ([aset.pp_copy] if aset.pp_copy else [])
        if args.discard:
            _unlink_all(io, set_paths)
            print("autosave set discarded")
        elif args.apply:
            load_editable(paths.doc, io)  # refuses a signed or damaged document
            drawing, pp = restore(aset, io)
            save_document(paths.doc, SignedEnvelope(document=drawing.canonical_bytes()), io)
            if pp is not None:
                state = read_sidecar(paths.sidecar, io)
                log = PPVersionLog.open(paths.pp_log, io=io)
                try:
                    state.pp_cursor = log.commit_pp(pp)
                finally:
                    log.close()
                write_sidecar(paths.sidecar, state, io)
            _unlink_all(io, set_paths)
            print(f"restored {paths.doc}" + (" and pp" if pp is not None else ""))
        else:
            print("run again with --apply to restore it, or --discard to drop it")
    return 0


def cmd_backup(args) -> int:
    import datetime as dt

    from . import backup as backup_mod

    _log_warnings()
    config = backup_mod.parse_config(Path(args.config))
    manifest = backup_mod.load_manifest(config.vault_root)
    today = dt.date.fromisoformat(args.today) if args.today else dt.date.today()
    if not backup_mod.backup_due(config, manifest, today):
        print("backup not due")
        return 0
    backup_set, _ = backup_mod.run_backup(config, manifest, today)
    if backup_set.dir is None:
        print("nothing changed since last backup; date recorded")
    else:
        print(f"backed up {len(backup_set.copied)} file(s) into {backup_set.dir}")
    return 0


def _password() -> str:
    password = os.environ.get(PASSWORD_ENV)
    if password is not None:
        return password
    import getpass

    return getpass.getpass("signature password: ")


def cmd_sign(args) -> int:
    from .fileio import FileIO
    from .locks import SessionLock
    from .signatures import load_document, save_document, sign

    paths = for_doc(args.doc)
    io = FileIO()
    now = _parse_now(args.now)
    with SessionLock(paths.doc):
        env = load_document(paths.doc, io)
        env = sign(env, args.signer, _password(), signed_at=int(now))
        save_document(paths.doc, env, io)
    print(f"signed by {args.signer}; {len(env.signatures)} signature(s) now on {paths.name}")
    return 0


def cmd_unsign(args) -> int:
    from .fileio import FileIO
    from .locks import SessionLock
    from .signatures import append_audit, load_document, remove_signature, save_document

    paths = for_doc(args.doc)
    io = FileIO()
    now = _parse_now(args.now)
    with SessionLock(paths.doc):
        env = load_document(paths.doc, io)
        env = remove_signature(env, args.signer)
        save_document(paths.doc, env, io)
        append_audit(paths.siglog, _iso(now), args.signer, len(env.signatures), io)
    print(f"signature of {args.signer} removed; {len(env.signatures)} remain")
    if not env.signatures:
        print(f"{paths.name} is now visibly unsigned and editable")
    return 0


def cmd_verify(args) -> int:
    from .fileio import FileIO
    from .signatures import IntegrityStatus, load_document, verify_integrity

    paths = for_doc(args.doc)
    env = load_document(paths.doc, FileIO())
    results = verify_integrity(env)
    if not results:
        print(f"{paths.name} carries no signatures")
        return 0
    failed = False
    for signer, status in results:
        print(f"{signer}: {status.value}")
        failed = failed or status is not IntegrityStatus.INTACT
    return 3 if failed else 0


def cmd_crash_sim(args) -> int:
    from .autosave import AutosaveConfig
    from .faultsim import FaultPlan, crash_sim

    _log_warnings()
    autosave_cfg = None
    if args.interval:
        paths = for_doc(args.doc)
        autosave_cfg = AutosaveConfig(args.interval, paths.autosave_dir())
    report = crash_sim(
        Path(args.doc),
        Path(args.script).read_text(),
        FaultPlan(args.kill_at_byte, args.target),
        autosave=autosave_cfg,
        start_time=_parse_now(args.now),
        step_seconds=args.step_seconds,
    )
    for line in report.lines():
        print(line)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="draftvault", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_now(p):
        p.add_argument("--now", help="inject the clock (ISO 8601)", default=None)

    p = sub.add_parser("edit", help="run an edit script as one session")
    p.add_argument("doc")
    p.add_argument("--script", required=True)
    p.add_argument("--step-seconds", type=float, default=1.0)
    add_now(p)
    p.set_defaults(func=cmd_edit, interval=None)

    for name, func in (("undo", cmd_undo), ("redo", cmd_redo)):
        p = sub.add_parser(name, help=f"{name} committed steps of the last session")
        p.add_argument("doc")
        p.add_argument("-n", dest="count", type=int, default=1)
        p.set_defaults(func=func)

    p = sub.add_parser("history", help="list the session's committed steps")
    p.add_argument("doc")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("pp", help="parametric blob version history")
    pp_sub = p.add_subparsers(dest="pp_op", required=True)
    for op in ("commit", "undo", "redo", "jump"):
        q = pp_sub.add_parser(op)
        q.add_argument("doc")
        if op == "commit":
            q.add_argument("--data", required=True, help="blob bytes as hex")
        if op == "jump":
            q.add_argument("--to", type=int, required=True)
        q.set_defaults(func=cmd_pp)

    p = sub.add_parser("autosave-run", help="scripted session with timed autosave")
    p.add_argument("doc")
    p.add_argument("--script", required=True)
    p.add_argument("--interval", type=float, required=True)
    p.add_argument("--step-seconds", type=float, default=1.0)
    p.add_argument("--abort-after-step", type=int, default=None,
                   help="simulate abnormal termination after N committed steps")
    add_now(p)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("recover", help="look for (and optionally restore) an autosave set")
    p.add_argument("doc")
    p.add_argument("--apply", action="store_true")
    p.add_argument("--discard", action="store_true")
    p.add_argument("--autosave-dir", default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("backup", help="incremental backup per config file")
    p.add_argument("--config", required=True)
    p.add_argument("--today", default=None, help="inject the date (YYYY-MM-DD)")
    p.set_defaults(func=cmd_backup)

    p = sub.add_parser("sign", help="add a password-protected signature (freezes the doc)")
    p.add_argument("doc")
    p.add_argument("--signer", required=True)
    add_now(p)
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("unsign", help="remove a signature (no password; audit-logged)")
    p.add_argument("doc")
    p.add_argument("--signer", required=True)
    add_now(p)
    p.set_defaults(func=cmd_unsign)

    p = sub.add_parser("verify", help="check signed content integrity")
    p.add_argument("doc")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("crash-sim", help="run a script under fault injection and audit recovery")
    p.add_argument("doc")
    p.add_argument("--script", required=True)
    p.add_argument("--kill-at-byte", type=int, required=True)
    p.add_argument("--target", choices=STREAMS, required=True)
    p.add_argument("--interval", type=float, default=None)
    p.add_argument("--step-seconds", type=float, default=1.0)
    add_now(p)
    p.set_defaults(func=cmd_crash_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ScriptError, WeakPassword, DuplicateSigner, NoSuchSigner, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (Locked, IoFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DocumentFrozen, Corrupt, BadHeader, NotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DraftVaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
