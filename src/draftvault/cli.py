"""draftvault command line.

Exit codes: 0 success (including graceful no-ops like "nothing to
undo"), 1 usage error (a bad option value among them), 2 I/O abort or
busy document, 3 verification or integrity failure (tampered signature,
frozen document, corrupt file).  Each error class carries its own code
(``DraftVaultError.exit_code``).

Option values are converted by the parser: a bad one (``--now
yesterday``, ``--data zz``, ``--interval 0``) is a usage error before
any command runs, so no lock is taken and no file touched.  All
time-dependent behaviour accepts injected clocks (``--now``,
``--today``) so runs are reproducible; without them the clock read when
the parser is built is used.  Environment: DRAFTVAULT_AUTOSAVE_DIR names the autosave directory
when ``--autosave-dir`` does not, DRAFTVAULT_PASSWORD supplies the
signing password non-interactively (meant for tests and scripting).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .errors import DraftVaultError, NothingToRedo, NothingToUndo
from .fileio import FileIO
from .paths import STREAMS, for_doc

PASSWORD_ENV = "DRAFTVAULT_PASSWORD"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


# -- option values ------------------------------------------------------------
#
# The ``type=`` functions of the parser.  A ValueError from one is a usage
# error, which argparse reports as "invalid <function name> value".


def iso_time(text: str) -> float:
    """An ISO 8601 moment, UTC unless it names a zone, not before 1970."""
    import datetime as dt

    moment = dt.datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=dt.timezone.utc)
    stamp = moment.timestamp()
    if stamp < 0:
        raise ValueError(text)
    return stamp


def iso_date(text: str):
    import datetime as dt

    return dt.date.fromisoformat(text)


def hex_bytes(text: str) -> bytes:
    return bytes.fromhex(text)


def positive(text: str) -> float:
    """A number above zero, as an autosave interval must be."""
    value = float(text)
    if not value > 0:
        raise ValueError(text)
    return value


def offset(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def signer_id(text: str) -> str:
    """Non-empty UTF-8 that fits the signature record's u16 length."""
    if not 0 < len(text.encode()) <= 0xFFFF:
        raise ValueError(text)
    return text


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


def cmd_edit(args) -> int:
    from .autosave import AutosaveConfig
    from .script import ScriptRunner, parse_script

    _log_warnings()
    paths = for_doc(args.doc)
    autosave_cfg = None
    if args.interval:
        autosave_cfg = AutosaveConfig(args.interval, paths.autosave_dir())
    runner = ScriptRunner(paths.doc, io=args.io, autosave=autosave_cfg,
                          start_time=args.now, step_seconds=args.step_seconds)
    result = runner.run(parse_script(Path(args.script).read_text()))
    for notice in result.notices:
        print(notice)
    print(f"committed {result.steps_committed} step(s); cursor at {result.cursor} of {result.step_count}")
    if result.pp_cursor is not None:
        print(f"pp at version {result.pp_cursor} of {result.pp_count}")
    if result.autosave_failures:
        print(f"autosave failed {result.autosave_failures} time(s)")
    return 0


def cmd_move(args) -> int:
    """``undo`` or ``redo``, by the command's name."""
    from .session import Session

    direction = args.command
    paths = for_doc(args.doc)
    if not args.io.exists(paths.journal):
        print(f"nothing to {direction}")
        return 0
    with Session(paths.doc, args.io) as session:
        drawing = session.load()
        journal = session.open_journal()
        move = journal.undo_step if direction == "undo" else journal.redo_step
        moved = 0
        for _ in range(args.count):
            try:
                move(drawing)
            except (NothingToUndo, NothingToRedo):
                break
            moved += 1
        if moved:
            session.save(drawing.canonical_bytes())
    if moved:
        print(f"{direction}: {moved} step(s); cursor at {journal.cursor} of {journal.step_count}")
    else:
        print(f"nothing to {direction}")
    return 0


def cmd_history(args) -> int:
    """The steps' figures come from the journal's frame heads; no payload
    is decoded."""
    from .framelog import clamp_cursor
    from .journal import inspect_journal
    from .sidecar import read_sidecar

    paths = for_doc(args.doc)
    if not args.io.exists(paths.journal):
        print("no session history")
        return 0
    journal, truncated = inspect_journal(paths.journal, args.io)
    cursor = read_sidecar(paths.sidecar, args.io).journal_cursor
    if cursor is not None:
        cursor = clamp_cursor(cursor, journal.step_count)
    lines = []
    for step in journal.steps:
        records, added, size = step.figures
        marker = "  <- cursor" if step.step_no == cursor else ""
        lines.append(f"step {step.step_no}: +{added} -{records - added} ({size} payload bytes){marker}")
    if cursor is None:
        lines.append(f"cursor unknown: {paths.sidecar.name} is missing or damaged")
    elif cursor == 0:
        lines.append("cursor at session start")
    torn = " (torn tail ignored)" if truncated else ""
    lines.append(f"{journal.step_count} step(s) in session journal{torn}")
    print("\n".join(lines))  # one write: on an unbuffered stdout each print is a syscall
    return 0


def cmd_pp(args) -> int:
    from .session import Session

    with Session(args.doc, args.io) as session:
        log = session.open_pp_log()
        if args.pp_op == "commit":
            print(f"committed version {log.commit_pp(args.data)}")
        else:
            try:
                blob = log.jump_pp(args.to) if args.pp_op == "jump" else getattr(log, f"{args.pp_op}_pp")()
                print(f"at version {log.cursor} of {log.version_count}: {blob.hex()}")
            except (NothingToUndo, NothingToRedo):
                print(f"nothing to {args.pp_op}")
        session.save()
    return 0


def cmd_recover(args) -> int:
    """Probe, discard and restore all run under the document's session
    lock: the autosave files of a live session are not leftovers."""
    from .autosave import probe_recovery, restore
    from .session import Session

    _log_warnings()
    paths = for_doc(args.doc)
    io = args.io
    autosave_dir = paths.autosave_dir(args.autosave_dir)
    with Session(paths.doc, io) as session:
        aset = probe_recovery(autosave_dir, paths.name, io)
        if aset is None:
            print(f"no autosave found for {paths.name}")
            return 0
        print(f"autosave set found for {paths.name} (saved at t={aset.created_at}, "
              f"drawing {aset.drawing_size} bytes"
              + (f", pp {aset.pp_size} bytes)" if aset.pp_sha else ", no pp)"))
        if args.discard:
            io.unlink(aset.path)
            print("autosave set discarded")
        elif args.apply:
            session.load()  # refuses a signed or damaged document
            drawing, pp = restore(aset, io)
            # The blob goes first, after every stored version, and only if
            # the newest is not already it: a rerun after a crash stores it
            # once.  Then the sidecar, with the journal cursor unknown, and
            # the document (see Session.restore); the set goes last.
            if pp is not None:
                session.remembered().pp_cursor = None
                log = session.open_pp_log()
                if not log.version_count or log.current() != pp:
                    log.commit_pp(pp)
            session.restore(drawing.canonical_bytes())
            io.unlink(aset.path)
            print(f"restored {paths.doc}" + (" and pp" if pp is not None else ""))
        else:
            print("run again with --apply to restore it, or --discard to drop it")
    return 0


def cmd_backup(args) -> int:
    from . import backup as backup_mod

    _log_warnings()
    config = backup_mod.parse_config(Path(args.config))
    manifest = backup_mod.load_manifest(config.vault_root)
    if not backup_mod.backup_due(config, manifest, args.today):
        print("backup not due")
        return 0
    backup_set, _ = backup_mod.run_backup(config, manifest, args.today, args.io)
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
    """The password is read before the lock is taken: a prompt must not
    keep other writers out."""
    from .locks import SessionLock
    from .signatures import load_document, save_document, sign

    paths = for_doc(args.doc)
    password = _password()
    with SessionLock(paths.doc):
        env = load_document(paths.doc, args.io)
        env = sign(env, args.signer, password, signed_at=int(args.now))
        save_document(paths.doc, env, args.io)
    print(f"signed by {args.signer}; {len(env.signatures)} signature(s) now on {paths.name}")
    return 0


def cmd_unsign(args) -> int:
    from .locks import SessionLock
    from .signatures import append_audit, load_document, remove_signature, save_document

    paths = for_doc(args.doc)
    with SessionLock(paths.doc):
        env = load_document(paths.doc, args.io)
        env = remove_signature(env, args.signer)
        save_document(paths.doc, env, args.io)
        append_audit(paths.siglog, _iso(args.now), args.signer, len(env.signatures), args.io)
    print(f"signature of {args.signer} removed; {len(env.signatures)} remain")
    if not env.signatures:
        print(f"{paths.name} is now visibly unsigned and editable")
    return 0


def cmd_verify(args) -> int:
    from .signatures import IntegrityStatus, load_document, verify_integrity

    paths = for_doc(args.doc)
    env = load_document(paths.doc, args.io)
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
        start_time=args.now,
        step_seconds=args.step_seconds,
    )
    for line in report.lines():
        print(line)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="draftvault", description=__doc__.splitlines()[0])
    parser.set_defaults(io=FileIO())
    sub = parser.add_subparsers(dest="command", required=True)

    now = time.time()

    def add_now(p):
        p.add_argument("--now", type=iso_time, default=now, help="inject the clock (ISO 8601)")

    p = sub.add_parser("edit", help="run an edit script as one session")
    p.add_argument("doc")
    p.add_argument("--script", required=True)
    p.add_argument("--step-seconds", type=float, default=1.0)
    add_now(p)
    p.set_defaults(func=cmd_edit, interval=None)

    for name in ("undo", "redo"):
        p = sub.add_parser(name, help=f"{name} committed steps of the last session")
        p.add_argument("doc")
        p.add_argument("-n", dest="count", type=int, default=1)
        p.set_defaults(func=cmd_move)

    p = sub.add_parser("history", help="list the session's committed steps")
    p.add_argument("doc")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("pp", help="parametric blob version history")
    pp_sub = p.add_subparsers(dest="pp_op", required=True)
    for op in ("commit", "undo", "redo", "jump"):
        q = pp_sub.add_parser(op)
        q.add_argument("doc")
        if op == "commit":
            q.add_argument("--data", type=hex_bytes, required=True, help="blob bytes as hex")
        if op == "jump":
            q.add_argument("--to", type=int, required=True)
        q.set_defaults(func=cmd_pp)

    p = sub.add_parser("autosave-run", help="scripted session with timed autosave")
    p.add_argument("doc")
    p.add_argument("--script", required=True)
    p.add_argument("--interval", type=positive, required=True)
    p.add_argument("--step-seconds", type=float, default=1.0)
    add_now(p)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("recover", help="look for (and optionally restore) an autosave set")
    p.add_argument("doc")
    p.add_argument("--apply", action="store_true")
    p.add_argument("--discard", action="store_true")
    p.add_argument("--autosave-dir", type=Path, default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("backup", help="incremental backup per config file")
    p.add_argument("--config", required=True)
    # a string default goes through ``type`` too, and only when backup runs
    p.add_argument("--today", type=iso_date, default=time.strftime("%Y-%m-%d"),
                   help="inject the date (YYYY-MM-DD)")
    p.set_defaults(func=cmd_backup)

    p = sub.add_parser("sign", help="add a password-protected signature (freezes the doc)")
    p.add_argument("doc")
    p.add_argument("--signer", type=signer_id, required=True)
    add_now(p)
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("unsign", help="remove a signature (no password; audit-logged)")
    p.add_argument("doc")
    p.add_argument("--signer", type=signer_id, required=True)
    add_now(p)
    p.set_defaults(func=cmd_unsign)

    p = sub.add_parser("verify", help="check signed content integrity")
    p.add_argument("doc")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("crash-sim", help="run a script under fault injection and audit recovery")
    p.add_argument("doc")
    p.add_argument("--script", required=True)
    p.add_argument("--kill-at-byte", type=offset, required=True)
    p.add_argument("--target", choices=STREAMS, required=True)
    p.add_argument("--interval", type=positive, default=None)
    p.add_argument("--step-seconds", type=float, default=1.0)
    add_now(p)
    p.set_defaults(func=cmd_crash_sim)

    return parser


def main(argv=None, io=None) -> int:
    """Run one command; ``io`` (default: a plain FileIO) carries every
    file operation of the commands that take one."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if io is not None:
        args.io = io
    try:
        return args.func(args)
    except DraftVaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
