"""draftvault command line.

Exit codes: 0 success (including graceful no-ops like "nothing to
undo"), 1 usage error (a bad option value among them), 2 I/O abort or
busy document, 3 verification or integrity failure (tampered signature,
frozen document, corrupt file).  Each error class carries its own code
(``DraftVaultError.exit_code``).

The command line is read by one small parser driven by ``COMMANDS``, a
table of every command's positionals and options; ``--help`` (or
``-h``) prints what the table says, at the top level or after a
command, and exits 0.  Options are spelled in full: ``--opt value`` and
``--opt=value`` are accepted, an abbreviation is not.  Option values
are converted by the parser: a bad one (``--now yesterday``, ``--data
zz``, ``--interval 0``) is a usage error before any command runs, so no
lock is taken and no file touched.  All time-dependent behaviour
accepts injected clocks (``--now``, ``--today``) so runs are
reproducible; without them the clock read when the command line is
parsed is used.  Environment: DRAFTVAULT_AUTOSAVE_DIR names the
autosave directory when ``--autosave-dir`` does not,
DRAFTVAULT_PASSWORD supplies the signing password non-interactively
(meant for tests and scripting).
"""
from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .errors import DraftVaultError, NothingToRedo, NothingToUndo, OutOfRange
from .fileio import FileIO
from .paths import STREAMS, for_doc

PASSWORD_ENV = "DRAFTVAULT_PASSWORD"


class _UsageError(Exception):
    """A command line that names no command to run: exit 1."""


class _Help(Exception):
    """``--help`` was given: its text is printed and the call exits 0."""


# -- option values ------------------------------------------------------------
#
# The converters of the command table.  A ValueError from one is a usage
# error, reported as "invalid <function name> value".


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


def count(text: str) -> int:
    """A number of steps to move: one or more."""
    value = int(text)
    if value < 1:
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


def _today():
    """The local date, the default of ``--today``."""
    return iso_date(time.strftime("%Y-%m-%d"))


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _iso(now: float) -> str:
    import datetime as dt

    return dt.datetime.fromtimestamp(now, dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# -- commands -----------------------------------------------------------------
#
# Each command imports the modules it uses when it runs, so that a cold
# call loads only those.  A warning (a discarded autosave set, a failed
# tick) goes through the ``draftvault.*`` loggers, which import
# ``logging`` when they first have one; unconfigured, it prints the bare
# message on stderr.


def _autosave_config(args):
    """The autosave of ``--interval`` into the document's autosave
    directory, or None without one."""
    from .autosave import AutosaveConfig

    if args.interval is None:
        return None
    return AutosaveConfig(args.interval, for_doc(args.doc).autosave_dir())


def cmd_edit(args, autosave=None, start_time: float = 0.0) -> int:
    """``edit``, and ``autosave-run`` with its autosave and clock."""
    from .script import ScriptRunner, parse_script

    runner = ScriptRunner(args.doc, io=args.io, autosave=autosave, start_time=start_time)
    result = runner.run(parse_script(_read_text(args.script)))
    for notice in result.notices:
        print(notice)
    print(f"committed {result.steps_committed} step(s); cursor at {result.cursor} of {result.step_count}")
    if result.pp_cursor is not None:
        print(f"pp at version {result.pp_cursor} of {result.pp_count}")
    if result.autosave_failures:
        print(f"autosave failed {result.autosave_failures} time(s)")
    return 0


def cmd_autosave_run(args) -> int:
    return cmd_edit(args, _autosave_config(args), args.now)


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
    is decoded.  A remembered cursor past the intact steps marks none of
    them: undo and redo refuse it."""
    from .journal import inspect_journal
    from .sidecar import read_sidecar

    paths = for_doc(args.doc)
    if not args.io.exists(paths.journal):
        print("no session history")
        return 0
    journal, truncated = inspect_journal(paths.journal, args.io)
    cursor = read_sidecar(paths.sidecar, args.io).journal_cursor
    if cursor is not None:
        cursor = max(cursor, 0)
    lines = []
    for step in journal.steps:
        records, added, size = step.figures
        marker = "  <- cursor" if step.step_no == cursor else ""
        lines.append(f"step {step.step_no}: +{added} -{records - added} ({size} payload bytes){marker}")
    if cursor is None:
        lines.append(f"cursor unknown: {os.path.basename(paths.sidecar)} is missing or damaged")
    elif cursor == 0:
        lines.append("cursor at session start")
    elif cursor > journal.step_count:
        lines.append(f"cursor {cursor} is past the {journal.step_count} intact step(s)")
    torn = " (torn tail ignored)" if truncated else ""
    lines.append(f"{journal.step_count} step(s) in session journal{torn}")
    print("\n".join(lines))  # one write: on an unbuffered stdout each print is a syscall
    return 0


def cmd_pp(args) -> int:
    """Only ``commit`` creates a blob log: without one, ``undo`` and
    ``redo`` have nothing to move and ``jump`` no version to reach, and
    neither makes a file."""
    from .session import Session

    paths = for_doc(args.doc)
    if args.pp_op != "commit" and not args.io.exists(paths.pp_log):
        if args.pp_op == "jump":
            raise OutOfRange(f"version {args.to} outside 1..0")
        print(f"nothing to {args.pp_op}")
        return 0
    with Session(paths.doc, args.io) as session:
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
        if args.action == "discard":
            io.unlink(aset.path)
            print("autosave set discarded")
        elif args.action == "apply":
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

    config = backup_mod.parse_config(args.config)
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
        # the audit line first: a removal is never on disk without it
        append_audit(paths.siglog, _iso(args.now), args.signer, len(env.signatures), args.io)
        save_document(paths.doc, env, args.io)
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
    from .faultsim import FaultPlan, crash_sim

    report = crash_sim(args.doc, _read_text(args.script),
                       FaultPlan(args.kill_at_byte, args.target),
                       autosave=_autosave_config(args), start_time=args.now)
    for line in report.lines():
        print(line)
    return 0


# -- the command table --------------------------------------------------------
#
# A command's row is (function name, help, positionals, options); ``pp``'s
# row is (its own table of operations, help).  An option maps its flag to
# (attribute, converter, default, required, help).  The converter makes
# the value of the text; a tuple of choices admits only those, and None
# makes an on/off flag whose value is its own name (``--apply`` sets
# ``action="apply"``): two flags of one attribute exclude each other.  A
# callable default is called when the command line is parsed, so ``--now``
# reads the clock then.

_SCRIPT = {"--script": ("script", str, None, True, "the edit script")}
_NOW = {"--now": ("now", iso_time, time.time, False, "the clock, ISO 8601 (default: now)")}
_SIGNER = {"--signer": ("signer", signer_id, None, True, "the signer's id"), **_NOW}

COMMANDS = {
    "edit": ("cmd_edit", "run an edit script as one session", ("doc",), _SCRIPT),
    **{name: ("cmd_move", f"{name} committed steps of the last session", ("doc",),
              {"-n": ("count", count, 1, False, "how many steps (default 1)")})
       for name in ("undo", "redo")},
    "history": ("cmd_history", "list the session's committed steps", ("doc",), {}),
    "pp": ({
        "commit": ("cmd_pp", "store a new blob version", ("doc",),
                   {"--data": ("data", hex_bytes, None, True, "blob bytes as hex")}),
        "undo": ("cmd_pp", "step back one version", ("doc",), {}),
        "redo": ("cmd_pp", "step forward one version", ("doc",), {}),
        "jump": ("cmd_pp", "go to a version", ("doc",),
                 {"--to": ("to", int, None, True, "the version number")}),
    }, "parametric blob version history"),
    "autosave-run": ("cmd_autosave_run", "scripted session with timed autosave", ("doc",), {
        **_SCRIPT, "--interval": ("interval", positive, None, True, "seconds between autosaves"), **_NOW}),
    "recover": ("cmd_recover", "look for (and optionally restore) an autosave set", ("doc",), {
        "--apply": ("action", None, None, False, "restore the set"),
        "--discard": ("action", None, None, False, "drop the set"),
        "--autosave-dir": ("autosave_dir", str, None, False, "where to look"),
    }),
    "backup": ("cmd_backup", "incremental backup per config file", (), {
        "--config": ("config", str, None, True, "the config file"),
        "--today": ("today", iso_date, _today, False, "the date, YYYY-MM-DD (default: today)"),
    }),
    "sign": ("cmd_sign", "add a password-protected signature (freezes the doc)", ("doc",), _SIGNER),
    "unsign": ("cmd_unsign", "remove a signature (no password; audit-logged)", ("doc",), _SIGNER),
    "verify": ("cmd_verify", "check signed content integrity", ("doc",), {}),
    "crash-sim": ("cmd_crash_sim", "run a script under fault injection and audit recovery", ("doc",), {
        **_SCRIPT,
        "--kill-at-byte": ("kill_at_byte", offset, None, True, "the offset of the power cut"),
        "--target": ("target", STREAMS, None, True, "the stream to cut"),
        "--interval": ("interval", positive, None, False, "seconds between autosaves"),
        **_NOW,
    }),
}


def _is_flag(token: str) -> bool:
    """Whether ``token`` names an option rather than giving a value; a
    negative number is a value."""
    return token.startswith("-") and token != "-" and not token[1:2].isdigit()


def _usage(words: list[str], row) -> str:
    """The usage and help of a command (``row`` holds its options) or of
    a table of commands."""
    if isinstance(row[0], dict):
        lines = [f"usage: {' '.join(words)} <command> ...", "", row[1], "", "commands:"]
        lines += [f"  {name:<14}{sub[1]}" for name, sub in row[0].items()]
        return "\n".join([*lines, "", f"Each command takes --help: {' '.join(words)} <command> --help"])
    _, text, positionals, options = row
    usage = [*words, *positionals]
    for flag, (attr, convert, _, required, _) in options.items():
        shown = flag if convert is None else f"{flag} {attr.upper()}"
        usage.append(shown if required else f"[{shown}]")
    lines = ["usage: " + " ".join(usage), "", text]
    if options:
        lines += ["", "options:"]
        lines += [f"  {flag:<16}{help_}" + (f" (one of: {', '.join(convert)})" if isinstance(convert, tuple) else "")
                  for flag, (_, convert, _, _, help_) in options.items()]
    return "\n".join(lines)


def _convert(flag: str, convert, text: str):
    if isinstance(convert, tuple):
        if text not in convert:
            raise _UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(convert)})")
        return text
    try:
        return convert(text)
    except (TypeError, ValueError):
        raise _UsageError(f"argument {flag}: invalid {convert.__name__} value: {text!r}") from None


def parse_args(argv=None) -> SimpleNamespace:
    """The command line ``argv`` (default: ``sys.argv[1:]``) as the values
    its command reads, ``func`` the command's function among them.
    Raises _UsageError for a bad command line and _Help for ``--help``."""
    tokens = list(sys.argv[1:] if argv is None else argv)
    args = SimpleNamespace(io=FileIO())
    words, row, dest = ["draftvault"], (COMMANDS, __doc__.splitlines()[0]), "command"
    while isinstance(row[0], dict):
        if not tokens:
            raise _UsageError(f"the following arguments are required: {dest}")
        name = tokens.pop(0)
        if name in ("-h", "--help"):
            raise _Help(_usage(words, row))
        if name not in row[0]:
            raise _UsageError(f"argument {dest}: invalid choice: {name!r} (choose from {', '.join(row[0])})")
        setattr(args, dest, name)
        words, row, dest = [*words, name], row[0][name], f"{name}_op"
    func, _, positionals, options = row
    given, values, extras = [], {}, []
    rest = False  # after "--", every token is a positional
    while tokens:
        token = tokens.pop(0)
        if rest or not _is_flag(token):
            (given if len(given) < len(positionals) else extras).append(token)
            continue
        if token == "--":
            rest = True
            continue
        if token in ("-h", "--help"):
            raise _Help(_usage(words, row))
        if token.startswith("--"):
            flag, eq, text = token.partition("=")
        else:  # "-n3" gives -n the value 3
            flag, eq, text = token[:2], token[2:], token[2:]
        if flag not in options:
            extras.append(token)
            continue
        attr, convert, *_ = options[flag]
        if convert is None:
            if eq:
                raise _UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            if values.setdefault(attr, flag[2:]) != flag[2:]:
                raise _UsageError(f"argument {flag}: not allowed with argument --{values[attr]}")
            continue
        if not eq:
            if not tokens or _is_flag(tokens[0]):
                raise _UsageError(f"argument {flag}: expected one argument")
            text = tokens.pop(0)
        values[attr] = _convert(flag, convert, text)
    missing = [*positionals[len(given):],
               *(flag for flag, (attr, _, _, required, _) in options.items() if required and attr not in values)]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    args.__dict__.update(zip(positionals, given))
    for attr, _, default, _, _ in options.values():
        if attr not in values:
            values[attr] = default() if callable(default) else default
    args.__dict__.update(values)
    args.func = globals()[func]  # looked up now, so that a test may patch it
    return args


def main(argv=None, io=None) -> int:
    """Run one command; ``io`` (default: a plain FileIO) carries every
    file operation of the commands that take one."""
    try:
        args = parse_args(argv)
    except _Help as help_text:
        print(help_text)
        return 0
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
