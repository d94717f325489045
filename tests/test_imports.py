"""Import hygiene: a cold command loads only the modules it touches.

Each check runs in a fresh ``python -S`` interpreter, so nothing this test
process has imported already can hide a load.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import draftvault

SRC = str(Path(draftvault.__file__).resolve().parent.parent)


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_draftvault_loads_no_submodule():
    loaded = _fresh(
        "import json, sys, draftvault\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('draftvault.'))))"
    )
    assert loaded == []


def test_import_cli_skips_the_modules_of_other_commands():
    heavy = ["draftvault.faultsim", "draftvault.backup", "draftvault.script", "draftvault.autosave",
             "logging", "uuid"]
    loaded = _fresh(
        "import json, sys, draftvault.cli\n"
        f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    )
    assert loaded == []


def test_every_public_name_resolves():
    missing = _fresh(
        "import json, draftvault\n"
        "print(json.dumps([n for n in draftvault.__all__ if getattr(draftvault, n, None) is None]))"
    )
    assert missing == []
    assert "Journal" in draftvault.__all__ and "load_editable" in draftvault.__all__
    assert draftvault.Journal.__module__ == "draftvault.journal"


def test_unknown_attribute_raises_attribute_error():
    outcome = _fresh(
        "import json, draftvault\n"
        "try:\n"
        "    draftvault.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
        "else:\n"
        "    print(json.dumps(None))"
    )
    assert outcome is not None and "no_such_name" in outcome


def test_resumed_commands_skip_the_script_machinery(tmp_path, capsys):
    """``undo``, ``redo`` and ``pp jump`` resume a session without the
    script interpreter, its autosave, ``logging`` or ``uuid``, and build no
    hash mirror, so ``array`` stays unloaded; ``undo`` and ``redo`` load no
    blob log either."""
    from draftvault.cli import main

    doc = tmp_path / "d.tcgd"
    (tmp_path / "s.txt").write_text("ADD 1 aa\nSTEP\nADD 2 bb\nSTEP\n")
    assert main(["edit", str(doc), "--script", str(tmp_path / "s.txt")]) == 0
    for data in ("aa", "bb"):
        assert main(["pp", "commit", str(doc), "--data", data]) == 0
    capsys.readouterr()
    heavy = ["draftvault.script", "draftvault.autosave", "logging", "uuid", "array", "draftvault.ppversions"]
    for argv, expected_out, unloaded in (
        (["undo", str(doc)], "cursor at 1 of 2", heavy),
        (["pp", "jump", str(doc), "--to", "1"], "at version 1 of 2", heavy[:5]),
        (["redo", str(doc)], "cursor at 2 of 2", heavy),
    ):
        rc, out, loaded = _fresh(
            "import contextlib, io, json, sys\n"
            "from draftvault.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    rc = main({argv!r})\n"
            f"print(json.dumps([rc, out.getvalue(), [m for m in {unloaded!r} if m in sys.modules]]))"
        )
        assert rc == 0 and expected_out in out
        assert loaded == []


def test_cold_recover_loads_no_uuid(tmp_path):
    """A cold ``recover`` that finds an autosave set reads one file and
    loads no ``uuid``: the set carries no session id."""
    from draftvault.autosave import AutosaveConfig, AutosaveSession
    from draftvault.model import Drawing, ElementPayload

    saver = AutosaveSession("d.tcgd", Drawing(elements=[ElementPayload(1, b"\xaa")]),
                            AutosaveConfig(1.0, tmp_path))
    assert saver.autosave_tick(1.0) is not None  # and never shut down: the set stays behind
    argv = ["recover", str(tmp_path / "d.tcgd"), "--autosave-dir", str(tmp_path)]
    rc, out, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from draftvault.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    rc = main({argv!r})\n"
        "print(json.dumps([rc, out.getvalue(), [m for m in ['uuid'] if m in sys.modules]]))"
    )
    assert rc == 0 and "autosave set found for d.tcgd" in out
    assert loaded == []


# Stdlib modules that no command needs at start-up: ``dataclasses`` pulls
# in ``inspect`` (and ``ast``, ``dis``, ``tokenize``), ``argparse`` pulls in
# ``gettext``, ``locale`` and ``shutil``, ``pathlib`` pulls in ``re``,
# ``fnmatch``, ``urllib.parse`` and ``ipaddress``.
UNNEEDED = ["argparse", "dataclasses", "inspect", "gettext", "locale", "shutil",
            "pathlib", "re", "fnmatch", "urllib.parse", "ipaddress"]
# What a command that takes no digest leaves unloaded: OpenSSL's bindings.
DIGESTS = ["hashlib", "hmac", "_hashlib"]


def _cold(argv, cwd) -> tuple[subprocess.CompletedProcess, set]:
    """Run ``python -S -X importtime -m draftvault *argv`` in ``cwd``: the
    finished process, its stderr without the import lines, and every
    module it imported."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRAFTVAULT_")}
    env.update(PYTHONPATH=SRC, DRAFTVAULT_PASSWORD="pw")
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "draftvault", *map(str, argv)],
                          cwd=cwd, capture_output=True, text=True, env=env)
    lines = proc.stderr.splitlines()
    imported = {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}
    proc.stderr = "".join(line + "\n" for line in lines if not line.startswith("import time:"))
    return proc, imported


def _imports(top_level: tuple[str, ...]) -> list[tuple[str, str]]:
    """``(file, module)`` for each import, at any depth, of a module
    under one of ``top_level`` by a module of the package."""
    found = []
    for source in sorted(Path(draftvault.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
            found += [(source.name, n) for n in names if n.split(".")[0] in top_level]
    return found


def test_no_module_imports_argparse_or_dataclasses():
    assert _imports(("argparse", "dataclasses")) == []


def test_only_the_crash_harness_imports_pathlib():
    """Inside the engine a path is a str; ``faultsim`` (``crash-sim`` and
    the tests) keeps ``pathlib``."""
    assert {source for source, _ in _imports(("pathlib",))} == {"faultsim.py"}


def test_cold_commands_load_no_unneeded_module(tmp_path):
    """The commands of a cold session, in the benchmark's order, and
    ``autosave-run``: none loads a module of ``UNNEEDED``, none that
    emits no warning loads ``logging``, none loads ``enum`` (the outcome
    names of ``signatures`` are plain classes), and those that take no
    digest (``undo``, ``redo``, ``history``, ``pp jump``, ``unsign``) load
    no ``hashlib`` or ``hmac``."""
    from draftvault.autosave import AutosaveConfig, AutosaveSession
    from draftvault.cli import main
    from draftvault.model import Drawing, ElementPayload

    doc = tmp_path / "d.tcgd"
    (tmp_path / "s.txt").write_text("ADD 1 aa\nSTEP\nADD 2 bb\nSTEP\n")
    assert main(["edit", str(doc), "--script", str(tmp_path / "s.txt")]) == 0
    for data in ("aa", "bb"):
        assert main(["pp", "commit", str(doc), "--data", data]) == 0
    AutosaveSession("d.tcgd", Drawing(elements=[ElementPayload(1, b"\xaa")]),
                    AutosaveConfig(1.0, tmp_path)).autosave_tick(1.0)  # never shut down
    (tmp_path / "w").mkdir()
    (tmp_path / "w" / "x.tcgd").write_bytes(b"x")
    (tmp_path / "b.cfg").write_text(f"weekdays = mon,tue,wed,thu,fri,sat,sun\n"
                                    f"watch_root = {tmp_path / 'w'}\nvault_root = {tmp_path / 'v'}\n")
    now = ["--now", "2026-01-05T12:00:00"]
    for argv, expected, digests in (
        (["undo", doc], "cursor at 1 of 2", False),
        (["redo", doc], "cursor at 2 of 2", False),
        (["history", doc], "2 step(s) in session journal", False),
        (["verify", doc], "d.tcgd carries no signatures", True),
        (["sign", doc, "--signer", "eng", *now], "signed by eng", True),
        (["verify", doc], "eng: intact", True),
        (["unsign", doc, "--signer", "eng", *now], "signature of eng removed", False),
        (["recover", doc], "autosave set found for d.tcgd", True),
        (["pp", "jump", doc, "--to", "1"], "at version 1 of 2: aa", False),
        (["backup", "--config", tmp_path / "b.cfg", "--today", "2026-01-05"], "backed up 1 file(s)", True),
        (["autosave-run", tmp_path / "e.tcgd", "--script", tmp_path / "s.txt", "--interval", "1", *now],
         "committed 2 step(s)", True),
    ):
        proc, imported = _cold(argv, tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert expected in proc.stdout, argv
        assert [m for m in [*UNNEEDED, "logging", "enum"] if m in imported] == [], argv
        assert digests or [m for m in DIGESTS if m in imported] == [], argv


def test_a_cold_warning_reaches_stderr(tmp_path):
    """``logging`` is loaded only to emit a warning, and unconfigured it
    still prints the bare message: one line for a damaged autosave set."""
    bad = tmp_path / "d.tcgd.autosave.set"
    bad.write_bytes(b"TCGA garbage")
    proc, imported = _cold(["recover", tmp_path / "d.tcgd"], tmp_path)
    assert proc.returncode == 0 and "no autosave found for d.tcgd" in proc.stdout
    assert proc.stderr.startswith(f"discarding invalid autosave set {bad}: ")
    assert proc.stderr.count("\n") == 1
    # ``logging`` itself imports ``re``
    assert "logging" in imported and [m for m in UNNEEDED if m in imported and m != "re"] == []
    assert not bad.exists()
