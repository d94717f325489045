"""Import hygiene: a cold command loads only the modules it touches.

Each check runs in a fresh ``python -S`` interpreter, so nothing this test
process has imported already can hide a load.
"""
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
