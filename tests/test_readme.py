"""The README's promises about the program, checked against the code: the
exit code of every error class, the environment variables read, every
long option of the command line, and every file format's magic."""
import ast
import re
from pathlib import Path

import pytest

import draftvault
from draftvault import cli
from draftvault.errors import DraftVaultError

ROOT = Path(__file__).resolve().parent.parent


def _paragraph(start: str) -> str:
    """The README paragraph that begins with ``start``."""
    (text,) = [p for p in (ROOT / "README.md").read_text().split("\n\n") if p.startswith(start)]
    return text


def _section(title: str) -> str:
    """The README section under the heading ``## title``."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _documented_exit_codes() -> dict:
    """Error class name -> the exit code whose part of the paragraph names it."""
    parts = re.split(r"`(\d)`", _paragraph("Exit codes:"))
    return {name: int(code) for code, text in zip(parts[1::2], parts[2::2])
            for name in re.findall(r"`([A-Z]\w+)`", text)}


@pytest.mark.parametrize("error", DraftVaultError.__subclasses__(), ids=lambda cls: cls.__name__)
def test_each_error_exits_with_the_documented_code(error, monkeypatch, capsys):
    assert error.exit_code == _documented_exit_codes()[error.__name__]

    def fail(args):
        raise error("refused")

    monkeypatch.setattr(cli, "cmd_verify", fail)
    assert cli.main(["verify", "d.tcgd"]) == error.exit_code
    assert capsys.readouterr().err == "error: refused\n"


def test_the_package_reads_only_documented_environment_variables():
    read = set()
    for source in Path(draftvault.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.startswith("DRAFTVAULT_"):
                read.add(node.value)
    documented = set(re.findall(r"`(DRAFTVAULT_[A-Z_]+)`", _paragraph("Environment:")))
    assert read == documented


def _long_options(table: dict):
    """Every long option of the command table ``table`` and of the
    tables below it."""
    for row in table.values():
        if isinstance(row[0], dict):
            yield from _long_options(row[0])
        else:
            yield from (option for option in row[3] if option.startswith("--"))


def test_every_long_option_is_documented():
    """An option the README never names is a setting no user knows of."""
    readme = (ROOT / "README.md").read_text()
    options = set(_long_options(cli.COMMANDS))
    assert "--script" in options and "--kill-at-byte" in options
    assert [o for o in sorted(options) if not re.search(re.escape(o) + r"(?![\w-])", readme)] == []


def test_every_file_format_is_documented():
    """Each module-level ``MAGIC`` names a file layout the README's "File
    formats" section must describe."""
    magics = set()
    for source in Path(draftvault.__file__).parent.glob("*.py"):
        for node in ast.parse(source.read_text()).body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["MAGIC"]:
                magics.add(ast.literal_eval(node.value).decode())
    assert {"TCGD", "TCGJ", "TCGS"} <= magics
    section = _section("File formats")
    assert [m for m in sorted(magics) if f"`{m}`" not in section] == []
