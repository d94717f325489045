"""The README's promises about the program, checked against the code: the
exit code of every error class, the environment variables read, and every
long option of the command line."""
import argparse
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


def _long_options(parser: argparse.ArgumentParser):
    """Every long option of ``parser`` and of the subcommands below it."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _long_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield from (option for option in action.option_strings if option.startswith("--"))


def test_every_long_option_is_documented():
    """An option the README never names is a setting no user knows of."""
    readme = (ROOT / "README.md").read_text()
    options = set(_long_options(cli.build_parser()))
    assert "--script" in options and "--kill-at-byte" in options
    assert [o for o in sorted(options) if not re.search(re.escape(o) + r"(?![\w-])", readme)] == []
