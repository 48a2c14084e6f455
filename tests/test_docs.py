"""The documents agree with the program: README's command lines run, and the
option table of docs/cli_schema.md is the parser's."""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from gylat.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """argv of each ``gylat ...`` line in the first code block of README's "Command line"."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [line[1:] for line in lines if line and line[0] == "gylat"]


def test_readme_has_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue()


def schema_options() -> dict[str, set[str]]:
    """The options table of docs/cli_schema.md: subcommand -> set of flags."""
    text = (ROOT / "docs" / "cli_schema.md").read_text()
    table = text.split("| subcommand | options |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.strip().splitlines()[1:]:  # skip the |---| row
        name, options = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = set(re.findall(r"`(--[\w-]+)`", options))
    return rows


def parser_options() -> dict[str, set[str]]:
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in sub._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")}
            for name, sub in subparsers.choices.items()}


def test_schema_table_is_the_parser():
    assert schema_options() == parser_options()
    assert sum(map(len, parser_options().values())) == 63
