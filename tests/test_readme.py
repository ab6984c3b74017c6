"""The README's reference tables and examples against the code they describe."""

import re
import shlex
from pathlib import Path

import pytest

from bicorr import cli

PACKAGE = Path(cli.__file__).parent
README = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_module_table_lists_exactly_the_modules():
    # A module added to or deleted from the package takes its Layout row with it.
    rows = re.findall(r"^\| `bicorr\.(\w+)` +\|", README, re.MULTILINE)
    modules = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_every_command_in_the_readme_cli_block_parses():
    # A renamed or removed option fails here instead of leaving the README wrong; no command runs.
    section = README.split("\n## CLI\n", 1)[1]
    lines = re.search(r"^```sh\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)[1].splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "bicorr", line
        try:
            cli.make_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the README command does not parse: {line}")
