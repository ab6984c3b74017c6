"""The README's reference tables and examples against the code they describe."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

import bicorr
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


def test_every_owner_in_the_input_table_is_a_bicorr_name():
    # A renamed or deleted owner fails here instead of leaving its row naming nothing.  The
    # package and each module count, and `CheckedState(matrix)` names CheckedState; one-letter
    # parameters such as `y`, CLI flags and command names are skipped.
    section = README.split("\n## Where inputs are checked\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]
    owners = [re.split(r"(?<!\\)\|", row)[2] for row in rows]
    names = [re.sub(r"\(.*\)$", "", name) for cell in owners for name in re.findall(r"`([^`]+)`", cell)]
    parser = cli.make_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = [name for name in names if len(name) > 1 and name[0] != "-" and name not in commands]
    assert len(names) > 20
    stems = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    modules = {"bicorr": bicorr} | {stem: importlib.import_module(f"bicorr.{stem}") for stem in stems}
    for name in names:
        module, _, attr = name.rpartition(".")
        holders = [modules[module]] if module else modules.values()
        assert any(hasattr(holder, attr) for holder in holders), name


def _module(stem: str):
    return bicorr if stem == "bicorr" else importlib.import_module(f"bicorr.{stem}")


def _identifiers(text: str) -> list[str]:
    """The backticked Python identifiers of text, one-letter names such as `C` or `y` skipped."""
    return [n for n in re.findall(r"`([^`]+)`", text) if n.isidentifier() and len(n) > 1]


def test_every_name_in_a_layout_row_is_in_its_module():
    # A deleted class or function takes its mention in its module's row with it.
    rows = re.findall(r"^\| `bicorr\.(\w+)` +\| (.*) \|$", README, re.MULTILINE)
    assert len(rows) > 5
    for stem, contents in rows:
        for name in _identifiers(contents):
            assert hasattr(_module(stem), name), f"bicorr.{stem}.{name}"


def test_every_name_in_the_stack_lists_is_a_bicorr_name():
    # The module list of stacked calls, the one-state calls, and every `module.name` written.
    section = README.split("\n## Stacks and seeds\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `(\w+)`: (.*?)(?=^\* |\n\n)", section, re.MULTILINE | re.DOTALL)
    assert len(bullets) > 5
    for stem, names in bullets:
        for name in _identifiers(names):
            assert hasattr(_module(stem), name), f"bicorr.{stem}.{name}"
    stems = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    modules = [_module(stem) for stem in stems]
    one_state = re.search(r"The one-state calls are (.*?)\.", section, re.DOTALL)[1]
    names = _identifiers(one_state)
    assert len(names) > 3
    for name in names:
        assert any(hasattr(module, name) for module in modules), name
    for stem, name in re.findall(r"`(\w+)\.(\w+)", section):
        if stem in stems:
            assert hasattr(_module(stem), name), f"bicorr.{stem}.{name}"
        else:  # an attribute of a bicorr class, such as CheckedState.pure
            holder = next(getattr(m, stem) for m in modules if hasattr(m, stem))
            assert hasattr(holder, name), f"{stem}.{name}"
