"""The tolerance-mutant tool's allowlist names mutants that exist (``tools/mutate.py``)."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
spec = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = sys.modules.setdefault("mutate", importlib.util.module_from_spec(spec))
spec.loader.exec_module(mutate)


def test_every_allowed_survivor_names_a_site_that_exists():
    names = {site.name for site in mutate.sites()}
    allowed = mutate.allowlist()
    assert allowed, "the allowlist is empty"
    assert {site for site, _ in allowed} <= names


def test_every_mutant_replaces_one_read_by_its_scaled_value():
    for site in mutate.sites():
        lines = mutate.mutated(site, "*10").splitlines()
        name = site.name.split(":")[1].split("#")[0]
        assert lines[site.line - 1][site.start :].startswith(f"({name} * 10)")


def test_a_mutant_of_a_moved_read_is_refused(tmp_path):
    # A line added above a site moves its read; the mutant must not edit whatever is there now.
    site = mutate.sites()[0]
    moved = tmp_path / site.path
    moved.parent.mkdir(parents=True)
    moved.write_text("\n" + (mutate.ROOT / site.path).read_text())
    with pytest.raises(RuntimeError, match=f"no {site.name.split(':')[1].split('#')[0]} at"):
        mutate.mutated(site, "*10", tmp_path)
