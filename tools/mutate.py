"""Tolerance mutants: every read of a tolerance of ``bicorr.linalg``'s table, times 10 and
divided by 10, each run by ``pytest -x`` on its own copy of the repository.

    python tools/mutate.py

A site is one read of a tolerance, named ``module.function:NAME#k`` for the k-th read of NAME
in that function, counted from 1 in source order (``module.<module>:NAME#k`` outside any
function), so a name does not move when lines are added elsewhere.  Each mutant runs the tests
in a fresh copy of the repository with bytecode caching off, two at a time; a mutant that
passes every test survives.  A
survivor listed in tools/mutants_allowed.txt, one line ``SITE OP REASON`` each, is allowed:
no input can tell it from the code as written.  The exit status is 1 if any other mutant
survives.  Not part of the test suite: a full run takes minutes.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "bicorr"
ALLOWLIST = ROOT / "tools" / "mutants_allowed.txt"
OPS = ("*10", "/10")
WORKERS = 2  # each runs a test suite
# What a copy leaves out: version control, caches and outputs of earlier runs.
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perf*")


@dataclass(frozen=True)
class Site:
    name: str  # module.function:NAME#k
    path: Path  # relative to the repository root
    line: int  # 1-based
    start: int  # column span of the read on that line
    end: int


def tolerances(root: Path = ROOT) -> set[str]:
    """The names of the tolerance table: linalg's module-level assignments ending in _TOL."""
    tree = ast.parse((root / PACKAGE / "linalg.py").read_text())
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_TOL")
    }


def _reads(tree: ast.AST, names: set[str], scope: str = "<module>"):
    """(scope, node) for every read of one of names, scope the enclosing function's qualname."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            yield from _reads(child, names, inner)
        elif isinstance(child, ast.Name) and child.id in names and isinstance(child.ctx, ast.Load):
            yield scope, child
        else:
            yield from _reads(child, names, scope)


def sites(root: Path = ROOT) -> list[Site]:
    """Every tolerance read in the package, in file and source order."""
    names, found = tolerances(root), []
    for path in sorted((root / PACKAGE).glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        count: dict[str, int] = {}
        reads = _reads(ast.parse(text), names)
        for scope, node in sorted(reads, key=lambda read: (read[1].lineno, read[1].col_offset)):
            key = f"{path.stem}.{scope}:{node.id}"
            count[key] = count.get(key, 0) + 1
            span = node.col_offset, node.end_col_offset
            if lines[node.lineno - 1][span[0] : span[1]] != node.id:
                raise RuntimeError(f"{path}:{node.lineno}: no {node.id} at columns {span}")
            rel = path.relative_to(root)
            found.append(Site(f"{key}#{count[key]}", rel, node.lineno, *span))
    return found


def allowlist(path: Path = ALLOWLIST) -> dict[tuple[str, str], str]:
    """(site, op) -> reason for every allowed survivor; blank lines and # comments are skipped."""
    allowed = {}
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip() and not line.startswith("#"):
            site, op, reason = (line.split(maxsplit=2) + ["", ""])[:3]
            if op not in OPS or not reason:
                raise ValueError(f"{path.name}:{number}: need 'SITE OP REASON', got {line!r}")
            allowed[site, op] = reason
    return allowed


def mutated(site: Site, op: str, root: Path = ROOT) -> str:
    """The text of site's file with its read replaced by (NAME * 10) or (NAME / 10)."""
    lines = (root / site.path).read_text().splitlines(keepends=True)
    text = lines[site.line - 1]
    name = text[site.start : site.end]
    lines[site.line - 1] = f"{text[: site.start]}({name} {op[0]} {op[1:]}){text[site.end :]}"
    return "".join(lines)


def run(site: Site, op: str) -> str:
    """'killed' or 'survived': pytest -x on a copy of the repository holding the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        (copy / site.path).write_text(mutated(site, op))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True)
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    allowed = allowlist()
    mutants = [(site, op) for site in sites() for op in OPS]
    survivors = allowed_survivors = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for (site, op), outcome in zip(mutants, pool.map(lambda m: run(*m), mutants)):
            if outcome == "survived" and (site.name, op) in allowed:
                outcome, allowed_survivors = "allowed", allowed_survivors + 1
            survivors += outcome == "survived"
            print(f"{outcome:9} {site.name} {op}  ({site.path}:{site.line})", flush=True)
    print(
        f"{len(mutants)} mutants: {len(mutants) - survivors - allowed_survivors} killed, "
        f"{allowed_survivors} allowed, {survivors} survived"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
