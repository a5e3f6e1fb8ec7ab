"""Apply each mutant of ``tests/mutants/table.py`` and require its tests to fail.

Run from the repository root::

    python tests/mutants/run.py [NAME ...]

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory once.  There it first runs every test the table names on the
unmutated copy, which must pass.  Then, mutant by mutant, it replaces the
mutant's old text (which must occur exactly once in its file) with its new
text, runs ``python -m pytest -x`` on the mutant's own tests, and puts the
file back.  A mutant is killed when its tests fail (pytest exit status 1);
it survives when they pass, and any other status (a test id not found, a
collection error) is an error.  Equivalent mutants are listed, not run.
With ``NAME`` arguments only the mutants of those names run.

Exits 0 when every mutant run was killed, 1 otherwise.  Needs nothing but
the standard library and the test dependencies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from table import MUTANTS, Mutant  # noqa: E402

COPIED = ("src", "tests", "pyproject.toml")


def _env(tree: Path) -> dict:
    # No bytecode: a restored file must never run from a mutant's cache.
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def _pytest(tree: Path, ids: Sequence[str]) -> int:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    return subprocess.run(
        command, cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def _imports_the_copy(tree: Path) -> bool:
    """Whether ``repro`` imports from the copy (not, say, from an editable
    install of the repository)."""
    found = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=tree, env=_env(tree), capture_output=True, text=True,
    ).stdout.strip()
    return Path(found).resolve().is_relative_to(tree.resolve())


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "records")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def _apply(tree: Path, mutant: Mutant) -> str:
    """Write the mutant into ``tree``; returns the file's original text."""
    path = tree / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: old text found {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))
    return text


def main(argv: List[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    for mutant in chosen:
        if mutant.equivalent:
            print(f"equivalent  {mutant.name}: {mutant.equivalent}")
    runs = [m for m in chosen if not m.equivalent]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if not _imports_the_copy(tree):
            print("repro does not import from the copy", file=sys.stderr)
            return 2
        ids = list(dict.fromkeys(i for m in runs for i in m.kill))
        started = time.perf_counter()
        status = _pytest(tree, ids)
        if status != 0:
            print(f"the unmutated tree fails the named tests (pytest exit status {status})",
                  file=sys.stderr)
            return 1
        print(f"unmutated   {len(ids)} test id(s) pass ({time.perf_counter() - started:.1f} s)")
        failed = 0
        for mutant in runs:
            original = _apply(tree, mutant)
            started = time.perf_counter()
            try:
                status = _pytest(tree, mutant.kill)
            finally:
                (tree / mutant.path).write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR({status})")
            failed += status != 1
            print(f"{verdict:<11} {mutant.name} ({time.perf_counter() - started:.1f} s)")
    print(f"{len(runs) - failed} of {len(runs)} mutant(s) killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
