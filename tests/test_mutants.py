"""The standing mutant set (``tests/mutants/``) stays applicable.

``tests/mutants/run.py`` applies each mutant to a copy of the tree and
requires the tests it names to fail; that takes about a minute and runs as
its own CI job.  Here, in tier-1, each entry is checked to still fit the
code: its old text occurs exactly once in its file, and every test it
names exists.  So an edit that moves a mutant's text, or renames a test
that kills one, fails at once, and the entry is carried over to the new
code.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "mutants"))

from table import MUTANTS  # noqa: E402


def defined_tests(path):
    """``Class::test`` and ``test`` names defined in a test module."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
            names.add(node.name)
    return names


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_still_applies_and_names_tests_that_exist(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert bool(mutant.equivalent) != bool(mutant.kill)
    for test_id in mutant.kill:
        module, _, name = test_id.partition("::")
        assert name in defined_tests(ROOT / module), test_id
