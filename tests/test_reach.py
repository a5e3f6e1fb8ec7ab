"""The reachability tracer (``tests/reach``) and its pin.

The tracer is a ``sitecustomize`` hook: a child process with its directory
on ``PYTHONPATH`` records every code object it enters.  These tests run it
on a scratch package, so they cover the hook and the AST pass without the
entry set; ``tests/reach/reach.py --check`` (the CI ``reach`` job) measures
the real one.
"""

import os
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reach import reach

HERE = Path(__file__).resolve().parent

SCRATCH_MODULE = textwrap.dedent(
    """\
    import abc
    import functools


    def plain():
        return 1


    @functools.lru_cache(maxsize=None)
    def decorated(x):
        return x


    class Shape(abc.ABC):
        @abc.abstractmethod
        def area(self):
            ...


    class Box(Shape):
        def area(self):
            return 4

        @property
        def size(self):
            return 2

        @staticmethod
        def make():
            def nested():
                return Box()
            return nested()


    def numbers():
        yield 1
        yield 2


    def never_called():
        return 0
    """
)

CHILD = textwrap.dedent(
    """\
    import os, signal
    from repro import scratch
    scratch.plain()
    scratch.decorated(3)
    box = scratch.Box.make()
    box.size, box.area()
    list(scratch.numbers())
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


@pytest.fixture
def traced(tmp_path):
    """Run ``CHILD`` under the hook; it kills itself with SIGKILL."""
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "scratch.py").write_text(SCRATCH_MODULE)
    hook = tmp_path / "hook"
    hook.mkdir()
    shutil.copy2(HERE / "reach" / "sitecustomize.py", hook / "sitecustomize.py")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(hook)])}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, cwd=tmp_path, timeout=60,
        capture_output=True,
    )
    assert done.returncode == -signal.SIGKILL, done.stderr
    return src, hook / "records"


def test_a_killed_child_keeps_its_records(traced):
    src, records = traced
    assert list(records.glob("*.tsv")), "the killed child left no records"
    assert reach.entered(records, src)


def test_each_kind_of_def_is_found_keyed_and_matched(traced):
    src, records = traced
    defs = reach.definitions(src)
    lines = (src / "repro" / "scratch.py").read_text().splitlines()
    by_name = {d.name: key for key, d in defs.items()}
    # A decorated def is keyed by its first decorator, as co_firstlineno is.
    for name, first in [
        ("plain", "def plain"),
        ("decorated", "@functools.lru_cache"),
        ("Box.size", "@property"),
        ("Box.make", "@staticmethod"),
        ("Box.make.<locals>.nested", "def nested"),
        ("numbers", "def numbers"),
    ]:
        path, line = by_name[f"repro.scratch:{name}"]
        assert path == "repro/scratch.py"
        assert lines[line - 1].strip().startswith(first), name
    assert "repro.scratch:Shape.area" not in by_name  # an abstract declaration
    missing = reach.unreached(defs, reach.entered(records, src))
    assert missing == {"repro.scratch:never_called": 2}


def test_a_def_added_to_a_module_joins_the_unreached_set(traced):
    src, records = traced
    module = src / "repro" / "scratch.py"
    module.write_text(module.read_text() + "\n\ndef added():\n    return 0\n")
    missing = reach.unreached(reach.definitions(src), reach.entered(records, src))
    assert set(missing) == {"repro.scratch:never_called", "repro.scratch:added"}


def test_every_pinned_definition_exists_and_has_one_verdict():
    pinned = reach.read_pin()
    defined = {d.name for d in reach.definitions(HERE.parent / "src").values()}
    assert not set(pinned) - defined, "pinned definitions that src/ no longer has"


@pytest.mark.parametrize("line", [
    "repro.x:f", "repro.x:f maybe", "repro.x:f cli", "repro.x:f delete now",
])
def test_a_pin_line_without_exactly_one_verdict_is_refused(tmp_path, line):
    pin = tmp_path / "unreached.txt"
    pin.write_text(f"# a comment\n{line}\n")
    with pytest.raises(ValueError, match="verdict"):
        reach.read_pin(pin)
