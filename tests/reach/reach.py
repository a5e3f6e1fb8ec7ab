"""Which functions under ``src/repro`` does an entry point reach?

Run from the repository root::

    python tests/reach/reach.py [--check] [--out PATH]

It copies ``src/``, ``benchmark/``, ``tests/chaos/`` and the hook
(``sitecustomize.py``) into a temporary directory and runs the entry set
there with the hook on ``PYTHONPATH``, so every process and subprocess
records the functions it enters.  The entry set is:

* every step of ``.github/workflows/ci.yml`` that runs the program, that
  is, names ``repro`` or ``benchmark/`` and is not a pytest run (the
  ``test``, ``lint`` and ``reach`` jobs are skipped); each job runs in its
  own directory, its steps in order, under ``bash -eo pipefail`` as CI
  does;
* one full-size traced op per benchmark workload at seed 0: the sizes the
  benchmark measures, not the smaller self-test ones;
* the ``$ python …`` commands of README.md's console block;
* ``tests/fidelity.py``, which writes the fidelity table (docs/fidelity.md).

A definition also counts as reached when ``benchmark/`` imports it, or
wraps it through ``layers.TARGETS``: removing one would break the
benchmark or silence one of its layers.

Every other ``def`` under ``src/repro`` is *unreached*.  ``--check``
compares that set with ``tests/reach/unreached.txt`` and fails when a
definition joins it or a pinned one leaves it, so the pin stays exact.
``--out`` writes the measured set in the pin's format.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PIN = HERE / "unreached.txt"

#: The one-word verdicts a pinned definition may carry; ``cli`` and ``row``
#: take one argument (the flag, the ROADMAP item).
VERDICTS = {"delete": 0, "oracle": 0, "invariant": 0, "safety": 0, "public": 0,
            "cli": 1, "row": 1}

#: CI jobs that run no entry point: pytest, ruff, and this measurement.
SKIPPED_JOBS = {"test", "lint", "reach"}

WORKLOADS = ("pipeline_dc", "sweep_paper", "churn_day", "fluid_giant")

Key = Tuple[str, int]  # (path relative to src/, first line of the code object)


class Definition(NamedTuple):
    name: str  # module:qualname
    lines: int


# --------------------------------------------------------------- static side
def definitions(src: Path) -> Dict[Key, Definition]:
    """Every ``def`` under ``src/repro``, methods and nested defs included.

    The key is what the interpreter reports as ``co_firstlineno``: the
    line of the first decorator when there is one, else the ``def`` line.
    Names follow ``__qualname__``; a name defined twice in one module
    gets ``#2``, ``#3`` in source order.  An ``@abstractmethod`` is left
    out: it declares an interface, and a call enters its overrides.
    """
    found: Dict[Key, Definition] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = rel[: -len(".py")].replace("/", ".")
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module
        seen: Dict[str, int] = {}

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(_is_abstract(d) for d in child.decorator_list):
                        continue
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    suffix = f"#{seen[qualname]}" if seen[qualname] > 1 else ""
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    found[(rel, first)] = Definition(
                        f"{module}:{qualname}{suffix}", child.end_lineno - first + 1
                    )
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def _is_abstract(decorator: ast.expr) -> bool:
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name == "abstractmethod"


def entered(records: Path, src: Path) -> Set[Key]:
    """The ``(path, first line)`` of every code object under ``src`` the hook saw."""
    prefix = os.path.realpath(src) + os.sep
    keys: Set[Key] = set()
    for record in records.glob("*.tsv"):
        for line in record.read_text().splitlines():
            filename, _, first = line.rpartition("\t")
            path = os.path.realpath(filename)
            if path.startswith(prefix) and first.isdigit():
                keys.add((Path(path[len(prefix):]).as_posix(), int(first)))
    return keys


def _code_key(obj, src: Path) -> Optional[Key]:
    obj = getattr(obj, "fget", obj)  # a property's getter
    obj = getattr(obj, "__func__", obj)  # a classmethod or staticmethod
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    path = os.path.realpath(code.co_filename)
    prefix = os.path.realpath(src) + os.sep
    if not path.startswith(prefix):
        return None
    return Path(path[len(prefix):]).as_posix(), code.co_firstlineno


def _resolve(module_name: str, attr_path: str):
    obj = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{attr}")  # a submodule
    return obj


def benchmark_references(benchmark: Path, src: Path) -> Set[Key]:
    """Definitions ``benchmark/`` imports by name or wraps through ``TARGETS``.

    ``from repro.m import f`` names ``f``; ``executor.run_applications`` and
    ``ClusterState.from_vms`` name an attribute of an imported name.
    """
    sys.path[:0] = [str(src), str(benchmark)]
    try:
        named: List[Tuple[str, str]] = []
        for path in sorted(benchmark.glob("*.py")):
            tree = ast.parse(path.read_text())
            imported: Dict[str, Tuple[str, str]] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                    for alias in node.names:
                        named.append((node.module, alias.name))
                        imported[alias.asname or alias.name] = (node.module, alias.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in imported:
                        module, name = imported[node.value.id]
                        named.append((module, f"{name}.{node.attr}"))
        layers = importlib.import_module("layers")
        named += [(module, attr) for _span, module, attr, _skip in layers.TARGETS]
        keys: Set[Key] = set()
        for module_name, attr_path in named:
            try:
                key = _code_key(_resolve(module_name, attr_path), src)
            except (ImportError, AttributeError):
                continue  # an instance attribute, or a target that is gone
            if key is not None:
                keys.add(key)
        return keys
    finally:
        del sys.path[:2]


# ---------------------------------------------------------------- entry set
def ci_steps(workflow: Path) -> List[Tuple[str, str, str]]:
    """``(job, step name, script)`` of every ``run:`` step, in file order.

    A reader for the one workflow this repository has (two-space indents,
    ``run: |`` literal blocks or one-line commands), not a YAML parser.
    """
    lines = workflow.read_text().splitlines()
    steps: List[Tuple[str, str, str]] = []
    job, name = "", ""
    i = 0
    while i < len(lines):
        line = lines[i]
        if re.match(r"^  [\w-]+:\s*$", line):
            job = line.strip()[:-1]
        step = re.match(r"^\s+- name:\s*(.*)$", line)
        if step:
            name = step.group(1)
        run = re.match(r"^(\s+)(?:- )?run:\s*(.*)$", line)
        if run:
            indent, head = len(run.group(1)), run.group(2).strip()
            if head and head[0] not in "|>":
                script = head
            else:
                body = []
                while i + 1 < len(lines) and (
                    not lines[i + 1].strip()
                    or len(lines[i + 1]) - len(lines[i + 1].lstrip()) > indent
                ):
                    i += 1
                    body.append(lines[i])
                width = min(len(b) - len(b.lstrip()) for b in body if b.strip())
                script = "\n".join(b[width:] for b in body)
                if head.startswith(">"):
                    script = " ".join(script.split())
            steps.append((job, name, script))
        i += 1
    return steps


def entry_set(root: Path) -> List[Tuple[str, List[Tuple[str, str]]]]:
    """Groups of ``(label, script)`` that share one working directory."""
    groups: Dict[str, List[Tuple[str, str]]] = {}
    for job, name, script in ci_steps(root / ".github" / "workflows" / "ci.yml"):
        runs_program = "repro" in script or "benchmark/" in script
        if job in SKIPPED_JOBS or not runs_program or "pytest" in script:
            continue
        groups.setdefault(f"ci/{job}", []).append((name, script))
    groups["benchmark"] = [
        (f"traced {w} op", f"python3 benchmark/run.py --workload {w} --seed 0 "
         "--seconds 1 --trace 1")
        for w in WORKLOADS
    ]
    ci_text = (root / ".github" / "workflows" / "ci.yml").read_text()
    readme = []
    for line in (root / "README.md").read_text().splitlines():
        if line.startswith("$ python") and "pytest" not in line:
            command = line[2:].split("#", 1)[0].strip()
            if command not in ci_text:
                readme.append((command, command))
    groups["readme"] = readme
    groups["fidelity"] = [
        ("fidelity table", "python tests/fidelity.py --out fidelity.md")
    ]
    return list(groups.items())


def run_entry_set(root: Path, scratch: Path) -> Tuple[Path, Path, List[str]]:
    """Run the entry set in ``scratch``; returns its src, records and failures."""
    for tree in ("src", "benchmark"):
        shutil.copytree(
            root / tree, scratch / tree,
            ignore=shutil.ignore_patterns("__pycache__", ".out", ".tmp"),
        )
    hook = scratch / "hook"
    hook.mkdir()
    shutil.copy2(HERE / "sitecustomize.py", hook / "sitecustomize.py")
    # CI's chaos sweep puts tests/chaos on PYTHONPATH ahead of this hook.
    shutil.copytree(HERE.parent / "chaos", scratch / "tests" / "chaos",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(HERE.parent / "fidelity.py", scratch / "tests" / "fidelity.py")
    binaries = scratch / "bin"
    binaries.mkdir()
    for alias in ("python", "python3"):
        (binaries / alias).symlink_to(sys.executable)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(scratch / "src"), str(hook)]),
        "PATH": os.pathsep.join([str(binaries), os.environ.get("PATH", "")]),
    }
    failures = []
    for group, commands in entry_set(root):
        work = scratch / "work" / group.replace("/", "-")
        work.mkdir(parents=True)
        (work / "benchmark").symlink_to(scratch / "benchmark")
        (work / "tests").symlink_to(scratch / "tests")
        for label, script in commands:
            print(f"[{group}] {label}", flush=True)
            done = subprocess.run(
                ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
                cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=1800,
            )
            if done.returncode != 0:
                tail = done.stderr.strip().splitlines()[-1:] or [""]
                failures.append(f"{group}: {label}: exit {done.returncode}: {tail[0]}")
    return scratch / "src", hook / "records", failures


# ------------------------------------------------------------------ the pin
def read_pin(path: Path = PIN) -> Dict[str, str]:
    """``name -> verdict`` from a pin file; raises on a malformed line."""
    pinned: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, *verdict = line.split()
        if not verdict or verdict[0] not in VERDICTS or len(verdict) != 1 + VERDICTS[verdict[0]]:
            raise ValueError(f"{path.name}:{number}: no valid verdict for {name}")
        if name in pinned:
            raise ValueError(f"{path.name}:{number}: {name} pinned twice")
        pinned[name] = " ".join(verdict)
    return pinned


def unreached(defs: Dict[Key, Definition], reached: Iterable[Key]) -> Dict[str, int]:
    """``name -> lines`` of every definition whose key is not in ``reached``."""
    reached = set(reached)
    return {d.name: d.lines for key, d in defs.items() if key not in reached}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless the measured set equals {PIN.name}")
    parser.add_argument("--out", help="write the measured set, with pinned verdicts")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        src, records, failures = run_entry_set(ROOT, Path(scratch))
        defs = definitions(src)
        traced = entered(records, src)
        if not traced:
            raise SystemExit(f"no process of the entry set ran the code under {src}")
        reached = traced | benchmark_references(Path(scratch) / "benchmark", src)
        measured = unreached(defs, reached)
    for failure in failures:
        print(f"warning: step failed: {failure}", file=sys.stderr)
    print(f"{len(measured)} of {len(defs)} definitions unreached "
          f"({sum(measured.values())} lines, nested defs counted in their parent too)")
    pinned = read_pin()
    if args.out:
        Path(args.out).write_text("".join(
            f"{name}  {pinned.get(name, '?')}\n" for name in sorted(measured)
        ))
    if not args.check:
        return 0
    joined = sorted(set(measured) - set(pinned))
    left = sorted(set(pinned) - set(measured))
    for name in joined:
        print(f"joined the unreached set: {name} (call it, delete it, or pin it with a verdict)")
    for name in left:
        print(f"left the unreached set: {name} (drop its line from {PIN.name})")
    return 1 if joined or left else 0


if __name__ == "__main__":
    sys.exit(main())
