"""The package surface, checked with the standard library only.

Stands in for a linter: every module imports (without scipy), every exported
name resolves, every command line answers ``--help`` — and the engine has no
process-wide ``set_*`` switch for a measurement harness to flip, the sweep
exactly two execution backends and one worker entry point.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cli import main as repro_main
from repro.experiments.cli import main as experiments_main

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)

#: Layers whose behaviour is chosen by their inputs, never by a global.
ENGINE_PACKAGES = (
    "repro.net", "repro.core", "repro.cloud", "repro.runtime", "repro.service",
)


def test_every_module_imports_and_its_exports_resolve():
    for name in ["repro", *MODULES]:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            assert getattr(module, export) is not None, f"{name}.{export}"
    for export, (module_name, attribute) in repro._EXPORTS.items():
        target = getattr(importlib.import_module(module_name), attribute)
        assert getattr(repro, export) is target


def test_engine_layers_define_no_module_level_setters():
    setters = [
        f"{name}.{attribute}"
        for name in MODULES
        if name.startswith(ENGINE_PACKAGES)
        for attribute, value in vars(importlib.import_module(name)).items()
        if attribute.startswith("set_")
        and inspect.isfunction(value)
        and value.__module__ == name
    ]
    assert setters == []


def _run_python(*args):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])},
    )


def test_importing_the_package_loads_no_scipy():
    """scipy serves the MILP oracles under ``tests/`` only: a process that
    imports every module of the package must not have paid for it."""
    done = _run_python(
        "-c",
        "import importlib, sys\n"
        f"for name in {['repro', *MODULES]!r}:\n"
        "    importlib.import_module(name)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["repro", "repro.experiments", "repro.service"])
def test_command_line_help_lists_no_bench(module):
    done = _run_python("-m", module, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
    assert "bench" not in done.stdout


@pytest.mark.parametrize("main", [repro_main, experiments_main])
def test_bench_is_not_a_subcommand(main, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# ------------------------------------------------------- execution backends
def test_there_are_two_backends_and_one_worker_entry_point():
    import repro.experiments.backends as backends

    assert backends.backend_names() == ["inline", "remote"]
    # ``python -m repro.experiments.backends`` was the second worker entry
    # point (JSON file pair); the lease server in ``worker.py`` is the one left.
    assert [name for name in vars(backends) if name.endswith("main")] == []
    assert "__main__" not in inspect.getsource(backends)


def test_a_deleted_backend_name_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        experiments_main(
            ["run", "--scenario", "smoke", "--trials", "1", "--backend", "process"]
        )
    assert excinfo.value.code == 2
    assert "invalid choice: 'process'" in capsys.readouterr().err


def test_importing_the_sweep_package_loads_no_http_stack():
    """Only an opened lease needs ``http.client`` / ``http.server``: an
    inline sweep (every benchmark workload) must not pay their import."""
    done = _run_python(
        "-c",
        "import sys, repro.experiments\n"
        "print(sorted(m for m in sys.modules if m.startswith('http.')))\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ------------------------------------------------- one profile, no duplicates
#: Deleted with their live twins named in CHANGES.md (PR 20); no alias remains.
#: (The first is spelled in two pieces so that grepping the tree for it finds
#: nothing, which is how its deletion is checked from outside.)
DELETED_NAMES = (
    "Matrix" "NetworkProfile", "MigratingSequenceRunner", "netperf_mesh",
    "NetperfResult", "measure_bulk_throughput", "bottleneck_rate",
)


def test_deleted_duplicates_resolve_nowhere():
    found = [
        f"{name}.{deleted}"
        for name in ["repro", *MODULES]
        for deleted in DELETED_NAMES
        if hasattr(importlib.import_module(name), deleted)
        or deleted in getattr(importlib.import_module(name), "__all__", ())
    ]
    assert found == []
    with pytest.raises(ImportError):
        importlib.import_module("repro.cloud.netperf")


def test_one_class_is_the_network_profile():
    module = importlib.import_module("repro.core.network_profile")
    with_matrix = [
        name for name, value in vars(module).items()
        if inspect.isclass(value) and "rate_matrix" in vars(value)
    ]
    assert with_matrix == ["NetworkProfile"]


# ------------------------------------------- one snapshot, and no allocator
def test_the_snapshot_has_one_implementation_and_builds_no_allocator():
    """``snapshot_rate`` is the one-pair case of ``_snapshot_rates``, which
    reads its rates off ``probe_rates_under_load``: no twin for some size,
    no second call site, and no per-probe solve on an allocator."""
    sources = {
        name: inspect.getsource(importlib.import_module(name)) for name in MODULES
    }
    assert "IncrementalAllocator" not in sources["repro.cloud.provider"]
    defined = sorted(
        f"{name}:{match}"
        for name, source in sources.items()
        for match in re.findall(r"def (\w*snapshot_rate\w*)\(", source)
    )
    assert defined == [
        "repro.cloud.provider:_snapshot_rates",
        "repro.cloud.provider:snapshot_rate",
    ]
    uses = {
        name: source.count("probe_rates_under_load(")
        for name, source in sources.items()
        if "probe_rates_under_load(" in source
    }
    assert uses == {"repro.net.fairness": 1, "repro.cloud.provider": 1}


# ----------------------------------------- networkx is a test oracle, like scipy
def test_importing_the_package_loads_no_networkx():
    """``Topology`` keeps its own adjacency: ``networkx`` serves one routing
    oracle under ``tests/`` and every process that imports the package —
    each CLI call, each fabric worker — must not have paid for it."""
    done = _run_python(
        "-c",
        "import importlib, sys\n"
        "loaded = {}\n"
        f"for name in {['repro', *MODULES]!r}:\n"
        "    importlib.import_module(name)\n"
        "    if any(m.split('.')[0] == 'networkx' for m in sys.modules):\n"
        "        loaded.setdefault('networkx', name)\n"
        "print(loaded)\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "{}"


# ------------------------------------------- the campaign speaks positions
def _comprehensions_of_pairs(tree):
    """``(function name, line)`` of every comprehension whose element is a
    2-tuple, by the innermost enclosing function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            if isinstance(node.elt, ast.Tuple) and len(node.elt.elts) == 2:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_campaign_builds_no_list_of_name_pairs():
    """The schedule is three position arrays from ``measure`` to the burst
    model.  A pair of names exists for the probe ``_probe_each`` is sending,
    for a pair that degrades, and in ``schedule_rounds`` — the name view
    ``campaign_time_s`` and tests read; nothing else on the way turns the
    schedule back into tuples."""
    import repro.cloud.provider as provider
    import repro.core.measurement as measurement

    offenders = []
    for info in pkgutil.iter_modules(measurement.__path__, "repro.core.measurement."):
        source = inspect.getsource(importlib.import_module(info.name))
        offenders += [
            (info.name, function, line)
            for function, line in _comprehensions_of_pairs(ast.parse(source))
            if function not in ("schedule_rounds", "_probe_each")
        ]
    for function in (
        provider.CloudProvider.send_packet_trains,
        provider.CloudProvider._loaded_rates,
        provider.CloudProvider._pair_positions,
    ):
        source = textwrap.dedent(inspect.getsource(function))
        offenders += [
            ("repro.cloud.provider", name, line)
            for name, line in _comprehensions_of_pairs(ast.parse(source))
        ]
    assert offenders == []


# ------------------------------------------- one live-application state (§2.4)
def _functions(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _calls(node, name):
    """Calls of a function or method called ``name`` anywhere under ``node``."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", getattr(call.func, "id", None)) == name
    ]


def test_the_sequence_runner_and_the_service_share_one_live_app_state():
    """``repro.runtime.sequence`` simulates nothing itself (segments are
    ``advance_live_apps``', the truth run ``run_applications``'), the cores
    live applications hold are summed in one function, listing an
    application's flows writes nothing, and no flow id is ever parsed."""
    live = [
        name for name in MODULES
        if name.startswith(("repro.runtime", "repro.service"))
    ]
    trees = {
        name: ast.parse(inspect.getsource(importlib.import_module(name)))
        for name in live
    }
    sequence = trees["repro.runtime.sequence"]
    assert _calls(sequence, "simulate") == []
    assert "_state_at" not in [function.name for function in _functions(sequence)]

    accumulators = [
        f"{name}:{function.name}"
        for name, tree in trees.items()
        for function in _functions(tree)
        if _calls(function, "cpu_usage")
    ]
    assert accumulators == ["repro.runtime.migration:cluster_with_live_usage"]

    (live_flows,) = [
        function for function in _functions(trees["repro.runtime.migration"])
        if function.name == "live_flows"
    ]
    stores = [
        node for node in ast.walk(live_flows)
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Name))
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and not isinstance(node, ast.Name)
    ]
    assert stores == []  # no ``self.remaining[...] = ...``, nor any other

    splits = [
        f"{name}:{call.lineno}"
        for name, tree in trees.items()
        for call in _calls(tree, "split")
        if call.args and getattr(call.args[0], "value", None) in (":", "->")
    ]
    assert splits == []

    sources = "\n".join(
        inspect.getsource(importlib.import_module(name)) for name in MODULES
    )
    for deleted in (
        "_state_at", "placed_flows", "app_of_flow", "app_cpu", "_cluster_sans_dead",
    ):
        assert deleted not in sources
