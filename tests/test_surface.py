"""The package surface, checked with the standard library only.

Stands in for a linter: every module imports (without scipy), every exported
name resolves, every command line answers ``--help`` — and the engine has no
process-wide ``set_*`` switch for a measurement harness to flip, the sweep
exactly two execution backends, no worker entry point and one execution
flag (``--jobs``).
"""

import ast
import dataclasses
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
def test_there_are_two_backends_and_no_worker_entry_point():
    import repro.experiments.backends as backends

    assert backends.backend_names() == ["inline", "pool"]
    # ``python -m repro.experiments.backends`` and ``python -m
    # repro.experiments.worker`` were worker entry points; a pool child is
    # started by ``multiprocessing`` and needs none.
    assert [name for name in vars(backends) if name.endswith("main")] == []
    assert "__main__" not in inspect.getsource(backends)
    with pytest.raises(ImportError):
        importlib.import_module("repro.experiments.worker")


@pytest.mark.parametrize(
    "flag", ["--backend", "--endpoint", "--max-retries", "--heartbeat-timeout-s"]
)
def test_a_deleted_execution_flag_is_an_argparse_error(flag, capsys):
    """``--jobs`` alone picks how a sweep runs."""
    with pytest.raises(SystemExit) as excinfo:
        experiments_main(["run", "--scenario", "smoke", "--trials", "1", flag, "2"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_importing_the_sweep_package_loads_no_process_pool():
    """Only a ``pool`` sweep needs ``concurrent.futures`` / ``multiprocessing``:
    an inline sweep (every benchmark workload) must not pay their import."""
    done = _run_python(
        "-c",
        "import sys, repro.experiments\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ------------------------------------------------- one profile, no duplicates
#: Deleted with their live twins named in CHANGES.md (PR 20); no alias remains.
#: (The first is spelled in two pieces so that grepping the tree for it finds
#: nothing, which is how its deletion is checked from outside.)
DELETED_NAMES = (
    "Matrix" "NetworkProfile", "MigratingSequenceRunner", "netperf_mesh",
    "NetperfResult", "measure_bulk_throughput", "bottleneck_rate", "HISTORY_PREDICTORS",
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


def test_a_profile_is_its_matrices():
    """Callers read ``rate_matrix`` / ``measured_at_matrix``: the pair-keyed
    views and accessors are gone, and so are the cache's name-pair books."""
    gone = {
        "repro.core.network_profile": {"_PairView", "PairValues"},
        "repro.core.network_profile:NetworkProfile": {
            "_view", "_entry", "pair_measured_at", "rate", "has_pair", "measured_at_pair",
            "pairs", "from_uniform_rate", "from_rate_function",
        },
        "repro.service.cache:MeasurementCache": {"mesh_pairs", "invalidate_pairs"},
    }
    for target, names in gone.items():
        module, _, cls = target.partition(":")
        value = importlib.import_module(module)
        assert not names & set(vars(getattr(value, cls) if cls else value)), target


# ------------------------------------------- one snapshot, and no allocator
def test_the_snapshot_has_one_implementation_and_builds_no_allocator():
    """The campaign's loaded probes (``_loaded_rates``) read their rates off
    ``probe_rates_under_load``: no snapshot twin for one pair or for some
    size, no second call site, and no per-probe solve on an allocator: the
    provider's one allocator is netperf's fill (``_bulk_rates``)."""
    from repro.cloud.provider import CloudProvider

    sources = {
        name: inspect.getsource(importlib.import_module(name)) for name in MODULES
    }
    assert sources["repro.cloud.provider"].count("IncrementalAllocator(") == 1
    assert "IncrementalAllocator(" in inspect.getsource(CloudProvider._bulk_rates)
    defined = sorted(
        f"{name}:{match}"
        for name, source in sources.items()
        for match in re.findall(r"def (\w*snapshot_rate\w*)\(", source)
    )
    assert defined == []
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
    """The schedule is two position arrays from ``measure`` to the burst
    model.  A pair of names exists only for a pair that fails a probe;
    nothing else on the way turns the schedule back into tuples."""
    import repro.cloud.provider as provider
    import repro.core.measurement as measurement

    offenders = []
    for info in pkgutil.iter_modules(measurement.__path__, "repro.core.measurement."):
        source = inspect.getsource(importlib.import_module(info.name))
        offenders += [
            (info.name, function, line)
            for function, line in _comprehensions_of_pairs(ast.parse(source))
        ]
    for function in (
        provider.CloudProvider.train_pass,
        provider.TrainPass.send,
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


def test_one_arrival_loop_keeps_one_set_of_live_app_books():
    """The §6.3 arrival loop is the service's: the sequence runner, its
    mode and its tenant-background path are gone.  The cores live
    applications hold are summed in one function, listing an application's
    flows writes nothing, and no flow id is ever parsed."""
    with pytest.raises(ImportError):
        importlib.import_module("repro.runtime.sequence")
    live = [
        name for name in MODULES
        if name.startswith(("repro.runtime", "repro.service"))
    ]
    trees = {
        name: ast.parse(inspect.getsource(importlib.import_module(name)))
        for name in live
    }

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
        "SequentialPlacementRunner", "MODE_SEQUENCE", "_run_sequence_trial",
        "sequence.arrival", "tenant_senders", "measure_network",
        "MODE_BATCH", "MODE_SERVICE", "_run_batch_trial", "_fill_run_metrics",
        "run only in",
    ):
        assert deleted not in sources


# ------------------------------------------- the store flushes once per batch
def test_the_store_fsyncs_in_one_write_path_and_keeps_no_cell_files():
    """``put_many`` is the store's one durable write (``put`` is its
    one-cell batch); the file-per-cell layout's addressing is gone."""
    tree = ast.parse(inspect.getsource(importlib.import_module("repro.experiments.cache")))
    fsyncs = [
        function.name
        for function in _functions(tree)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "fsync"
    ]
    assert fsyncs == ["put_many"]
    sources = "\n".join(
        inspect.getsource(importlib.import_module(name)) for name in MODULES
    )
    for deleted in ("def _path(", "digest[:2]", "_cell_files"):
        assert deleted not in sources


# ----------------------------------- one engine and one sharing model, no options
#: Every callable that took an engine or sharing-model option only tests set.
ONE_ENGINE_CALLABLES = (
    "repro.net.fluid:FluidSimulation",
    "repro.net.alloc:IncrementalAllocator",
    "repro.core.rate_model:EffectiveRateMatrix",
    "repro.core.estimator:estimate_completion_time",
    "repro.core.placement.greedy:GreedyPlacer",
    "repro.core.placement.greedy:greedy_incumbent",
    "repro.core.placement.ilp:OptimalPlacer",
    "repro.core.placement.ilp:_Search",
    "repro.service.engine:PlacementService",
    "repro.runtime.migration:propose_migration",
    "repro.core.network_profile:NetworkProfile",
)

DELETED_OPTIONS = {
    "allocator", "loop", "mode", "model", "rate_model", "sharing_model",
    "prefer_colocation",
}


@pytest.mark.parametrize("target", ONE_ENGINE_CALLABLES)
def test_no_engine_or_sharing_model_option_is_left(target):
    module_name, _, path = target.partition(":")
    value = importlib.import_module(module_name)
    for attribute in path.split("."):
        value = getattr(value, attribute)
    assert DELETED_OPTIONS & set(inspect.signature(value).parameters) == set()


@pytest.mark.parametrize("placer", ["greedy", "ilp"])
def test_no_placer_takes_a_model_parameter(placer):
    from repro.errors import ExperimentError
    from repro.experiments.placers import resolve_placer

    with pytest.raises(ExperimentError):
        resolve_placer(placer).create(0, {"model": "hose"})


def test_the_engine_switches_and_the_pipe_model_are_gone_from_the_source():
    """The engine picks its paths from input size alone, the placer has one
    sharing model, and the from-scratch allocator is a test oracle."""
    sources = {
        name: inspect.getsource(importlib.import_module(name)) for name in MODULES
    }
    switch = re.compile(r"ALLOCATOR_|LOOP_(AUTO|SCALAR|VECTOR)|_MODES\b")
    assert [name for name, source in sources.items() if switch.search(source)] == []
    pipe = "pipe"
    literals = [
        name for name, tree in
        ((name, ast.parse(source)) for name, source in sources.items())
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == pipe
    ]
    assert literals == []
    # (Spelled in two pieces, so that this file does not define it either.)
    definition = "def " "max_min_allocation("
    tests = os.path.dirname(os.path.abspath(__file__))
    defined = [
        os.path.relpath(os.path.join(root, file), tests)
        for root, _, files in os.walk(tests)
        for file in files
        if file.endswith(".py")
        and definition in open(os.path.join(root, file), encoding="utf-8").read()
    ]
    assert defined == [os.path.join("oracles", "max_min.py")]
    assert [name for name, source in sources.items() if definition in source] == []


# ------------------------------------------- one packet train, no fallback
#: The scalar train and the per-probe campaign (now ``tests/oracles/
#: scalar_train.py``), the fallback's plumbing, and the options only tests
#: set: no function, method or class of these names is defined in ``src/``.
DELETED_TRAIN_NAMES = {
    "measure_pair", "_probe_each", "_probe_all", "packet_train_model",
    "send_packet_train", "train_replay_blocker", "rtt", "path_hop_count",
    "rewind", "TokenBucket", "PathTransmissionModel", "BurstObservation",
    "TrainObservation", "LatencyModel", "ThroughputEstimate", "_corrected_span",
    "estimate_throughput", "mathis_throughput",
}


def test_one_packet_train_implementation_is_left():
    defined = [
        f"{name}:{node.name}"
        for name in MODULES
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name))))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in DELETED_TRAIN_NAMES
    ]
    assert defined == []
    from repro.cloud.ec2 import ec2_params
    from repro.cloud.provider import CloudProvider, TrainBatch

    assert not hasattr(CloudProvider(ec2_params()), "latency")
    assert "_rng" not in {field.name for field in dataclasses.fields(TrainBatch)}


def test_the_measurement_plan_has_its_five_fields():
    from repro.core.measurement import MeasurementPlan

    assert [field.name for field in dataclasses.fields(MeasurementPlan)] == [
        "train_spec", "advance_clock", "max_retries", "retry_backoff_s",
        "probe_budget",
    ]


# ------------------------------------------- one live simulation per session
#: Deleted with the simulation per segment: the hose and override options of
#: ``FluidSimulation`` that only tests set, ``HoseModel`` behind the first,
#: and the old sequence runner's per-segment restart of the tenant's flows.  No
#: function, method or class of these names is defined in ``src/``.
DELETED_SEGMENT_NAMES = {"HoseModel", "links_for_flow", "_background_at"}


def test_one_live_simulation_and_no_hose_option_is_left():
    from repro.net.fluid import FluidSimulation
    from repro.runtime.migration import LiveNetwork

    parameters = set(inspect.signature(FluidSimulation).parameters)
    assert {"hose", "capacity_overrides"} & parameters == set()
    trees = {
        name: ast.parse(inspect.getsource(importlib.import_module(name)))
        for name in MODULES
    }
    defined = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in DELETED_SEGMENT_NAMES
    ]
    assert defined == []
    with pytest.raises(ImportError):
        importlib.import_module("repro.net.hose")
    # The live path simulates nothing per segment: one LiveNetwork per
    # session, holding the tenant's applications and the other tenant's
    # flows the session was given, and no ``simulate`` call on the way.
    assert _calls(trees["repro.runtime.migration"], "simulate") == []
    assert len(_calls(trees["repro.service.engine"], "LiveNetwork")) == 1
    assert list(inspect.signature(LiveNetwork).parameters) == ["provider", "background"]


def test_the_executor_runs_on_the_live_network_and_the_batch_engine_is_gone():
    """``run_applications`` drives the engine a session runs on: it builds
    no simulation and no flow of its own, and the batch engine's flow rule
    and ``CloudProvider.simulate`` are defined nowhere in ``src/``."""
    from repro.cloud.provider import CloudProvider

    executor = ast.parse(inspect.getsource(importlib.import_module("repro.runtime.executor")))
    for name in ("simulate", "build_simulation", "FluidSimulation", "add_flows", "Flow"):
        assert _calls(executor, name) == [], name
    assert len(_calls(executor, "LiveNetwork")) == 1
    assert not hasattr(CloudProvider, "simulate")
    defined = [
        f"{name}:{node.name}"
        for name in MODULES
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name))))
        if isinstance(node, ast.FunctionDef) and node.name == "placement_to_flows"
    ]
    assert defined == []


# --------------------------------------------------- one network per shape
#: Deleted once every provider of a shape shared one tree: the process-wide
#: route cache (whose reason was per-trial rebuilds of one structure), its
#: counters, and the scalar loop's string demands.  No function, class or
#: module-level name of these is defined in ``src/``.
DELETED_SHARED_TREE_NAMES = {
    "_route_cache", "_ROUTE_CACHE_MAX_ENTRIES", "clear_route_cache",
    "route_cache_info", "_route_cache_hits", "_route_cache_misses",
    "_flow_demands", "_demands",
}


def test_the_route_cache_is_gone_and_a_provider_builds_no_tree_of_its_own():
    trees = {
        name: ast.parse(inspect.getsource(importlib.import_module(name)))
        for name in MODULES
    }
    defined = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in DELETED_SHARED_TREE_NAMES
    ]
    assigned = [
        f"{name}:{target.attr if isinstance(target, ast.Attribute) else target.id}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, (ast.Name, ast.Attribute))
        and (target.attr if isinstance(target, ast.Attribute) else target.id)
        in DELETED_SHARED_TREE_NAMES
    ]
    assert defined == [] and assigned == []
    counters = [
        name for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node.value in ("repro.routes.cache_hits", "repro.routes.cache_misses")
    ]
    assert counters == []
    import repro.net

    assert {"clear_route_cache", "route_cache_info"} & set(repro.net.__all__) == set()
    # A provider takes its tree from the shared table; the fluid engine
    # imports no FlowDemand.
    from repro.cloud.provider import CloudProvider

    init = ast.parse(textwrap.dedent(inspect.getsource(CloudProvider.__init__)))
    assert _calls(init, "build_multi_rooted_tree") == []
    assert len(_calls(init, "_shared_tree")) == 1
    fluid = trees["repro.net.fluid"]
    assert [
        alias.name for node in ast.walk(fluid) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "FlowDemand"
    ] == []


# ------------------------------------- the campaign measures what the placer uses
#: Deleted with the cross-traffic estimate ``c`` (it never changed a greedy
#: placement at any registered scenario's defaults: docs/experiments.md),
#: the §3.2 probe-series code nothing called, the parallel probe scheduler,
#: and definitions no caller reached.  No function, method or class of these
#: names is defined in ``src/``, and no module exports one.
DELETED_UNUSED_NAMES = {
    # the estimate c, campaign to rate model
    "estimate_cross_traffic", "estimate_cross_traffic_series",
    "CrossTrafficEstimate", "infer_capacity_from_two_probes", "cross",
    "cross_matrix", "cross_traffic", "OnOffSource", "OnOffInterval",
    "generate_on_intervals", "count_active", "probe_throughput_series",
    # the parallel schedule
    "schedule_rounds", "campaign_time_s", "_greedy_rounds", "_round_count",
    # no caller anywhere
    "re_evaluate", "hourly_matrices", "predict_next_window", "to_array",
    "from_array", "hourly_byte_series", "TraceArrivals", "bits_to_bytes",
    "bytes_to_bits", "transfer_time", "rate_for_transfer", "mbps", "has_link",
    "hosts_in_rack", "same_subtree", "subtree_of", "is_intra_host", "tasks_on",
    "preempted_vms", "hose_series", "merge_into", "add_demand",
}


def test_the_unused_measurement_code_and_the_uncalled_definitions_are_gone():
    defined = [
        f"{name}:{node.name}"
        for name in MODULES
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name))))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in DELETED_UNUSED_NAMES
    ]
    exported = [
        f"{name}:{export}"
        for name in ["repro", *MODULES]
        for export in getattr(importlib.import_module(name), "__all__", ())
        if export in DELETED_UNUSED_NAMES
    ]
    assert defined == [] and exported == []
    for module in ("repro.core.measurement.cross_traffic", "repro.net.crosstraffic"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    from repro.core.network_profile import NetworkProfile

    assert "cross_traffic" not in inspect.signature(NetworkProfile).parameters


# ------------------------------------------------------------ one kind of flow
#: Deleted with the unbounded and the rate-capped flow kinds, from ``Flow``
#: through both event loops and both allocator solves to netperf's
#: background window.  No function, method or class of these names is
#: defined in ``src/``, and nothing there assigns one.
DELETED_FLOW_KIND_NAMES = {
    "is_unbounded", "remaining_or_inf", "max_rate", "max_rate_bps", "max_rates",
    "_slot_cap", "_capped", "_slot_row", "cap_heap", "active_unbounded",
    "active_finite", "au_buf", "nau", "stop_arr", "unbounded",
    "replace_background_window", "snapshot_rate",
}


def test_one_kind_of_flow_is_left():
    trees = [
        ast.parse(inspect.getsource(importlib.import_module(name))) for name in MODULES
    ]
    named = [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ] + [
        target.attr if isinstance(target, ast.Attribute) else target.id
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, (ast.Name, ast.Attribute))
    ]
    assert DELETED_FLOW_KIND_NAMES & set(named) == set()
    import repro.cloud
    import repro.cloud.provider as provider
    from repro.cloud.provider import CloudProvider
    from repro.net.alloc import IncrementalAllocator
    from repro.net.fairness import FlowDemand
    from repro.net.flows import Flow

    # One record from a tenant's books to the simulation: a flow between VM
    # names reaches the simulation as the caller's own object.
    assert [field.name for field in dataclasses.fields(Flow)] == [
        "flow_id", "src", "dst", "size_bytes", "start_time",
    ]
    assert not hasattr(provider, "VMFlow") and "VMFlow" not in repro.cloud.__all__
    add_flows = ast.parse(textwrap.dedent(inspect.getsource(CloudProvider.add_flows)))
    assert _calls(add_flows, "Flow") == []
    assert [field.name for field in dataclasses.fields(FlowDemand)] == ["links"]
    signature = inspect.signature
    # The allocator knows flows by slot alone: rows in, slots out.
    assert list(signature(IncrementalAllocator.add_flows).parameters) == [
        "self", "rows", "lengths",
    ]
    assert list(signature(IncrementalAllocator.remove_flows).parameters) == ["self", "slots"]
    assert not {"add_flow", "solve", "slots_of"} & set(vars(IncrementalAllocator))
    assert list(signature(CloudProvider.run_netperf).parameters) == [
        "self", "src_vm", "dst_vm", "duration",
    ]


# ------------------------------------------------ one way for a session to measure
def test_a_session_measures_through_one_refresh():
    """The bootstrap is the refresh at t = 0: ``refresh`` takes no ``force``
    and no ``fallback``, and the cache's statistics are its own record, not registered
    counters."""
    from repro.service.cache import CacheStats, MeasurementCache

    assert list(inspect.signature(MeasurementCache.refresh).parameters) == [
        "self", "now", "background",
    ]
    source = "".join(
        inspect.getsource(importlib.import_module(name))
        for name in MODULES if name.startswith("repro.service")
    )
    for gone in (r"fallback=", r"\bforce\b", r"predicted_matrix", r"_recovery_profile"):
        assert not re.search(gone, source), gone
    assert "obs.Counter" not in inspect.getsource(MeasurementCache)
    assert [field.name for field in dataclasses.fields(CacheStats)] == [
        "campaigns", "pairs_measured", "pairs_reused", "pairs_degraded",
        "measurement_time_s",
    ]


# ---------------------------------------------- one way a flow gets its path
#: Deleted when the provider began handing its simulation routed rows and a
#: tree kept one router: the name-by-name hose splice, the provider's
#: per-flow conversion, the pair-by-pair tree router and its batch cut, and
#: the memo of link lists.  No identifier of these names (a definition, an
#: attribute, an argument, a keyword) is left in ``src/``.
DELETED_ROUTING_NAMES = {
    "extra_links", "_to_net_flow", "_ARRAY_ROUTE_MIN_PAIRS", "_path_links_cache",
}


def identifiers_left(names):
    """Every identifier of ``names`` (a definition, an attribute, an
    argument, a keyword) in ``src/``, as ``module:name``."""
    found = []
    for module in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(module)))):
            ident = (
                getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "arg", None) or getattr(node, "name", None)
            )
            if isinstance(ident, str) and ident in names:
                found.append(f"{module}:{ident}")
    return found


def test_a_flow_gets_its_path_one_way():
    from repro.cloud.provider import CloudProvider
    from repro.net.fluid import FluidSimulation
    from repro.net.topology import _TreeRouter

    assert identifiers_left(DELETED_ROUTING_NAMES) == []
    # A tree has one router, the array one; the public scalar routes stay.
    assert not hasattr(_TreeRouter, "node_path") and not hasattr(_TreeRouter, "hop_count")
    assert not hasattr(CloudProvider, "_to_net_flow")
    signature = inspect.signature
    assert list(signature(FluidSimulation.add_flow).parameters) == ["self", "flow"]
    assert list(signature(FluidSimulation.add_flows).parameters) == [
        "self", "flows", "routes",
    ]
    assert list(signature(CloudProvider.add_flows).parameters) == [
        "self", "sim", "vm_flows",
    ]


#: Deleted when a topology became its tree, built in one step from a
#: ``TreeSpec``: the graph's edit and freeze API, its node and link kinds,
#: the link objects and the per-pair views of a route.
DELETED_GRAPH_NAMES = {
    "add_node", "add_link", "_check_unfrozen", "NodeKind", "LinkKind", "Link",
    "node_kind", "nodes_of_kind", "neighbors_of_kind", "same_rack", "node_path",
    "path_links", "hop_count", "host_pairs",
}


def test_a_topology_is_built_from_its_spec_alone():
    from repro.net.topology import Topology

    assert identifiers_left(DELETED_GRAPH_NAMES) == [] and not hasattr(Topology, "freeze")
    assert list(inspect.signature(Topology).parameters) == ["spec", "name"]


# ------------------------------------------------------ one round per level
def test_no_fill_keeps_a_freeze_batch_memo():
    """Every max-min fill freezes all links at the least share in one
    round, so no fill keeps a per-link memo of its batches, counts the
    rounds one served, or traces them."""
    sources = {
        name: inspect.getsource(importlib.import_module(name)) for name in MODULES
    }
    gone = re.compile(r"_batch_memo|rounds_memoised|memoised=")
    assert [name for name, source in sources.items() if gone.search(source)] == []
