"""The benchmark suite behind ``python -m repro.bench``.

Every benchmark times an optimised hot path against its in-tree reference
implementation on the same inputs and *verifies agreement* while doing so:
a benchmark that gets faster by producing different numbers is a bug, not a
win.  All inputs derive from explicit seeds, so runs are reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.modes import reference_mode
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Machine
from repro.core.placement.greedy import GreedyPlacer
from repro.cloud.registry import make_provider
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand, max_min_allocation
from repro.net.flows import Flow
from repro.net.fluid import ALLOCATOR_INCREMENTAL, ALLOCATOR_REFERENCE, FluidSimulation
from repro.net.topology import build_two_rack_cloud, clear_route_cache
from repro.units import GBITPS, GBYTE, MBYTE
from repro.workloads.patterns import scatter_gather

#: Acceptance floors the full-size suite is expected to clear.
TARGET_ALLOCATOR_SPEEDUP = 5.0
TARGET_E2E_SPEEDUP = 2.0
TARGET_RESUME_SPEEDUP = 5.0
TARGET_ILP_SPEEDUP = 3.0
TARGET_ILP_PIPE_SPEEDUP = 2.0
TARGET_SCALE_SPEEDUP = 5.0
TARGET_FLUID_LOOP_SPEEDUP = 5.0
TARGET_ROUTING_SPEEDUP = 10.0
TARGET_MEGA_FLUID_SPEEDUP = 2.0
#: Floor on the fleet pass's *scheduled parallelism* (total worker busy
#: time / makespan): the cost-aware chunker must keep at least two of the
#: four workers fed concurrently.  Wall-clock speedup is reported alongside
#: but not floored — on a single-core host every schedule serialises, so
#: the wall ratio measures the host's core count, not the fabric.
TARGET_MULTI_WORKER_SPEEDUP = 2.0

#: No-stranding bound for the cost-aware chunker: the idlest worker of the
#: fleet pass may not sit out more than this fraction of the makespan.
MAX_WORKER_IDLE_FRACTION = 0.6

#: Telemetry overhead budgets (the ``obs`` bench): with tracing *disabled*
#: — the production default, no-op spans plus live counters — the
#: ``fluid_loop`` workload may cost at most 2% over a stubbed-out baseline;
#: with tracing *enabled* it may cost at most 10%.
MAX_OBS_DISABLED_OVERHEAD = 0.02
MAX_OBS_ENABLED_OVERHEAD = 0.10


def _env_params() -> Dict[str, object]:
    """Environment facts a reader needs to interpret the timings: library
    versions and the auto-mode thresholds that decide which code path ran."""
    import platform

    import numpy
    import scipy

    from repro.net.alloc import vector_thresholds
    from repro.net.fluid import loop_threshold

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "vector_thresholds": list(vector_thresholds()),
        "loop_threshold": loop_threshold(),
    }


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Equality within ``tol`` (absolute and relative), inf-aware."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _rates_diff(ref: Dict[str, float], got: Dict[str, float]) -> float:
    """Largest per-flow discrepancy between two allocations (inf-aware)."""
    if set(ref) != set(got):
        return math.inf
    worst = 0.0
    for fid, a in ref.items():
        b = got[fid]
        if math.isinf(a) or math.isinf(b):
            if a != b:
                return math.inf
            continue
        scale = max(1.0, abs(a), abs(b))
        worst = max(worst, abs(a - b) / scale)
    return worst


# ---------------------------------------------------------------------------
# Allocator microbench
# ---------------------------------------------------------------------------
def _random_allocation_instance(
    rng: random.Random, n_links: int, n_flows: int
) -> Tuple[Dict[str, float], Dict[str, FlowDemand]]:
    """Random capacities and demands, including caps, empty-link flows, and
    zero-capacity edges — the same families the property tests cover."""
    caps: Dict[str, float] = {}
    for i in range(n_links):
        if rng.random() < 0.03:
            caps[f"l{i}"] = 0.0
        else:
            caps[f"l{i}"] = rng.uniform(0.1 * GBITPS, 10 * GBITPS)
    link_ids = list(caps)
    demands: Dict[str, FlowDemand] = {}
    for f in range(n_flows):
        if rng.random() < 0.05:
            links: Tuple[str, ...] = ()
        else:
            links = tuple(rng.sample(link_ids, rng.randint(1, min(5, n_links))))
        cap = rng.uniform(0.01 * GBITPS, 2 * GBITPS) if rng.random() < 0.4 else None
        demands[f"f{f}"] = FlowDemand(links=links, max_rate=cap)
    return caps, demands


def bench_allocator(
    n_links: int = 120,
    n_flows: int = 400,
    n_events: int = 500,
    seed: int = 0,
) -> Dict[str, object]:
    """Replay an add/remove event churn, re-solving after every event.

    This is exactly what the fluid simulator does: the reference path
    rebuilds the demand mapping and solves from scratch per event, the
    incremental path applies a delta and re-solves.
    """
    rng = random.Random(seed)
    caps, demands = _random_allocation_instance(rng, n_links, n_flows)

    # Deterministic event script: start half-full, then churn.
    flow_ids = list(demands)
    initial = flow_ids[: n_flows // 2]
    pool = flow_ids[n_flows // 2 :]
    active_script = set(initial)
    events: List[Tuple[str, str]] = [("add", fid) for fid in initial]
    for _ in range(n_events):
        if pool and (not active_script or rng.random() < 0.5):
            fid = pool.pop(rng.randrange(len(pool)))
            events.append(("add", fid))
            active_script.add(fid)
        else:
            fid = rng.choice(sorted(active_script))
            events.append(("remove", fid))
            active_script.discard(fid)
            pool.append(fid)

    # Reference: rebuild + solve per event, as the pre-PR fluid loop did.
    active: Dict[str, FlowDemand] = {}
    ref_solutions: List[Dict[str, float]] = []
    started = time.perf_counter()
    for op, fid in events:
        if op == "add":
            active[fid] = demands[fid]
        else:
            del active[fid]
        ref_solutions.append(
            max_min_allocation({f: active[f] for f in active}, caps)
        )
    reference_s = time.perf_counter() - started

    # Incremental: apply the delta, re-solve.
    allocator = IncrementalAllocator(caps)
    inc_solutions: List[Dict[str, float]] = []
    started = time.perf_counter()
    for op, fid in events:
        if op == "add":
            allocator.add_demand(fid, demands[fid])
        else:
            allocator.remove_flow(fid)
        inc_solutions.append(allocator.solve())
    incremental_s = time.perf_counter() - started

    worst = max(
        (_rates_diff(r, g) for r, g in zip(ref_solutions, inc_solutions)),
        default=0.0,
    )
    return {
        "name": "allocator",
        "params": {"n_links": n_links, "n_flows": n_flows, "n_events": len(events)},
        "reference_s": round(reference_s, 6),
        "optimized_s": round(incremental_s, 6),
        "speedup": round(reference_s / incremental_s, 3) if incremental_s else None,
        "max_relative_diff": worst,
        "matched": worst <= 1e-9,
    }


# ---------------------------------------------------------------------------
# Fluid simulation
# ---------------------------------------------------------------------------
def _fluid_workload(seed: int, n_pairs: int, n_flows: int) -> List[Flow]:
    rng = random.Random(seed)
    flows: List[Flow] = []
    for i in range(n_flows):
        src = f"s{rng.randint(1, n_pairs)}"
        dst = f"r{rng.randint(1, n_pairs)}"
        start = rng.uniform(0.0, 5.0)
        if rng.random() < 0.15:
            flows.append(
                Flow(
                    flow_id=f"bg{i}", src=src, dst=dst, size_bytes=None,
                    start_time=start, end_time=start + rng.uniform(0.5, 4.0),
                )
            )
        else:
            cap = 0.2 * GBITPS if rng.random() < 0.3 else None
            flows.append(
                Flow(
                    flow_id=f"x{i}", src=src, dst=dst,
                    size_bytes=rng.uniform(5, 120) * MBYTE,
                    start_time=start, max_rate_bps=cap,
                )
            )
    return flows


def bench_fluid(
    n_pairs: int = 16,
    n_flows: int = 420,
    seed: int = 0,
) -> Dict[str, object]:
    """Run one bursty fluid simulation with each allocator and compare."""
    topo = build_two_rack_cloud(n_pairs=n_pairs)
    flows = _fluid_workload(seed, n_pairs, n_flows)

    def run(mode: str):
        sim = FluidSimulation(topo, allocator=mode)
        sim.add_flows(flows)
        started = time.perf_counter()
        result = sim.run()
        return time.perf_counter() - started, result

    reference_s, ref = run(ALLOCATOR_REFERENCE)
    optimized_s, got = run(ALLOCATOR_INCREMENTAL)

    matched = (
        set(ref.completion_times) == set(got.completion_times)
        and _close(ref.end_time, got.end_time)
        and all(
            _close(t, got.completion_times[fid])
            for fid, t in ref.completion_times.items()
        )
    )
    return {
        "name": "fluid",
        "params": {"n_pairs": n_pairs, "n_flows": n_flows},
        "reference_s": round(reference_s, 6),
        "optimized_s": round(optimized_s, 6),
        "speedup": round(reference_s / optimized_s, 3) if optimized_s else None,
        "events": sum(len(tl.segments) for tl in got.timelines.values()),
        "matched": matched,
    }


# ---------------------------------------------------------------------------
# Fluid event loop (scalar vs vectorised) on a datacenter tree
# ---------------------------------------------------------------------------
def _numeric_hosts(topo) -> List[str]:
    """Hosts in coordinate order (``host10`` after ``host9``), so slicing
    by rack size yields the builder's actual racks — ``topo.hosts()`` is
    lexicographic and interleaves pods."""
    return sorted(topo.hosts(), key=lambda h: int(h[4:]))


def _tree_rack_flows(
    topo,
    hosts_per_rack: int,
    seed: int,
    p_flow: float,
    stagger_s: float = 0.05,
    capped_frac: float = 0.3,
) -> List[Flow]:
    """Rack-local random meshes: each rack's hosts exchange flows with
    probability ``p_flow`` per ordered pair.  Racks are independent sharing
    components, so the allocator's partial re-solves stay engaged — the
    regime real tenant placements produce."""
    rng = random.Random(seed)
    hosts = _numeric_hosts(topo)
    flows: List[Flow] = []
    i = 0
    for r in range(0, len(hosts), hosts_per_rack):
        for a, b in itertools.permutations(hosts[r : r + hosts_per_rack], 2):
            if rng.random() < p_flow:
                cap = (
                    rng.choice([0.2, 0.5]) * GBITPS
                    if rng.random() < capped_frac
                    else None
                )
                flows.append(
                    Flow(
                        flow_id=f"f{i}", src=a, dst=b,
                        size_bytes=rng.uniform(0.1, 5.0) * MBYTE,
                        start_time=rng.uniform(0.0, stagger_s),
                        max_rate_bps=cap,
                    )
                )
                i += 1
    return flows


def _fluid_results_identical(a, b) -> bool:
    """Dict-level equality of two :class:`FluidResult`s — bitwise, not
    tolerance-based: completion times, remaining bytes, states, end time,
    and every per-flow rate segment."""

    def segs(result):
        return {
            fid: [(s.start, s.end, s.rate_bps) for s in tl.segments]
            for fid, tl in result.timelines.items()
        }

    return (
        a.completion_times == b.completion_times
        and a.remaining_bytes == b.remaining_bytes
        and a.end_time == b.end_time
        and a.states == b.states
        and segs(a) == segs(b)
    )


def bench_fluid_loop(
    pods: int = 8,
    racks_per_pod: int = 8,
    hosts_per_rack: int = 16,
    num_cores: int = 4,
    p_flow: float = 0.10,
    seed: int = 0,
) -> Dict[str, object]:
    """Vectorised fluid event loop vs the scalar loop, identical allocator.

    Both passes use the default (incremental) allocator on the same
    workload, so the A/B isolates the event loop itself: array-backed
    next-event search and batched drain/retire against the per-flow Python
    scan.  The results must be *bit-identical* (dict equality down to rate
    segments), which is the vector loop's contract.
    """
    from repro.net.fluid import LOOP_SCALAR, LOOP_VECTOR
    from repro.net.topology import TreeSpec, build_multi_rooted_tree

    spec = TreeSpec(
        pods=pods, racks_per_pod=racks_per_pod,
        hosts_per_rack=hosts_per_rack, num_cores=num_cores,
    )
    topo = build_multi_rooted_tree(spec)
    flows = _tree_rack_flows(topo, hosts_per_rack, seed, p_flow)

    def run(loop: str):
        sim = FluidSimulation(topo, loop=loop)
        sim.add_flows(flows)
        started = time.perf_counter()
        result = sim.run()
        return time.perf_counter() - started, result

    reference_s, ref = run(LOOP_SCALAR)
    optimized_s, got = run(LOOP_VECTOR)
    return {
        "name": "fluid_loop",
        "params": {
            "pods": pods, "racks_per_pod": racks_per_pod,
            "hosts_per_rack": hosts_per_rack, "num_cores": num_cores,
            "p_flow": p_flow, "n_hosts": len(topo.hosts()),
            **_env_params(),
        },
        "n_flows": len(flows),
        "events": sum(len(tl.segments) for tl in got.timelines.values()),
        "reference_s": round(reference_s, 6),
        "optimized_s": round(optimized_s, 6),
        "speedup": round(reference_s / optimized_s, 3) if optimized_s else None,
        "matched": _fluid_results_identical(ref, got),
    }


# ---------------------------------------------------------------------------
# Structured-topology routing fast path
# ---------------------------------------------------------------------------
def bench_routing(
    pods: int = 4,
    racks_per_pod: int = 4,
    hosts_per_rack: int = 64,
    num_cores: int = 4,
    nx_sample: int = 400,
    seed: int = 0,
) -> Dict[str, object]:
    """Structured tree routing vs networkx shortest-path search.

    The structured router computes paths arithmetically from host
    coordinates; networkx searches the graph.  The full ordered host mesh
    is routed through :meth:`path_links_matrix` on the structured side; the
    networkx side is timed on a deterministic sample of pairs (routing the
    full mesh through networkx would take minutes) and extrapolated —
    ``reference_s`` is the extrapolation, ``nx_sample_s`` the measured
    time.  ``matched`` requires the structured node paths and link rows to
    equal networkx's exactly on the sampled pairs.
    """
    from repro.net.links import directed_link_id
    from repro.net.topology import (
        TreeSpec,
        build_multi_rooted_tree,
        clear_route_cache,
        set_structured_routing_enabled,
    )

    spec = TreeSpec(
        pods=pods, racks_per_pod=racks_per_pod,
        hosts_per_rack=hosts_per_rack, num_cores=num_cores,
    )

    previous = set_structured_routing_enabled(False)
    try:
        clear_route_cache()
        topo_nx = build_multi_rooted_tree(spec)
        pairs = topo_nx.host_pairs()
        rng = random.Random(seed)
        sample_idx = sorted(rng.sample(range(len(pairs)), min(nx_sample, len(pairs))))
        sample_pairs = [pairs[i] for i in sample_idx]
        started = time.perf_counter()
        nx_paths = [topo_nx.node_path(a, b) for a, b in sample_pairs]
        nx_sample_s = time.perf_counter() - started
    finally:
        set_structured_routing_enabled(previous)

    clear_route_cache()
    topo_structured = build_multi_rooted_tree(spec)
    started = time.perf_counter()
    rows, lengths, link_ids = topo_structured.path_links_matrix(pairs)
    optimized_s = time.perf_counter() - started

    # Exact agreement on the sampled pairs: node paths and link-index rows.
    index = {lid: i for i, lid in enumerate(link_ids)}
    matched = True
    for k, (a, b), nx_path in zip(sample_idx, sample_pairs, nx_paths):
        if topo_structured.node_path(a, b) != nx_path:
            matched = False
            break
        expected_row = [
            index[directed_link_id(u, v)]
            for u, v in zip(nx_path, nx_path[1:])
        ]
        if rows[k, : lengths[k]].tolist() != expected_row:
            matched = False
            break

    scale_factor = len(pairs) / len(sample_pairs)
    reference_s = nx_sample_s * scale_factor
    return {
        "name": "routing",
        "params": {
            "pods": pods, "racks_per_pod": racks_per_pod,
            "hosts_per_rack": hosts_per_rack, "num_cores": num_cores,
            "n_hosts": len(topo_nx.hosts()), "nx_sample": len(sample_pairs),
            "extrapolated_reference": True,
            **_env_params(),
        },
        "n_pairs": len(pairs),
        "nx_sample_s": round(nx_sample_s, 6),
        "reference_s": round(reference_s, 6),
        "optimized_s": round(optimized_s, 6),
        "per_pair_nx_us": round(1e6 * nx_sample_s / len(sample_pairs), 3),
        "per_pair_structured_us": round(1e6 * optimized_s / len(pairs), 3),
        "speedup": round(reference_s / optimized_s, 3) if optimized_s else None,
        "matched": matched,
    }


# ---------------------------------------------------------------------------
# ILP placement (Appendix formulation)
# ---------------------------------------------------------------------------
def _ilp_bench_instance(n_tasks: int, n_vms: int, seed: int):
    """A reproducible mid-size instance: a chain of transfers plus random
    extra edges over machines with heterogeneous pair rates."""
    from repro.units import MBITPS
    from repro.workloads.application import Application, Task, TrafficMatrix

    rng = random.Random(seed)
    tasks = [Task(f"t{i}", rng.choice([0.5, 1.0, 2.0])) for i in range(n_tasks)]
    names = [t.name for t in tasks]
    traffic = TrafficMatrix()
    for i in range(n_tasks):
        traffic.add(names[i], names[(i + 1) % n_tasks], rng.uniform(0.5, 4.0) * GBYTE)
    extra = 0
    while extra < n_tasks // 2:
        i, j = rng.randrange(n_tasks), rng.randrange(n_tasks)
        if i != j and traffic.get(names[i], names[j]) == 0:
            traffic.add(names[i], names[j], rng.uniform(0.2, 2.0) * GBYTE)
            extra += 1
    app = Application("ilp-bench", tasks, traffic)
    machines = [f"m{i}" for i in range(n_vms)]
    cluster = ClusterState(machines=[Machine(m, cores=4.0) for m in machines])
    rates = {
        (a, b): rng.uniform(300 * MBITPS, 1.1 * GBITPS)
        for a in machines
        for b in machines
        if a != b
    }
    profile = NetworkProfile(vms=machines, rates_bps=rates)
    return app, cluster, profile


def bench_ilp_scale(
    n_tasks: int = 12,
    n_vms: int = 10,
    seed: int = 0,
) -> Dict[str, object]:
    """Appendix MILP: dense cold formulation vs pruned + warm-started.

    Both placers solve the identical instance to (near-)proven optimality;
    the achieved objectives must agree, so the pruning and the warm-start
    cut are verified exact while being timed.
    """
    from repro.core.estimator import estimate_completion_time
    from repro.core.placement.ilp import OptimalPlacer

    app, cluster, profile = _ilp_bench_instance(n_tasks, n_vms, seed)

    dense = OptimalPlacer(
        formulation="dense", warm_start=False, symmetry_breaking=False,
        mip_rel_gap=1e-9, time_limit_s=600.0,
    )
    started = time.perf_counter()
    dense_placement = dense.place(app, cluster, profile)
    reference_s = time.perf_counter() - started

    pruned = OptimalPlacer(mip_rel_gap=1e-9, time_limit_s=600.0)
    started = time.perf_counter()
    pruned_placement = pruned.place(app, cluster, profile)
    optimized_s = time.perf_counter() - started

    dense_objective = estimate_completion_time(
        dense_placement.assignments, app, profile, model="hose"
    )
    pruned_objective = estimate_completion_time(
        pruned_placement.assignments, app, profile, model="hose"
    )
    dense_stats = dense.last_solve_stats or {}
    pruned_stats = pruned.last_solve_stats or {}
    return {
        "name": "ilp_scale",
        "params": {"n_tasks": n_tasks, "n_vms": n_vms},
        "reference_s": round(reference_s, 6),
        "optimized_s": round(optimized_s, 6),
        "speedup": round(reference_s / optimized_s, 3) if optimized_s else None,
        "dense_objective_s": dense_objective,
        "pruned_objective_s": pruned_objective,
        # The structural win: formulation size before/after pruning.
        "dense_vars": dense_stats.get("n_vars"),
        "dense_rows": dense_stats.get("n_rows"),
        "pruned_vars": pruned_stats.get("n_vars"),
        "pruned_rows": pruned_stats.get("n_rows"),
        "pruned_binaries": pruned_stats.get("n_binaries"),
        "warm_start_accepted": pruned_stats.get("warm_start_accepted"),
        "warm_bound_s": pruned_stats.get("warm_bound_s"),
        "mip_nodes_dense": dense_stats.get("mip_nodes"),
        "mip_nodes_pruned": pruned_stats.get("mip_nodes"),
        "matched": _close(dense_objective, pruned_objective, tol=1e-6),
    }


def bench_ilp_pipe(
    n_tasks: int = 12,
    n_vms: int = 10,
    seed: int = 0,
) -> Dict[str, object]:
    """Pipe-model MILP: dense per-pair products vs sender-aggregated rows.

    The pipe model prices every task pair on its own machine-pair rate, so
    the dense formulation carries O(pairs x machines^2) product variables.
    The pruned formulation aggregates them per sender the Glover way —
    O(tasks x machines^2) continuous variables — and must reach the same
    optimal completion time.
    """
    from repro.core.estimator import estimate_completion_time
    from repro.core.placement.ilp import OptimalPlacer

    app, cluster, profile = _ilp_bench_instance(n_tasks, n_vms, seed)

    dense = OptimalPlacer(
        model="pipe", formulation="dense", warm_start=False,
        symmetry_breaking=False, mip_rel_gap=1e-9, time_limit_s=600.0,
    )
    started = time.perf_counter()
    dense_placement = dense.place(app, cluster, profile)
    reference_s = time.perf_counter() - started

    pruned = OptimalPlacer(model="pipe", mip_rel_gap=1e-9, time_limit_s=600.0)
    started = time.perf_counter()
    pruned_placement = pruned.place(app, cluster, profile)
    optimized_s = time.perf_counter() - started

    dense_objective = estimate_completion_time(
        dense_placement.assignments, app, profile, model="pipe"
    )
    pruned_objective = estimate_completion_time(
        pruned_placement.assignments, app, profile, model="pipe"
    )
    dense_stats = dense.last_solve_stats or {}
    pruned_stats = pruned.last_solve_stats or {}
    return {
        "name": "ilp_pipe",
        "params": {"n_tasks": n_tasks, "n_vms": n_vms},
        "reference_s": round(reference_s, 6),
        "optimized_s": round(optimized_s, 6),
        "speedup": round(reference_s / optimized_s, 3) if optimized_s else None,
        "dense_objective_s": dense_objective,
        "pruned_objective_s": pruned_objective,
        "dense_vars": dense_stats.get("n_vars"),
        "dense_rows": dense_stats.get("n_rows"),
        "pruned_vars": pruned_stats.get("n_vars"),
        "pruned_rows": pruned_stats.get("n_rows"),
        "mip_nodes_dense": dense_stats.get("mip_nodes"),
        "mip_nodes_pruned": pruned_stats.get("mip_nodes"),
        "matched": _close(dense_objective, pruned_objective, tol=1e-6),
    }


# ---------------------------------------------------------------------------
# Measurement mesh
# ---------------------------------------------------------------------------
def bench_mesh(
    n_vms: int = 10,
    parallelism: int = 8,
    seed: int = 0,
) -> Dict[str, object]:
    """Full-mesh campaign, serial vs batched coordinator.

    The batched mesh reduces the *modelled* campaign wall-clock (the
    quantity the paper's 90-second budget is about); the simulated probes
    themselves still run one by one.  Determinism is checked by re-running
    the batched campaign on an identically seeded provider.
    """

    def campaign(par: int, provider_seed: int):
        provider = make_provider("ec2", seed=provider_seed)
        provider.request_vms(n_vms)
        plan = MeasurementPlan(advance_clock=False, parallelism=par)
        measurer = NetworkMeasurer(provider, plan=plan)
        started = time.perf_counter()
        profile = measurer.measure()
        return time.perf_counter() - started, profile

    serial_wall, serial_profile = campaign(1, seed)
    batched_wall, batched_profile = campaign(parallelism, seed)
    _, batched_again = campaign(parallelism, seed)

    deterministic = batched_profile.rates_bps == batched_again.rates_bps
    same_pairs = set(serial_profile.pairs()) == set(batched_profile.pairs())
    modeled_serial = serial_profile.measurement_duration_s
    modeled_batched = batched_profile.measurement_duration_s
    return {
        "name": "mesh",
        "params": {"n_vms": n_vms, "parallelism": parallelism},
        "pairs": len(serial_profile.pairs()),
        "serial_wall_s": round(serial_wall, 6),
        "batched_wall_s": round(batched_wall, 6),
        "modeled_serial_s": round(modeled_serial, 3),
        "modeled_batched_s": round(modeled_batched, 3),
        "modeled_speedup": (
            round(modeled_serial / modeled_batched, 3) if modeled_batched else None
        ),
        "matched": deterministic and same_pairs,
    }


# ---------------------------------------------------------------------------
# End-to-end experiments sweep
# ---------------------------------------------------------------------------
def bench_e2e_experiments(
    quick: bool = False,
    seed: int = 0,
) -> Dict[str, object]:
    """The ``python -m repro.experiments bench`` sweep, reference vs optimised.

    Both passes run the identical grid in-process; ``reference_mode``
    switches the library onto the pre-optimisation code paths.  Trial
    metrics must agree — the optimisations are exact.
    """
    if quick:
        scenario_params = {
            "all-to-all": {"n_vms": 6, "n_tasks": 6},
            "partition-aggregate": {"n_vms": 6, "n_workers": 5},
        }
        scenarios = ("all-to-all", "partition-aggregate")
        trials = 2
    else:
        # Weighted toward flow-heavy cells: the paper's sweeps are dominated
        # by exactly these (many concurrent transfers, event churn), which is
        # where the pre-optimisation code scales worst.
        scenario_params = {
            "all-to-all": {"n_vms": 16, "n_tasks": 36},
            "bursty-mapreduce": {"n_vms": 16, "n_mappers": 20, "n_reducers": 20},
            "multi-app-sequence": {"n_vms": 10, "n_apps": 5},
        }
        scenarios = ("all-to-all", "bursty-mapreduce", "multi-app-sequence")
        trials = 3
    config = ExperimentConfig(
        scenarios=scenarios,
        placers=("greedy",),
        trials=trials,
        base_seed=seed,
        baseline="random",
        workers=1,
        scenario_params=scenario_params,
    )

    with reference_mode():
        started = time.perf_counter()
        ref_result = ExperimentRunner(config).run()
        reference_s = time.perf_counter() - started

    clear_route_cache()  # the optimised pass must not inherit warm routes
    started = time.perf_counter()
    opt_result = ExperimentRunner(config).run()
    optimized_s = time.perf_counter() - started

    matched = len(ref_result.records) == len(opt_result.records)
    if matched:
        for ref_rec, opt_rec in zip(ref_result.records, opt_result.records):
            if (
                (ref_rec.scenario, ref_rec.placer, ref_rec.trial)
                != (opt_rec.scenario, opt_rec.placer, opt_rec.trial)
                or ref_rec.status != opt_rec.status
                or not _close(ref_rec.makespan_s or 0.0, opt_rec.makespan_s or 0.0)
                or not _close(
                    ref_rec.total_running_time_s or 0.0,
                    opt_rec.total_running_time_s or 0.0,
                )
            ):
                matched = False
                break
    return {
        "name": "e2e_experiments",
        "params": {
            "scenarios": list(scenarios),
            "trials": trials,
            "scenario_params": {k: dict(v) for k, v in scenario_params.items()},
        },
        "trials_total": len(opt_result.records),
        "reference_s": round(reference_s, 6),
        "optimized_s": round(optimized_s, 6),
        "speedup": round(reference_s / optimized_s, 3) if optimized_s else None,
        "matched": matched,
    }


# ---------------------------------------------------------------------------
# Sweep resume (persistent result store)
# ---------------------------------------------------------------------------
def bench_sweep_resume(
    quick: bool = False,
    seed: int = 0,
) -> Dict[str, object]:
    """Cold vs. warm sweep against a persistent :class:`ResultStore`.

    The cold pass executes every cell and populates a fresh store; the warm
    pass re-runs the *identical* config against it.  The warm pass must
    execute zero trials and reproduce the cold pass's result JSON
    bit-for-bit (cached records carry the cold run's timings), which is the
    resume guarantee the ROADMAP's persistent-cache item asks for.
    """
    if quick:
        scenarios: Tuple[str, ...] = ("smoke",)
        scenario_params: Dict[str, Dict[str, object]] = {}
        trials = 2
    else:
        # Flow-heavy cells, as in the full e2e bench: the resume win scales
        # with how expensive the cells being skipped are.
        scenarios = ("all-to-all", "bursty-mapreduce", "ec2-trace-replay")
        scenario_params = {
            "all-to-all": {"n_vms": 16, "n_tasks": 36},
            "bursty-mapreduce": {"n_vms": 16, "n_mappers": 20, "n_reducers": 20},
            "ec2-trace-replay": {"n_vms": 10, "n_apps": 4},
        }
        trials = 3

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        config = ExperimentConfig(
            scenarios=scenarios,
            placers=("greedy",),
            trials=trials,
            base_seed=seed,
            baseline="random",
            workers=1,
            backend="inline",
            cache_dir=tmp,
            scenario_params=scenario_params,
        )

        cold_runner = ExperimentRunner(config)
        started = time.perf_counter()
        cold = cold_runner.run()
        cold_s = time.perf_counter() - started

        warm_runner = ExperimentRunner(config)
        started = time.perf_counter()
        warm = warm_runner.run()
        warm_s = time.perf_counter() - started

        cold_stats = cold_runner.last_stats
        warm_stats = warm_runner.last_stats

    identical = json.dumps(cold.to_json_dict(), sort_keys=True) == json.dumps(
        warm.to_json_dict(), sort_keys=True
    )
    return {
        "name": "sweep_resume",
        "params": {
            "scenarios": list(scenarios),
            "trials": trials,
            "scenario_params": {k: dict(v) for k, v in scenario_params.items()},
        },
        "trials_total": len(cold.records),
        "cold_executed": cold_stats.executed,
        "warm_executed": warm_stats.executed,
        "warm_cache_hits": warm_stats.cache_hits,
        "reference_s": round(cold_s, 6),
        "optimized_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 3) if warm_s else None,
        "matched": identical and warm_stats.executed == 0,
    }


# ---------------------------------------------------------------------------
# Multi-worker remote fabric
# ---------------------------------------------------------------------------
def bench_multi_worker(
    quick: bool = False,
    seed: int = 0,
) -> Dict[str, object]:
    """1-worker vs. N-worker wall clock through the remote sweep fabric.

    Both passes push the same mixed grid — a handful of ilp cells that
    dwarf everything else, plus cheap greedy/random cells — through real
    localhost worker processes speaking the lease protocol.  The single
    worker pass doubles as the reference: the fleet pass must reproduce
    its records bit for bit (modulo host wall-clock fields).

    The passes share one result store, so the fleet pass chunks by
    *observed* per-cell cost from the first pass rather than priors —
    which is what keeps every worker fed (``matched`` bounds the maximum
    worker idle fraction, the no-stranding guarantee of the cost-aware
    chunker).  Salvage/retry counters ride along and must stay zero: this
    is the fault-free path.

    The suite floor binds ``scheduled_parallelism`` (total worker busy
    time / makespan) rather than the wall-clock ratio: keeping >= 2 of the
    4 workers fed concurrently is the fabric's promise and holds on any
    host, while wall-clock speedup additionally needs >= 2 physical cores
    (it is still reported, with ``host_cpus`` for context).
    """
    from repro.experiments.backends import create_backend
    from repro.experiments.results import (
        HOST_TIMING_FIELDS,
        SOLVER_RUN_STAT_KEYS,
    )
    from repro.experiments.trials import WorkItem

    if quick:
        fleet = 2
        grid: List[Tuple[str, Dict[str, object], int]] = [
            ("greedy", {}, 3), ("random", {}, 3),
        ]
        scenario, scenario_params = "smoke", {}
    else:
        fleet = 4
        # ~1.2 s per ilp cell at this size; the light cells are <10 ms.
        grid = [("ilp", {}, 8), ("greedy", {}, 8), ("random", {}, 8)]
        scenario, scenario_params = "all-to-all", {"n_vms": 6, "n_tasks": 7}

    items = [
        WorkItem.make(
            scenario, placer, trial, seed,
            params=scenario_params, placer_params=placer_params,
        )
        for placer, placer_params, trials in grid
        for trial in range(trials)
    ]

    def canonical(records) -> str:
        # Same canonical form as ExperimentResult.canonical_json_dict: drop
        # host wall-clock fields, and for solver-backed cells the per-run
        # solver facts (solve wall, node counts, ...) that vary run to run.
        payload = []
        for rec in records:
            data = {
                k: v
                for k, v in vars(rec).items()
                if k not in HOST_TIMING_FIELDS
            }
            if data.get("solver_stats"):
                data["solver_stats"] = {
                    app: {
                        k: v
                        for k, v in app_stats.items()
                        if k not in SOLVER_RUN_STAT_KEYS
                    }
                    for app, app_stats in data["solver_stats"].items()
                }
            payload.append(data)
        return json.dumps(payload, sort_keys=True)

    with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as tmp:
        single = create_backend(
            "remote", workers=1, options={"store_root": tmp}
        )
        started = time.perf_counter()
        reference_records = single.map_trials(items)
        reference_s = time.perf_counter() - started
        single_stats = single.last_fabric_stats

        many = create_backend(
            "remote", workers=fleet, options={"store_root": tmp}
        )
        started = time.perf_counter()
        fleet_records = many.map_trials(items)
        optimized_s = time.perf_counter() - started
        fleet_stats = many.last_fabric_stats

    identical = canonical(reference_records) == canonical(fleet_records)
    fault_free = all(
        single_stats[k] == 0 and fleet_stats[k] == 0
        for k in ("retry_waves", "retried_trials", "salvaged_records")
    )
    idle_fraction = fleet_stats["max_worker_idle_fraction"]
    scheduled = fleet_stats["scheduled_parallelism"]
    matched = identical and fault_free
    if not quick:
        # The cost-aware chunker's no-stranding guarantee: with observed
        # costs, no worker of the fleet may sit idle for most of the run.
        matched = matched and fleet_stats["cost_source"] == "observed"
        matched = matched and idle_fraction <= MAX_WORKER_IDLE_FRACTION
    return {
        "name": "multi_worker",
        "params": {
            "scenario": scenario,
            "scenario_params": scenario_params,
            "grid": [
                {"placer": placer, "trials": trials}
                for placer, _, trials in grid
            ],
            "workers": fleet,
            "host_cpus": os.cpu_count(),
        },
        "trials_total": len(items),
        "reference_s": round(reference_s, 6),
        "optimized_s": round(optimized_s, 6),
        "speedup": round(reference_s / optimized_s, 3) if optimized_s else None,
        "scheduled_parallelism": scheduled,
        "cost_source": fleet_stats["cost_source"],
        "max_worker_idle_fraction": idle_fraction,
        "max_worker_idle_fraction_max": MAX_WORKER_IDLE_FRACTION,
        "salvaged_records": fleet_stats["salvaged_records"],
        "retried_trials": fleet_stats["retried_trials"],
        "stragglers_redispatched": fleet_stats["stragglers_redispatched"],
        "matched": matched,
    }


# ---------------------------------------------------------------------------
# Service churn (online placement service)
# ---------------------------------------------------------------------------
def bench_service_churn(
    quick: bool = False,
    seed: int = 0,
) -> Dict[str, object]:
    """Churn-session throughput and predictor regret vs. the oracle.

    Times one combined-predictor session end to end (streaming admission,
    TTL-cached measurement, forecasts, migration) and reports applications
    admitted per wall-second plus the mean-completion-time regret of the
    combined and stale predictors against the oracle session on the same
    seed.  ``matched`` asserts the session is *deterministic*: an identical
    re-run must reproduce the canonical report bit for bit — the guarantee
    the CI service smoke job builds on.
    """
    from repro.service.session import run_churn_session

    if quick:
        session = dict(
            n_vms=6, hours=3.0, drift="hotspot-flap", epoch_s=120.0,
            apps_per_hour=1.5,
        )
    else:
        session = dict(
            n_vms=10, hours=6.0, drift="hotspot-flap", epoch_s=300.0,
            apps_per_hour=2.0,
        )

    started = time.perf_counter()
    report = run_churn_session(
        seed, predictor="combined", placer="greedy", **session
    )
    combined_s = time.perf_counter() - started
    rerun = run_churn_session(
        seed, predictor="combined", placer="greedy", **session
    )
    oracle = run_churn_session(
        seed, predictor="oracle", placer="greedy", **session
    )
    stale = run_churn_session(
        seed, predictor="stale", placer="greedy", **session
    )

    deterministic = json.dumps(
        report.canonical_json_dict(), sort_keys=True
    ) == json.dumps(rerun.canonical_json_dict(), sort_keys=True)
    admitted = len(report.completed())

    def _mean(rep) -> Optional[float]:
        if not rep.completed():
            return None
        return round(rep.mean_completion_time_s, 3)

    def _regret(rep) -> Optional[float]:
        if not rep.completed() or not oracle.completed():
            return None
        return round(
            rep.mean_completion_time_s / oracle.mean_completion_time_s - 1.0, 4
        )

    return {
        "name": "service_churn",
        "params": dict(session),
        "apps_admitted": admitted,
        "apps_rejected": len(report.rejected()),
        "migrations": len(report.migrations),
        "pairs_measured": report.measurement.get("pairs_measured"),
        "pairs_reused": report.measurement.get("pairs_reused"),
        "session_wall_s": round(combined_s, 6),
        "apps_admitted_per_s": (
            round(admitted / combined_s, 3) if combined_s else None
        ),
        "mean_completion_combined_s": _mean(report),
        "mean_completion_oracle_s": _mean(oracle),
        "mean_completion_stale_s": _mean(stale),
        "regret_combined_vs_oracle": _regret(report),
        "regret_stale_vs_oracle": _regret(stale),
        "matched": deterministic,
    }


# ---------------------------------------------------------------------------
# Fault injection (self-healing control loop)
# ---------------------------------------------------------------------------
def bench_faults(
    quick: bool = False,
    seed: int = 0,
) -> Dict[str, object]:
    """Recovery cost of the self-healing service under injected faults.

    Runs the same churn session fault-free and with the ``random-preempt``
    fault generator, and reports the recovery latency (fault instant to the
    epoch boundary where the service re-placed the affected tasks), the
    completion-time degradation the faults caused, and the re-placement
    throughput.  ``matched`` asserts three robustness invariants: the
    faulted session is deterministic (an identical re-run reproduces the
    canonical report bit for bit), an *empty* fault timeline leaves the
    report bit-identical to the no-faults path, and every application still
    terminates (completed or gracefully rejected) despite mid-session
    preemptions.
    """
    from repro.faults import FaultTimeline, attach_faults
    from repro.service.engine import PlacementService
    from repro.service.session import _resolve_placer, build_churn_session, run_churn_session

    if quick:
        session = dict(
            n_vms=6, hours=3.0, drift="random-walk", epoch_s=120.0,
            apps_per_hour=1.5,
        )
    else:
        session = dict(
            n_vms=10, hours=6.0, drift="random-walk", epoch_s=300.0,
            apps_per_hour=2.0,
        )
    faulted = dict(session, faults="random-preempt")

    clean = run_churn_session(seed, predictor="combined", placer="greedy", **session)
    started = time.perf_counter()
    report = run_churn_session(seed, predictor="combined", placer="greedy", **faulted)
    faulted_s = time.perf_counter() - started
    rerun = run_churn_session(seed, predictor="combined", placer="greedy", **faulted)

    deterministic = json.dumps(
        report.canonical_json_dict(), sort_keys=True
    ) == json.dumps(rerun.canonical_json_dict(), sort_keys=True)

    # Empty fault timeline must be inert: attach one explicitly and compare
    # against the plain no-faults session on the same seed.
    provider, cluster, apps, _ = build_churn_session(seed, **session)
    attach_faults(provider, FaultTimeline())
    empty_report = PlacementService(
        provider, cluster, _resolve_placer("greedy", seed, None),
        predictor="combined",
    ).run_session(apps, hours=float(session["hours"]))
    empty_inert = json.dumps(
        empty_report.canonical_json_dict(), sort_keys=True
    ) == json.dumps(clean.canonical_json_dict(), sort_keys=True)

    all_terminated = all(
        outcome.status in ("completed", "rejected") for outcome in report.apps
    )

    latencies = [action.latency_s for action in report.recovery]
    replacements = sum(
        1 for action in report.recovery if action.action == "re-placed"
    )
    apps_replaced = sum(
        len(action.apps) for action in report.recovery
        if action.action == "re-placed"
    )

    def _mean_completion(rep) -> Optional[float]:
        if not rep.completed():
            return None
        return round(rep.mean_completion_time_s, 3)

    degradation = None
    if clean.completed() and report.completed():
        degradation = round(
            report.mean_completion_time_s / clean.mean_completion_time_s - 1.0,
            4,
        )

    return {
        "name": "faults",
        "params": dict(faulted),
        "fault_events": len(report.recovery),
        "apps_replaced": apps_replaced,
        "replacements": replacements,
        "apps_rejected": len(report.rejected()),
        "pairs_degraded": report.measurement.get("pairs_degraded"),
        "mean_recovery_latency_s": (
            round(sum(latencies) / len(latencies), 3) if latencies else None
        ),
        "max_recovery_latency_s": (
            round(max(latencies), 3) if latencies else None
        ),
        "mean_completion_clean_s": _mean_completion(clean),
        "mean_completion_faulted_s": _mean_completion(report),
        "completion_degradation": degradation,
        "session_wall_s": round(faulted_s, 6),
        "apps_recovered_per_s": (
            round(apps_replaced / faulted_s, 3) if faulted_s else None
        ),
        "matched": deterministic and empty_inert and all_terminated,
    }


# ---------------------------------------------------------------------------
# Datacenter scale (vectorised allocator + hierarchical greedy)
# ---------------------------------------------------------------------------
_SCALE_RACK_SIZE = 32


def _hose_mesh_instance(
    n_vms: int, seed: int
) -> Tuple[Dict[str, float], Dict[str, FlowDemand]]:
    """A rack-structured allocation instance built directly on link ids.

    Every VM has a 1 Gbit/s access link; racks of 32 VMs share a 10 Gbit/s
    uplink.  Flows (two per VM) cross racks most of the time, so both the
    access tier and the uplinks carry real contention.  No topology object
    or routing is involved — this isolates the allocator itself, which is
    what lets the instance reach 4096 VMs.
    """
    rng = random.Random(seed * 1_000_003 + n_vms)
    n_racks = (n_vms + _SCALE_RACK_SIZE - 1) // _SCALE_RACK_SIZE
    caps: Dict[str, float] = {f"up{r}": 10 * GBITPS for r in range(n_racks)}
    for i in range(n_vms):
        caps[f"acc{i}"] = 1 * GBITPS
    demands: Dict[str, FlowDemand] = {}
    for f in range(2 * n_vms):
        src = rng.randrange(n_vms)
        dst = rng.randrange(n_vms - 1)
        if dst >= src:
            dst += 1
        links = [f"acc{src}"]
        src_rack, dst_rack = src // _SCALE_RACK_SIZE, dst // _SCALE_RACK_SIZE
        if src_rack != dst_rack:
            links += [f"up{src_rack}", f"up{dst_rack}"]
        links.append(f"acc{dst}")
        cap = rng.uniform(0.05 * GBITPS, 0.9 * GBITPS) if rng.random() < 0.3 else None
        demands[f"f{f}"] = FlowDemand(links=tuple(links), max_rate=cap)
    return caps, demands


def _rack_profile(n_vms: int, seed: int):
    """Rack-structured pair rates as a :class:`MatrixNetworkProfile`.

    Intra-rack pairs see ~1 Gbit/s and inter-rack pairs ~0.2 Gbit/s, both
    with ±10% multiplicative noise — the clustered structure the paper
    measures on EC2 and the hierarchical greedy placer exploits.
    """
    import numpy as np

    from repro.core.network_profile import MatrixNetworkProfile

    machines = [f"m{i}" for i in range(n_vms)]
    rack = np.arange(n_vms) // _SCALE_RACK_SIZE
    base = np.where(
        rack[:, None] == rack[None, :], 1.0 * GBITPS, 0.2 * GBITPS
    )
    noise = np.random.default_rng(seed * 7 + n_vms).uniform(
        0.9, 1.1, (n_vms, n_vms)
    )
    return machines, MatrixNetworkProfile(machines, base * noise)


def _scale_allocator(n_vms: int, seed: int, with_reference: bool) -> Dict[str, object]:
    caps, demands = _hose_mesh_instance(n_vms, seed)

    def solve(mode: str):
        allocator = IncrementalAllocator(caps, mode=mode)
        for fid, demand in demands.items():
            allocator.add_demand(fid, demand)
        started = time.perf_counter()
        rates = allocator.solve()
        return time.perf_counter() - started, rates, allocator

    scalar_s, scalar_rates, _ = solve("scalar")
    vector_s, vector_rates, _ = solve("vector")
    auto = IncrementalAllocator(caps)
    for fid, demand in demands.items():
        auto.add_demand(fid, demand)

    entry: Dict[str, object] = {
        "n_flows": len(demands),
        "n_links": len(caps),
        "scalar_s": round(scalar_s, 6),
        "vector_s": round(vector_s, 6),
        "auto_picks_vector": auto.uses_vector_path(),
        "bit_identical": scalar_rates == vector_rates,
    }

    if with_reference:
        started = time.perf_counter()
        ref_rates = max_min_allocation(demands, caps)
        entry["reference_s"] = round(time.perf_counter() - started, 6)
        diff = _rates_diff(ref_rates, vector_rates)
        entry["max_relative_diff_vs_reference"] = diff
        entry["speedup_vector_vs_reference"] = (
            round(entry["reference_s"] / vector_s, 3) if vector_s else None
        )
        entry["matched"] = bool(entry["bit_identical"] and diff <= 1e-9)
    else:
        entry["reference_s"] = None
        entry["matched"] = bool(entry["bit_identical"])
    entry["speedup_vector_vs_scalar"] = (
        round(scalar_s / vector_s, 3) if vector_s else None
    )
    return entry


def _scale_greedy(
    n_vms: int, seed: int, with_flat: bool, n_workers: int = 24
) -> Dict[str, object]:
    machines, profile = _rack_profile(n_vms, seed)
    cluster = ClusterState(machines=[Machine(m, cores=4.0) for m in machines])
    app = scatter_gather(
        "svc", n_workers,
        request_bytes=4 * MBYTE,
        response_bytes=400 * MBYTE,
        cpu_per_task=1.0,
    )

    hier = GreedyPlacer(cluster_threshold=1)
    started = time.perf_counter()
    hier_placement = hier.place(app, cluster, profile)
    hier_s = time.perf_counter() - started

    entry: Dict[str, object] = {
        "n_machines": n_vms,
        "n_tasks": n_workers + 1,
        "hier_s": round(hier_s, 6),
        "cluster_stats": dict(hier.last_cluster_stats or {}),
        "hier_placed": len(hier_placement.assignments),
    }
    if with_flat:
        flat = GreedyPlacer(cluster_threshold=10**9)
        started = time.perf_counter()
        flat_placement = flat.place(app, cluster, profile)
        flat_s = time.perf_counter() - started
        entry["flat_s"] = round(flat_s, 6)
        entry["speedup_hier_vs_flat"] = round(flat_s / hier_s, 3) if hier_s else None
        entry["flat_placed"] = len(flat_placement.assignments)
    else:
        entry["flat_s"] = None
    return entry


def _scale_fluid(n_vms: int, seed: int, until: float = 1.0) -> Dict[str, object]:
    from repro.net.fluid import ALLOCATOR_VECTOR

    topo = build_two_rack_cloud(n_pairs=n_vms // 2)
    flows = _fluid_workload(seed, n_vms // 2, n_vms)

    def run(mode: str):
        sim = FluidSimulation(topo, allocator=mode)
        sim.add_flows(flows)
        started = time.perf_counter()
        result = sim.run(until=until)
        return time.perf_counter() - started, result

    reference_s, ref = run(ALLOCATOR_REFERENCE)
    vector_s, got = run(ALLOCATOR_VECTOR)
    agrees = (
        set(ref.completion_times) == set(got.completion_times)
        and _close(ref.end_time, got.end_time)
        and all(
            _close(t, got.completion_times[fid])
            for fid, t in ref.completion_times.items()
        )
        and all(
            _close(rem, got.remaining_bytes[fid], tol=1e-6)
            for fid, rem in ref.remaining_bytes.items()
        )
    )
    return {
        "n_vms": n_vms,
        "n_flows": len(flows),
        "until_s": until,
        "reference_s": round(reference_s, 6),
        "vector_s": round(vector_s, 6),
        "speedup": round(reference_s / vector_s, 3) if vector_s else None,
        "matched": agrees,
    }


def _scale_fluid_mega(
    seed: int,
    pods: int = 10,
    racks_per_pod: int = 16,
    hosts_per_rack: int = 64,
    num_cores: int = 8,
    until: float = 17.0,
) -> Dict[str, object]:
    """Million-flow fluid advance on a 10k-host tree, vector vs scalar loop.

    One pod's hosts form a full ordered mesh (1024 hosts -> 1,047,552
    flows) of 1/2/4 MB transfers starting together — the most adversarial
    shape for the allocator (a single million-flow sharing component) and
    for the event loop (every event re-scans every flow on the scalar
    path).  The advance is truncated at ``until``, chosen to include the
    first completion batches; both loops run the *same* truncated window,
    and ``matched`` asserts their results are bit-identical over it.
    ``setup_s`` (topology build + flow registration) is reported separately
    from the timed advance.
    """
    from repro.net.fluid import LOOP_SCALAR, LOOP_VECTOR
    from repro.net.topology import TreeSpec, build_multi_rooted_tree

    spec = TreeSpec(
        pods=pods, racks_per_pod=racks_per_pod,
        hosts_per_rack=hosts_per_rack, num_cores=num_cores,
    )
    started = time.perf_counter()
    topo = build_multi_rooted_tree(spec)
    pod = _numeric_hosts(topo)[: racks_per_pod * hosts_per_rack]
    sizes = (1 * MBYTE, 2 * MBYTE, 4 * MBYTE)
    flows = [
        Flow(flow_id=f"f{i}", src=a, dst=b, size_bytes=sizes[i % 3], start_time=0.0)
        for i, (a, b) in enumerate(itertools.permutations(pod, 2))
    ]
    build_s = time.perf_counter() - started

    def run(loop: str):
        sim = FluidSimulation(topo, loop=loop)
        setup_started = time.perf_counter()
        sim.add_flows(flows)
        setup = time.perf_counter() - setup_started
        run_started = time.perf_counter()
        result = sim.run(until=until)
        return time.perf_counter() - run_started, setup, result

    vector_s, vector_setup_s, got = run(LOOP_VECTOR)
    scalar_s, scalar_setup_s, ref = run(LOOP_SCALAR)
    completed = sum(
        1 for state in got.states.values() if state.name == "COMPLETED"
    )
    return {
        "n_hosts": len(topo.hosts()),
        "n_flows": len(flows),
        "until_s": until,
        "completed": completed,
        "build_s": round(build_s, 6),
        "setup_s": round(vector_setup_s + scalar_setup_s, 6),
        "scalar_s": round(scalar_s, 6),
        "vector_s": round(vector_s, 6),
        "speedup": round(scalar_s / vector_s, 3) if vector_s else None,
        "matched": _fluid_results_identical(ref, got),
    }


def _scale_equivalence_control(seed: int, n_vms: int = 16) -> Dict[str, object]:
    """Flat vs singleton-clustered hierarchical greedy must coincide exactly."""
    machines, profile = _rack_profile(n_vms, seed)
    cluster = ClusterState(machines=[Machine(m, cores=4.0) for m in machines])
    app = scatter_gather(
        "ctl", n_vms - 2,
        request_bytes=4 * MBYTE,
        response_bytes=200 * MBYTE,
        cpu_per_task=1.0,
    )
    flat = GreedyPlacer(cluster_threshold=10**9).place(app, cluster, profile)
    hier = GreedyPlacer(cluster_threshold=1, n_clusters=n_vms).place(
        app, cluster, profile
    )
    return {
        "n_machines": n_vms,
        "matched": flat.assignments == hier.assignments,
    }


def bench_scale(
    sizes: Sequence[int] = (256, 1024, 4096),
    seed: int = 0,
    mega: bool = True,
) -> Dict[str, object]:
    """Datacenter-scale sweep: allocator, greedy, and one fluid advance.

    Per mesh size: the vectorised allocator against the scalar incremental
    path (bit-identical, all sizes) and the from-scratch reference
    (≤ 1024 VMs — it is the thing being beaten); hierarchical greedy
    against flat greedy (flat ≤ 1024 VMs); and one bounded fluid advance,
    vector vs reference allocator (≤ 1024 VMs, routing-limited).  Dropped
    components are recorded per entry rather than silently skipped.  The
    headline ``speedup`` is vector-vs-reference at the largest size where
    the reference ran.

    With ``mega`` (the default; disabled under ``--quick``) the sweep adds
    the million-flow fluid advance on a 10k-host tree — see
    :func:`_scale_fluid_mega` — recorded under ``"mega"`` with its own
    vector-vs-scalar speedup floor.
    """
    reference_cap = 1024
    per_size: Dict[str, Dict[str, object]] = {}
    checks: List[bool] = []
    headline: Optional[Tuple[float, Optional[float]]] = None

    for n_vms in sizes:
        with_reference = n_vms <= reference_cap
        entry: Dict[str, object] = {
            "allocator": _scale_allocator(n_vms, seed, with_reference),
            "greedy": _scale_greedy(n_vms, seed, with_flat=with_reference),
        }
        skipped = []
        if with_reference:
            entry["fluid"] = _scale_fluid(n_vms, seed)
            checks.append(bool(entry["fluid"]["matched"]))
        else:
            skipped += ["allocator_reference", "greedy_flat", "fluid"]
        entry["skipped"] = skipped
        checks.append(bool(entry["allocator"]["matched"]))
        per_size[str(n_vms)] = entry
        if with_reference:
            headline = (
                entry["allocator"]["reference_s"],
                entry["allocator"]["vector_s"],
            )

    control = _scale_equivalence_control(seed)
    checks.append(bool(control["matched"]))

    mega_entry: Optional[Dict[str, object]] = None
    if mega:
        mega_entry = _scale_fluid_mega(seed)
        checks.append(bool(mega_entry["matched"]))

    reference_s, optimized_s = headline if headline else (None, None)
    return {
        "name": "scale",
        "params": {
            "sizes": list(sizes),
            "rack_size": _SCALE_RACK_SIZE,
            "mega": mega,
            **_env_params(),
        },
        "per_size": per_size,
        "mega": mega_entry,
        "equivalence_control": control,
        "reference_s": reference_s,
        "optimized_s": optimized_s,
        "speedup": (
            round(reference_s / optimized_s, 3)
            if reference_s and optimized_s
            else None
        ),
        "matched": all(checks),
    }


# ---------------------------------------------------------------------------
# Telemetry overhead (repro.obs)
# ---------------------------------------------------------------------------
def _stub_telemetry() -> Callable[[], None]:
    """Patch the ``repro.obs`` hooks to near-zero stubs; returns an undo.

    The pre-instrumentation code no longer exists, so the baseline the
    overhead ratios divide by is approximated by swapping every hook the
    hot paths call — ``obs.span``/``obs.point`` and the instrument update
    methods — for do-nothing stand-ins.  What remains in a stubbed run is
    one Python call per site, the floor any instrumentation scheme pays.
    """
    from repro import obs
    from repro.obs.metrics import Counter, Gauge, Histogram

    class _Null:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def set(self, **attrs):
            return None

    null = _Null()
    saved = (
        obs.span, obs.point,
        Counter.inc, Gauge.set, Gauge.inc, Gauge.dec, Histogram.observe,
    )
    obs.span = lambda name, **attrs: null
    obs.point = lambda name, **attrs: None
    Counter.inc = lambda self, amount=1.0: None
    Gauge.set = lambda self, value: None
    Gauge.inc = lambda self, amount=1.0: None
    Gauge.dec = lambda self, amount=1.0: None
    Histogram.observe = lambda self, value: None

    def undo() -> None:
        (obs.span, obs.point, Counter.inc, Gauge.set, Gauge.inc,
         Gauge.dec, Histogram.observe) = saved

    return undo


def bench_obs(
    pods: int = 8,
    racks_per_pod: int = 8,
    hosts_per_rack: int = 16,
    num_cores: int = 4,
    p_flow: float = 0.10,
    repeats: int = 7,
    inner: int = 3,
    seed: int = 0,
) -> Dict[str, object]:
    """Telemetry overhead on the ``fluid_loop`` workload, three ways.

    Times the same rack-mesh fluid simulation (the ``fluid_loop`` bench's
    workload, production event loop and allocator) under three telemetry
    states:

    * ``baseline`` — obs hooks stubbed out (:func:`_stub_telemetry`),
      approximating the pre-instrumentation code;
    * ``disabled`` — tracing off, the production default: no-op spans plus
      live counters;
    * ``enabled`` — tracing spans to a JSONL file.

    Rounds are interleaved (baseline, disabled, enabled, repeat) so slow
    machine drift hits all three states equally; each state keeps its best
    (minimum) round of ``inner`` summed runs, and the garbage collector is
    paused across the timed region (collections landing in one state's
    sample would drown the ≤2% budget).  ``matched`` asserts the
    three states' results are bit-identical — tracing is pure observation
    — and that the enabled pass actually wrote trace events.  The floors
    bound the overhead: disabled ≤ 2% and enabled ≤ 10% over baseline,
    exposed as *headroom* values ``(1 + budget) / ratio`` so the generic
    ``targets`` machinery (which checks ``value >= floor``) applies with a
    floor of 1.0.
    """
    from repro import obs
    from repro.net.topology import TreeSpec, build_multi_rooted_tree

    spec = TreeSpec(
        pods=pods, racks_per_pod=racks_per_pod,
        hosts_per_rack=hosts_per_rack, num_cores=num_cores,
    )
    topo = build_multi_rooted_tree(spec)
    flows = _tree_rack_flows(topo, hosts_per_rack, seed, p_flow)

    def run_once():
        sim = FluidSimulation(topo)
        sim.add_flows(flows)
        started = time.perf_counter()
        result = sim.run()
        return time.perf_counter() - started, result

    def timed_sample():
        elapsed, result = 0.0, None
        for _ in range(inner):
            wall, result = run_once()
            elapsed += wall
        return elapsed, result

    run_once()  # warm the route cache before any timed state

    prior_trace = obs.trace_path()
    best: Dict[str, float] = {}
    results: Dict[str, object] = {}

    def record(state: str, elapsed: float, result) -> None:
        if state not in best or elapsed < best[state]:
            best[state] = elapsed
        results[state] = result

    import gc

    gc_was_enabled = gc.isenabled()
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        trace_file = os.path.join(tmp, "trace.jsonl")
        try:
            gc.collect()
            gc.disable()
            for _ in range(repeats):
                undo = _stub_telemetry()
                try:
                    elapsed, result = timed_sample()
                finally:
                    undo()
                record("baseline", elapsed, result)

                obs.configure(None, export_env=False)
                record("disabled", *timed_sample())

                obs.configure(trace_file, export_env=False)
                try:
                    record("enabled", *timed_sample())
                finally:
                    obs.configure(None, export_env=False)
                gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
            obs.configure(prior_trace, export_env=False)
        with open(trace_file, encoding="utf-8") as fh:
            trace_events = sum(1 for _ in fh)

    baseline_s = best["baseline"]
    disabled_ratio = best["disabled"] / baseline_s if baseline_s else None
    enabled_ratio = best["enabled"] / baseline_s if baseline_s else None
    matched = (
        _fluid_results_identical(results["baseline"], results["disabled"])
        and _fluid_results_identical(results["disabled"], results["enabled"])
        and trace_events > 0
    )
    return {
        "name": "obs",
        "params": {
            "pods": pods, "racks_per_pod": racks_per_pod,
            "hosts_per_rack": hosts_per_rack, "num_cores": num_cores,
            "p_flow": p_flow, "repeats": repeats, "inner": inner,
            "n_hosts": len(topo.hosts()),
            **_env_params(),
        },
        "n_flows": len(flows),
        "trace_events": trace_events,
        "baseline_s": round(baseline_s, 6),
        "disabled_s": round(best["disabled"], 6),
        "enabled_s": round(best["enabled"], 6),
        "disabled_overhead_ratio": (
            round(disabled_ratio, 4) if disabled_ratio is not None else None
        ),
        "enabled_overhead_ratio": (
            round(enabled_ratio, 4) if enabled_ratio is not None else None
        ),
        "disabled_overhead_max": MAX_OBS_DISABLED_OVERHEAD,
        "enabled_overhead_max": MAX_OBS_ENABLED_OVERHEAD,
        "disabled_headroom": (
            round((1.0 + MAX_OBS_DISABLED_OVERHEAD) / disabled_ratio, 4)
            if disabled_ratio
            else None
        ),
        "enabled_headroom": (
            round((1.0 + MAX_OBS_ENABLED_OVERHEAD) / enabled_ratio, 4)
            if enabled_ratio
            else None
        ),
        "matched": matched,
    }


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------
_BENCHES: Dict[str, Callable[..., Dict[str, object]]] = {
    "allocator": bench_allocator,
    "fluid": bench_fluid,
    "ilp_scale": bench_ilp_scale,
    "ilp_pipe": bench_ilp_pipe,
    "mesh": bench_mesh,
    "e2e": bench_e2e_experiments,
    "scale": bench_scale,
    "fluid_loop": bench_fluid_loop,
    "routing": bench_routing,
    "sweep_resume": bench_sweep_resume,
    "multi_worker": bench_multi_worker,
    "service_churn": bench_service_churn,
    "faults": bench_faults,
    "obs": bench_obs,
}

_QUICK_OVERRIDES: Dict[str, Dict[str, object]] = {
    "allocator": {"n_links": 30, "n_flows": 60, "n_events": 80},
    "fluid": {"n_pairs": 8, "n_flows": 60},
    "ilp_scale": {"n_tasks": 8, "n_vms": 6},
    "ilp_pipe": {"n_tasks": 8, "n_vms": 6},
    "mesh": {"n_vms": 6},
    "e2e": {"quick": True},
    "scale": {"sizes": (256,), "mega": False},
    "fluid_loop": {
        "pods": 2, "racks_per_pod": 2, "hosts_per_rack": 8,
        "num_cores": 2, "p_flow": 0.5,
    },
    "routing": {
        "pods": 2, "racks_per_pod": 2, "hosts_per_rack": 8,
        "num_cores": 2, "nx_sample": 64,
    },
    "sweep_resume": {"quick": True},
    "multi_worker": {"quick": True},
    "service_churn": {"quick": True},
    "faults": {"quick": True},
    "obs": {
        "pods": 2, "racks_per_pod": 2, "hosts_per_rack": 8,
        "num_cores": 2, "p_flow": 0.5, "repeats": 2,
    },
}


#: Benches run when no ``--only`` subset is given.  ``sweep_resume``,
#: ``multi_worker``, ``ilp_scale``, ``service_churn``, ``faults``, and
#: ``obs`` are opt-in: each is tracked in its own ``BENCH_*.json``
#: (``BENCH_sweeps.json`` / ``BENCH_ilp.json`` / ``BENCH_service.json`` /
#: ``BENCH_faults.json`` / ``BENCH_obs.json``, see docs/performance.md and
#: docs/observability.md) and run as a dedicated CI step, so the default
#: suite does not pay for (or duplicate) them.
DEFAULT_SUITE: Tuple[str, ...] = (
    "allocator", "fluid", "mesh", "e2e", "scale", "fluid_loop", "routing",
)

#: Speedup floors: ``(bench, targets key, minimum, path)`` where ``path``
#: navigates from the bench's result dict to the tracked speedup (so nested
#: entries like the scale sweep's ``mega`` advance get their own floor).
#: A floor applies whenever its bench ran and the path resolves; quick runs
#: are exempt (their shrunken workloads are correctness smoke, not perf).
_TARGET_FLOORS: Tuple[Tuple[str, str, float, Tuple[str, ...]], ...] = (
    ("allocator", "allocator_speedup", TARGET_ALLOCATOR_SPEEDUP, ("speedup",)),
    ("e2e", "e2e_speedup", TARGET_E2E_SPEEDUP, ("speedup",)),
    ("ilp_scale", "ilp_speedup", TARGET_ILP_SPEEDUP, ("speedup",)),
    ("ilp_pipe", "ilp_pipe_speedup", TARGET_ILP_PIPE_SPEEDUP, ("speedup",)),
    ("scale", "scale_allocator_speedup", TARGET_SCALE_SPEEDUP, ("speedup",)),
    ("scale", "mega_fluid_speedup", TARGET_MEGA_FLUID_SPEEDUP,
     ("mega", "speedup")),
    ("fluid_loop", "fluid_loop_speedup", TARGET_FLUID_LOOP_SPEEDUP,
     ("speedup",)),
    ("routing", "routing_speedup", TARGET_ROUTING_SPEEDUP, ("speedup",)),
    ("sweep_resume", "resume_speedup", TARGET_RESUME_SPEEDUP, ("speedup",)),
    ("multi_worker", "multi_worker_parallelism", TARGET_MULTI_WORKER_SPEEDUP,
     ("scheduled_parallelism",)),
    # Telemetry overhead headrooms: (1 + budget) / measured ratio, so the
    # generic >= check bounds the ratio from above (1.0 = exactly on
    # budget, above 1.0 = under budget).
    ("obs", "obs_disabled_headroom", 1.0, ("disabled_headroom",)),
    ("obs", "obs_enabled_headroom", 1.0, ("enabled_headroom",)),
)


def bench_names() -> List[str]:
    """The registered benchmark names, in run order."""
    return list(_BENCHES)


def run_benchmarks(
    quick: bool = False,
    seed: int = 0,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the suite and return the ``BENCH_*.json`` payload."""
    selected = list(only) if only else list(DEFAULT_SUITE)
    unknown = [name for name in selected if name not in _BENCHES]
    if unknown:
        raise ValueError(f"unknown benchmark(s) {unknown}; known: {bench_names()}")

    results: Dict[str, Dict[str, object]] = {}
    for name in selected:
        kwargs: Dict[str, object] = dict(_QUICK_OVERRIDES[name]) if quick else {}
        kwargs["seed"] = seed
        results[name] = _BENCHES[name](**kwargs)

    def resolve(name: str, path: Tuple[str, ...]) -> Optional[float]:
        node: object = results.get(name)
        for key in path:
            if not isinstance(node, dict):
                return None
            node = node.get(key)
        return node if isinstance(node, (int, float)) else None

    targets: Dict[str, object] = {}
    floor_checks: List[bool] = []
    for bench, key, floor, path in _TARGET_FLOORS:
        if bench not in results:
            continue
        speedup = resolve(bench, path)
        if speedup is None:
            continue
        targets[key + "_min"] = floor
        targets[key] = speedup
        floor_checks.append(speedup >= floor)
    targets["met"] = bool(quick or all(floor_checks))
    return {
        "schema": "repro.bench/v1",
        "quick": quick,
        "seed": seed,
        "params": _env_params(),
        "benches": results,
        "targets": targets,
        "all_matched": all(entry["matched"] for entry in results.values()),
    }
