"""One seeded property test over the invariants ``src/`` ships, on random
trees × traffic patterns × fault generators.

A case draws, from one NumPy generator, a multi-rooted tree, a traffic
pattern (``repro.workloads.patterns``) and a fault generator with a drift
(``repro.service.timeline``), and runs two things on them, once with every
fluid run on the vector event loop and once on the scalar one:

* the pattern's flows, placed on random hosts with staggered starts, as one
  fluid simulation paused once and resumed;
* a placement-service session on a provider over the same tree, the fault
  timeline attached, admitting applications of that pattern as they arrive.

Every fluid run, the simulation's and each one the session makes, is held
to :func:`~repro.net.fairness.segment_violations`; every loaded campaign (a
probe filling under the session's own traffic) to
:func:`~repro.net.fairness.snapshot_violations`; the session's books, at
every pause and at its end, to
:func:`~repro.runtime.migration.live_book_violations`, and its report to
:func:`~repro.service.engine.report_violations`.  The two loops must agree
to the bit.  A planted fault — one segment's rate × 1.01 — must be
reported, so the segment check is not vacuous.  With ``hypothesis``
installed, it draws more seeds through the same case.
"""

import copy
import dataclasses
import functools
import math

import numpy as np
import pytest

from oracles.max_min import flow_demands, force_loop
from test_live_books import books_checked
import repro.cloud.provider as provider_module
import repro.net.fluid as fluid
from repro.cloud.provider import CloudProvider, ProviderParams
from repro.core.placement.base import ClusterState
from repro.experiments.placers import resolve_placer
from repro.net.fairness import segment_violations, snapshot_violations
from repro.net.flows import Flow
from repro.net.topology import TreeSpec, build_multi_rooted_tree
from repro.service.engine import PlacementService, report_violations
from repro.service.timeline import (
    DRIFT_NAMES, FAULT_NAMES, attach_timeline, generate_timeline,
)
from repro.units import GBITPS, MBITPS, MBYTE
from repro.workloads import patterns

SEEDS = range(12)
EPOCH_S = 30.0
HOURS = 6


def random_tree(rng) -> TreeSpec:
    return TreeSpec(
        hosts_per_rack=int(rng.integers(1, 4)),
        racks_per_pod=int(rng.integers(1, 4)),
        pods=int(rng.integers(1, 3)),
        num_cores=int(rng.integers(1, 3)),
        host_link_bps=float(rng.choice([1, 10])) * GBITPS,
        tor_agg_link_bps=float(rng.choice([1, 10])) * GBITPS,
        agg_core_link_bps=float(rng.choice([10, 40])) * GBITPS,
        extra_agg_layer=bool(rng.integers(2)),
    )


def random_app(rng, name, start_time, mbytes):
    """One application of a random pattern: 3–6 two-core tasks (no VM holds
    more than two) moving about ``mbytes`` (a ``(low, high)`` range) in all."""
    kind = str(rng.choice(["mapreduce", "scatter_gather", "pipeline", "star", "mesh", "sparse"]))
    size = float(rng.uniform(*mbytes)) * MBYTE
    n = int(rng.integers(3, 7))
    if kind == "mapreduce":
        return patterns.mapreduce(
            name, n // 2, n - n // 2, size, skew=float(rng.uniform(0, 1.5)), cpu_per_task=2.0,
            rng=rng, start_time=start_time,
        )
    if kind == "scatter_gather":
        return patterns.scatter_gather(
            name, n - 1, response_bytes=size / n, cpu_per_task=2.0, start_time=start_time
        )
    if kind == "pipeline":
        return patterns.pipeline(
            name, n, stage_bytes=size / n, cpu_per_task=2.0, start_time=start_time
        )
    if kind == "star":
        return patterns.star(
            name, n - 1, bytes_per_leaf=size / n, bidirectional=bool(rng.integers(2)),
            cpu_per_task=2.0, start_time=start_time,
        )
    if kind == "mesh":
        return patterns.uniform_mesh(
            name, n, bytes_per_pair=size / n**2, cpu_per_task=2.0, start_time=start_time
        )
    return patterns.random_sparse(
        name, n, density=0.5, total_bytes=size, cpu_choices=(2.0,), rng=rng,
        start_time=start_time,
    )


@dataclasses.dataclass
class Case:
    """One case on one loop: what ran, and what the invariants found."""

    faults: str = ""
    problems: list = dataclasses.field(default_factory=list)
    #: ``(result, paths, capacities)`` of every fluid run, in run order.
    runs: list = dataclasses.field(default_factory=list)
    loaded_campaigns: int = 0
    report: object = None


def check_every_run(monkeypatch, case: Case) -> None:
    """Hold every fluid run and every loaded campaign to its invariant."""
    run = fluid.FluidSimulation.run

    def checked_run(sim, until=None):
        paths = {fid: demand.links for fid, demand in flow_demands(sim).items()}
        capacities = sim.capacities
        result = run(sim, until)
        case.problems.extend(segment_violations(result, paths, capacities))
        case.runs.append((result, paths, capacities))
        return result

    fill = provider_module.probe_rates_under_load

    def checked_fill(capacity, background, probes):
        rates, rounds = fill(capacity, background, probes)
        case.loaded_campaigns += 1
        case.problems.extend(snapshot_violations(capacity, background, probes, rates))
        return rates, rounds

    monkeypatch.setattr(fluid.FluidSimulation, "run", checked_run)
    monkeypatch.setattr(provider_module, "probe_rates_under_load", checked_fill)


def run_fluid(rng, spec) -> None:
    """The pattern's flows on random hosts, run to a pause and resumed."""
    topology = build_multi_rooted_tree(spec)
    hosts = topology.hosts()
    flows = []
    for k in range(int(rng.integers(1, 4))):
        app = random_app(rng, f"a{k}", 0.0, (20, 200))
        where = {task.name: hosts[int(rng.integers(len(hosts)))] for task in app.tasks}
        for (src, dst), size in app.traffic.items():
            flows.append(Flow(
                f"a{k}:{src}>{dst}", where[src], where[dst], size_bytes=size,
                start_time=float(rng.choice([0.0, 0.0, rng.uniform(0, 0.5)])),
            ))
    sim = fluid.FluidSimulation(topology)
    sim.add_flows(flows)
    sim.run(until=float(rng.uniform(0.05, 0.5)))
    sim.run()


def run_session(rng, spec, seed, case: Case):
    """A service session on ``spec`` with a drawn drift and fault generator."""
    params = ProviderParams(
        name="random-tree",
        hose_sampler=lambda r: float(r.uniform(300, 1200)) * MBITPS,
        colocation_probability=float(rng.choice([0.0, 0.3])),
        tree_spec=spec,
    )
    provider = CloudProvider(params, seed=seed)
    provider.request_vms(int(rng.integers(6, 11)))
    case.faults = str(rng.choice(FAULT_NAMES))
    timeline = generate_timeline(
        provider.base_hose_rates(), HOURS, drift=str(rng.choice(DRIFT_NAMES)),
        faults=case.faults, seed=seed, epoch_s=EPOCH_S,
        racks={vm.name: provider.topology.rack_of(vm.host) or vm.host for vm in provider.vms()},
    )
    attach_timeline(provider, timeline)
    apps = sorted(
        (
            random_app(rng, f"app{k}", float(rng.uniform(0, HOURS * EPOCH_S)), (1000, 8000))
            for k in range(int(rng.integers(5, 10)))
        ),
        key=lambda app: app.start_time,
    )
    service = PlacementService(
        provider, ClusterState.from_vms(provider.vms()),
        resolve_placer("greedy").create(seed, None), predictor="measured", migrate=True,
    )
    return service.run_session(apps, hours=HOURS)


@functools.lru_cache(maxsize=None)
def run_case(seed: int, vector: bool) -> Case:
    """Case ``seed`` with every fluid run on the vector (or scalar) loop."""
    rng = np.random.default_rng(seed)
    spec = random_tree(rng)
    case = Case()
    with pytest.MonkeyPatch.context() as patch:
        force_loop(patch, vector)
        check_every_run(patch, case)
        ledger, reports = books_checked(patch)
        run_fluid(rng, spec)
        case.report = run_session(rng, spec, seed, case)
    assert reports == [case.report] and ledger.checks > 0
    case.problems.extend(ledger.problems)
    case.problems.extend(report_violations(case.report))
    return case


def segments(result):
    return {
        fid: [dataclasses.astuple(s) for s in result.timelines[fid].segments]
        for fid in result.timelines
    }


def assert_case_holds(seed: int) -> None:
    vector, scalar = run_case(seed, True), run_case(seed, False)
    assert vector.problems == [] and scalar.problems == []
    assert len(vector.runs) == len(scalar.runs) > 2
    for (got, _, _), (want, _, _) in zip(vector.runs, scalar.runs):
        assert segments(got) == segments(want)
        assert got.completion_times == want.completion_times
    assert vector.report.canonical_json_dict() == scalar.report.canonical_json_dict()


@pytest.mark.parametrize("seed", SEEDS)
def test_every_run_keeps_its_invariants(seed):
    assert_case_holds(seed)


def test_the_draws_reach_every_check():
    """The seeds are not vacuous: they load campaigns, draw several fault
    generators, and fire a recovery and a migration."""
    cases = [run_case(seed, True) for seed in SEEDS]
    assert sum(case.loaded_campaigns for case in cases) > 0
    assert len({case.faults for case in cases}) >= 3
    assert any(case.report.recovery for case in cases)
    assert any(case.report.migrations for case in cases)


@pytest.mark.parametrize("vector", [True, False])
def test_a_planted_rate_fault_is_reported(vector):
    """One segment's rate × 1.01, in a copy of a run's log that held:
    its link goes over capacity, and the check says so."""
    for result, paths, capacities in run_case(SEEDS[0], vector).runs:
        timelines = copy.deepcopy({fid: result.timelines[fid] for fid in result.timelines})
        finite = [
            s for timeline in timelines.values() for s in timeline.segments
            if 0.0 < s.rate_bps < math.inf
        ]
        if finite:
            break
    finite[0].rate_bps *= 1.01
    planted = dataclasses.replace(result, timelines=timelines)
    assert segment_violations(result, paths, capacities) == []
    assert segment_violations(planted, paths, capacities) != []


def test_more_seeds_by_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @hypothesis.given(strategies.integers(min_value=100, max_value=10_000))
    def case(seed):
        assert_case_holds(seed)

    case()
