"""The §2.4 sequence runner on the live-application books.

``SequentialPlacementRunner`` used to re-simulate every placed flow from
zero at each arrival (``tests/oracles/parent_state_at.py`` keeps that code);
it now advances ``LiveApp`` records from arrival to arrival, on one live
simulation per sequence.  Over seeded
sequences the two must agree on what is running at every arrival, with one
intended difference: the old code only knew applications that own a network
flow, so one whose placement colocates every transfer never gave its cores
back.
"""

from collections import Counter

import numpy as np
import pytest

import repro.runtime.sequence as sequence
from oracles.parent_state_at import parent_state_at
from repro.cloud.provider import VMFlow
from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import MeasurementPlan
from repro.core.placement.base import ClusterState
from repro.errors import PlacementError
from repro.experiments.placers import resolve_placer
from repro.experiments.scenarios import get_scenario
from repro.experiments.trials import trial_seed
from repro.runtime.executor import placement_to_flows
from repro.runtime.sequence import SequentialPlacementRunner
from repro.units import BITS_PER_BYTE, GBYTE
from repro.workloads.generator import HPCloudWorkloadGenerator, WorkloadSpec
from test_live_books import Ledger, two_task_app

SEEDS = range(24)


def seeded_sequence(seed):
    """``(provider, cluster, apps, tenant background, placer name)``.

    3–12 applications whose gaps run from "all overlap" (a fraction of a
    second, some exactly zero) to "none overlap" (minutes); every other
    seed shares the network with another tenant holding a short flow, a long
    one that ends near the middle arrival and one that has not started at
    the first arrivals.
    """
    rng = np.random.default_rng(seed)
    n_vms = int(rng.integers(6, 11))
    provider = make_provider("ec2", seed=seed)
    provider.request_vms(n_vms)
    cluster = ClusterState.from_vms(provider.vms())
    spec = WorkloadSpec(min_tasks=2, max_tasks=6, cpu_choices=(0.25, 0.5), diurnal=False)
    gen = HPCloudWorkloadGenerator(spec, seed=seed)
    n_apps = int(rng.integers(3, 13))
    gaps = rng.exponential(10.0 ** rng.uniform(-0.5, 2.5), size=n_apps)
    gaps[rng.random(n_apps) < 0.15] = 0.0
    arrivals = np.cumsum(gaps)
    apps = [gen.generate_application(start_time=float(t)) for t in arrivals]
    background = []
    if seed % 2:
        vms = cluster.machine_names()
        middle, last = float(arrivals[n_apps // 2]), float(arrivals[-1])
        background = [
            VMFlow("bg-finite", vms[0], vms[1], size_bytes=float(rng.uniform(0.5, 8)) * GBYTE),
            # As long as its path takes to the middle arrival, unshared.
            VMFlow(
                "bg-long", vms[2], vms[3],
                size_bytes=provider.true_path_rate(vms[2], vms[3]) * middle / BITS_PER_BYTE,
            ),
            VMFlow("bg-late", vms[1], vms[4], size_bytes=2 * GBYTE, start_time=0.5 * (middle + last)),
        ]
    return provider, cluster, apps, background, ("greedy", "round-robin", "random")[seed % 3]


def run_observed(monkeypatch, seed):
    """Run one seeded sequence; per arrival, what the runner saw:
    ``(app, active (src_vm, dst_vm) multiset, done names, free cores)``."""
    provider, cluster, apps, background, placer_name = seeded_sequence(seed)
    runner = SequentialPlacementRunner(
        provider, cluster, resolve_placer(placer_name).create(seed, None),
        measurement=MeasurementPlan(advance_clock=False), background=background,
    )
    ledger = Ledger(monkeypatch, sequence, lambda: cluster)
    seen = []
    usage, measure = sequence.cluster_with_live_usage, runner.measurer.measure

    def spying_usage(cluster, running):
        cluster_now = usage(cluster, running)
        done = {name for name, state in running.items() if state.done}
        seen.append([None, done, list(cluster_now.available_cpus().values())])
        return cluster_now

    def spying_measure(vms, background=()):
        seen[-1][0] = Counter((f.src_vm, f.dst_vm) for f in background)
        return measure(vms, background=background)

    monkeypatch.setattr(sequence, "cluster_with_live_usage", spying_usage)
    monkeypatch.setattr(runner.measurer, "measure", spying_measure)
    result = runner.run(apps)
    ordered = sorted(apps, key=lambda a: (a.start_time, a.name))
    assert len(seen) == len(ordered)
    return provider, background, ordered, result, seen, ledger


@pytest.mark.parametrize("seed", SEEDS)
def test_live_apps_see_what_the_from_zero_resimulation_saw(monkeypatch, seed):
    provider, background, ordered, result, seen, ledger = run_observed(monkeypatch, seed)

    placed, app_of_flow, flowless = [], {}, set()
    for app, (active, done, _free) in zip(ordered, seen):
        oracle_active, oracle_done = parent_state_at(
            provider, background, placed, app_of_flow, app.start_time
        )
        assert active == Counter((f.src_vm, f.dst_vm) for f in oracle_active)
        # The one intended difference: an application that never touched the
        # network is finished too.
        assert done == oracle_done | flowless
        flows, _ = placement_to_flows(result.placements[app.name], app, app.start_time)
        placed.extend(flows)
        app_of_flow.update((flow.flow_id, app.name) for flow in flows)
        if not flows:
            flowless.add(app.name)

    # Invariants, at every arrival, before and after the segment that led to it.
    assert ledger.checks == 2 * len(ordered)
    assert ledger.problems == []


def test_the_seeded_sequences_cover_the_cases_they_claim():
    overlap, tenants = [], 0
    for seed in SEEDS:
        _provider, _cluster, apps, background, _placer = seeded_sequence(seed)
        assert 3 <= len(apps) <= 12
        starts = sorted(app.start_time for app in apps)
        overlap.append(min(b - a for a, b in zip(starts, starts[1:])))
        tenants += bool(background)
    assert len(SEEDS) >= 20 and tenants >= 10
    assert min(overlap) == 0.0 and max(overlap) > 5.0


# ------------------------------------------------- the CPU comes back (§6.3)
def test_an_app_that_colocates_every_transfer_gives_its_cores_back():
    provider = make_provider("ec2", seed=0, colocation_probability=0.0)
    provider.request_vms(2)
    cluster = ClusterState.from_vms(provider.vms())  # 2 VMs x 4 cores
    runner = SequentialPlacementRunner(provider, cluster, resolve_placer("greedy").create(0, None))
    first = two_task_app("first", cores=2.0, start_time=0.0)
    # Needs every core of both machines: it fits only on an empty cluster.
    second = two_task_app("second", cores=4.0, start_time=10.0)

    result = runner.run([first, second])

    assert len(result.placements["first"].machines_used()) == 1
    assert result.runs["first"].network_bytes == 0
    assert result.runs["first"].duration == 0.0
    assert len(result.placements["second"].machines_used()) == 2

    # Had the first still been running, the second would not fit.
    with pytest.raises(PlacementError):
        resolve_placer("greedy").create(0, None).place(
            second, cluster.with_usage(result.placements["first"].cpu_usage(first)), None
        )


def test_multi_app_sequence_seed_0_reads_every_core_free_at_60_and_90_s(monkeypatch):
    seed = trial_seed(0, "multi-app-sequence", 0)
    instance = get_scenario("multi-app-sequence").build(seed)
    runner = SequentialPlacementRunner(
        instance.provider, instance.cluster, resolve_placer("greedy").create(seed, None),
        measurement=MeasurementPlan(advance_clock=False),
    )
    free = []  # per arrival: 0, 30, 60, 90 s
    usage = sequence.cluster_with_live_usage

    def spying_usage(cluster, running):
        cluster_now = usage(cluster, running)
        free.append(list(cluster_now.available_cpus().values()))
        return cluster_now

    monkeypatch.setattr(sequence, "cluster_with_live_usage", spying_usage)
    result = runner.run(instance.apps)
    # app0001 and app0002 move nothing over the network and finish in 0.0 s;
    # the from-zero runner read [1.5, 4, ..., 3.0, 0.0] here.
    assert result.runs["app0001"].duration == result.runs["app0002"].duration == 0.0
    assert free[2] == free[3] == [4.0] * 10
