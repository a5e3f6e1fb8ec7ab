"""One live simulation per session, held to the simulation per segment it
replaced.

``advance_live_apps`` runs every live application on one resumable
``FluidSimulation`` (``repro.runtime.migration.LiveNetwork``): paused at
every segment boundary, reconciled with the books, resumed.  Before, each
segment built a fresh simulation of what was still in flight
(``tests/oracles/segment_sim.py``).  Over seeded sessions — arrivals,
migrations, rejections, a rack outage, hoses drifting epoch by epoch — the
two must leave every application's books equal, bit for bit, at every
pause: on the scalar event loop, on the vector one, and with the loop
switching from pause to pause.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from oracles.segment_sim import segment_advance
from repro.net.flows import Flow
from repro.cloud.registry import make_provider
from repro.core.placement.base import ClusterState, Placement
from repro.experiments.placers import resolve_placer
from repro.experiments.scenarios import ARRIVAL_TTL_S
from repro.net import fluid
from repro.net.alloc import IncrementalAllocator
from repro.runtime.migration import LiveApp, LiveNetwork, advance_live_apps
from repro.service.engine import PlacementService
from repro.service.session import build_churn_session, run_churn_session
from repro.units import GBYTE
from repro.workloads.patterns import mapreduce

SEEDS = range(20)
EPOCH_S = 60.0
HOURS = 4

#: ``_LOOP_MIN_FLOWS`` per mode: every run on the vector loop, every run on
#: the scalar loop (the ``tests/test_millionflow.py`` pattern), or drawn
#: afresh at every pause, so that each loop resumes from the other's pause.
LOOP_MODES = {"vector": (0,), "scalar": (10_000,), "mixed": (0, 10_000)}


def _placement(rng, app, vms):
    """Each task on a random VM; one placement in five puts them all on
    one (every transfer colocated: the application is done at once)."""
    if rng.random() < 0.2:
        vm = vms[int(rng.integers(len(vms)))]
        return Placement(app.name, {task: vm for task in app.task_names})
    return Placement(
        app.name, {task: vms[int(rng.integers(len(vms)))] for task in app.task_names}
    )


def drive(seed, loop_sizes, monkeypatch, counted):
    """Run one seeded session on both sides, comparing at every pause;
    returns what the session exercised."""
    rng = np.random.default_rng(seed)
    switch = np.random.default_rng(seed + 1_000)
    provider, cluster, apps, _ = build_churn_session(
        seed, n_vms=int(rng.integers(5, 9)), hours=HOURS, drift="hotspot-flap",
        epoch_s=EPOCH_S, apps_per_hour=3.0,
        faults="rack-outage" if seed % 2 == 0 else "none",
    )
    vms = cluster.machine_names()

    oracle, live = {}, {}
    network = LiveNetwork(provider)
    seen = Counter()
    pauses = sorted({app.start_time for app in apps} | {
        k * EPOCH_S for k in range(1, HOURS + 1)
    })
    now = 0.0
    for until in pauses + [None]:
        monkeypatch.setattr(fluid, "_LOOP_MIN_FLOWS", int(switch.choice(loop_sizes)))
        segment_advance(provider, oracle, now, until)
        hose = dict(network.hose)
        built = counted["simulations"]
        advance_live_apps(network, live, now, until)
        assert counted["simulations"] == built, "the live side built a simulation"
        seen["hose pushes"] += network.hose != hose

        at = f"seed {seed}, pause {until}"
        assert live.keys() == oracle.keys(), at
        for name, state in oracle.items():
            twin = live[name]
            assert twin.remaining == state.remaining, (at, name)
            assert twin.completed_at == state.completed_at, (at, name)
            assert twin.colocated == state.colocated, (at, name)
        if until is None:
            break
        provider.advance_time(until - now)
        now = until

        # The same decisions on both sides.
        faults = provider.fault_timeline
        up = [vm for vm in vms if faults is None or not faults.preempted(vm, now)]
        for app in apps:
            if app.start_time == now:
                placement = _placement(rng, app, up)
                oracle[app.name] = LiveApp(app, placement, now)
                live[app.name] = LiveApp(app, placement, now)
        running = sorted(name for name, state in oracle.items() if not state.done)
        for name in running:
            stranded = [
                task for task, vm in oracle[name].placement.assignments.items()
                if vm not in up
            ]
            if stranded:  # a recovery: the stranded tasks move to live VMs
                moved = dict(oracle[name].placement.assignments)
                moved.update((task, up[int(rng.integers(len(up)))]) for task in stranded)
                for side in (oracle, live):
                    side[name].place(Placement(name, moved), now)
                seen["recoveries"] += 1
        if now % EPOCH_S == 0 and running:
            name = running[int(rng.integers(len(running)))]
            if rng.random() < 0.5:  # a migration
                placement = _placement(rng, oracle[name].app, up)
                for side in (oracle, live):
                    side[name].place(placement, now)
                seen["migrations"] += 1
            elif rng.random() < 0.25:  # a rejection: the application leaves
                for side in (oracle, live):
                    del side[name]
                seen["rejections"] += 1
    seen["apps"] += len(live)
    return seen


@pytest.mark.parametrize("mode", sorted(LOOP_MODES))
def test_the_live_network_leaves_the_books_a_simulation_per_segment_leaves(
    mode, monkeypatch, counted
):
    seen = Counter()
    for seed in SEEDS:
        seen += drive(seed, LOOP_MODES[mode], monkeypatch, counted)
    # The sessions exercised what they claim to.
    for what in ("recoveries", "migrations", "rejections", "hose pushes"):
        assert seen[what] >= 3, (what, seen)
    assert seen["apps"] >= 5 * len(SEEDS)


def test_the_other_tenants_flow_runs_on_the_hoses_of_each_segment():
    """Another tenant's flow, alone on a drifting provider: every pause ends
    where a fresh simulation of what it had left, from the last pause,
    ends — its sender's hose is pushed like a tenant's."""
    provider = make_provider("ec2", seed=3, colocation_probability=0.0)
    provider.request_vms(3)
    src, dst, _ = (vm.name for vm in provider.vms())
    network = LiveNetwork(provider, [Flow("other:0", src, dst, 50 * GBYTE)])
    now = 0.0
    hoses = []
    for until in (30.0, 60.0, 90.0):
        left = network.other["other:0"]
        fresh = provider.build_simulation([replace(left, start_time=now)]).run(until=until)
        advance_live_apps(network, {}, now, until=until)
        assert network.other["other:0"].size_bytes == fresh.remaining_bytes["other:0"]
        hoses.append(network.hose[f"hose:{src}"])
        provider.advance_time(until - now)
        now = until
    assert len(set(hoses)) == 3  # the hose drifted at every pause


# --------------------------------------------------- one allocator, no rebuilds
@pytest.fixture
def counted(monkeypatch):
    """Allocators and fluid simulations built."""
    made = Counter()

    class Counting(IncrementalAllocator):
        def __init__(self, capacities):
            made["allocators"] += 1
            super().__init__(capacities)

    build = fluid.FluidSimulation.__init__

    def counting_build(self, *args, **kwargs):
        made["simulations"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(fluid, "IncrementalAllocator", Counting)
    monkeypatch.setattr(fluid.FluidSimulation, "__init__", counting_build)
    return made


def test_a_churn_session_builds_one_allocator(counted):
    report = run_churn_session(
        0, n_vms=8, hours=6, epoch_s=120.0, drift="hotspot-flap",
        apps_per_hour=3.0, faults="rack-outage",
    )
    assert len(report.completed()) > 5 and report.migrations and report.recovery
    assert counted == {"allocators": 1, "simulations": 1}


def test_an_arrival_sequence_builds_one_allocator_and_one_simulation(counted):
    provider = make_provider("ec2", seed=0, colocation_probability=0.0)
    provider.request_vms(6)
    cluster = ClusterState.from_vms(provider.vms())
    # Too big for one VM: every job crosses the network.
    apps = [
        mapreduce(f"job{k}", 2, 2, 2 * GBYTE, cpu_per_task=1.5, start_time=5.0 * k)
        for k in range(5)
    ]
    service = PlacementService(
        provider, cluster, resolve_placer("greedy").create(0, None), migrate=False,
        ttl_s=ARRIVAL_TTL_S,
    )
    report = service.run_session(apps, hours=1)
    assert len(report.completed()) == 5 and report.measurement["campaigns"] == 5
    # The times the report gives are the live simulation's: there is no
    # second, from-zero run of the placed flows.
    assert counted == {"allocators": 1, "simulations": 1}
