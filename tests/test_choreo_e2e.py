"""End-to-end tests on a synthetic provider: the §2 pipeline (profile,
measure, place, run) as ``benchmark/``'s ``pipeline_dc`` calls it, the
executor it runs on held to a fresh simulation, and the §2.4 / §6.3
arrival loop, which the placement service runs."""

from dataclasses import replace

import numpy as np
import pytest

from oracles.flow_records import aggregate_rows
from oracles.placement_flows import placement_to_flows
from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.placement.base import ClusterState, Placement, validate_placement
from repro.core.placement.baselines import RandomPlacer
from repro.core.placement.greedy import GreedyPlacer
from repro.core.profiler import ApplicationProfiler
from repro.experiments.scenarios import ARRIVAL_TTL_S, get_scenario
from repro.runtime.executor import run_applications
from repro.service.engine import PlacementService
from repro.units import GBYTE
from repro.workloads.application import Application, Task, TrafficMatrix
from repro.workloads.generator import HPCloudWorkloadGenerator
from repro.workloads.patterns import mapreduce
from repro.workloads.trace import FlowRecord, FlowRecords, aggregate_records


@pytest.fixture
def provider():
    provider = make_provider("ec2", seed=42)
    provider.request_vms(5)
    return provider


def test_profile_measure_place_run(provider):
    truth = mapreduce("job", 3, 3, 2 * GBYTE, cpu_per_task=2.0)
    records = HPCloudWorkloadGenerator(seed=0).application_to_records(
        truth, n_records_per_pair=4, duration_s=60.0
    )
    cluster = ClusterState.from_vms(provider.vms())

    app = ApplicationProfiler().profile_application(
        records, "job", task_cpu_cores={t.name: t.cpu_cores for t in truth.tasks}
    )
    profile = NetworkMeasurer(provider, plan=MeasurementPlan(advance_clock=False)).measure(
        cluster.machine_names()
    )
    placement = GreedyPlacer().place(app, cluster, profile)
    run = run_applications(provider, {app.name: placement}, [app])["job"]

    # The profiler saw only flow records; it recovers the matrix.
    assert dict(app.traffic.items()) == pytest.approx(dict(truth.traffic.items()))
    validate_placement(placement, app, cluster)  # full coverage + CPU limits
    assert set(placement.assignments) == set(app.task_names)
    assert set(placement.assignments.values()) <= set(cluster.machine_names())
    # The measurement the placement consumed covers the mesh.
    assert len(profile.vms) == 5 and not np.isnan(profile.rate_matrix()).any()
    assert profile.measurement_duration_s > 0
    assert run.completion_time >= run.start_time
    assert run.network_bytes + run.colocated_bytes == pytest.approx(app.total_bytes)


@pytest.mark.parametrize("seed", range(4))
def test_the_one_pass_profile_is_the_record_by_record_one(seed):
    """``profile_application`` reads a column batch in one array program.
    Its traffic matrix is the one ``TrafficMatrix.add`` builds record by
    record from the records that match (same entries, same order, the same
    float sums: ``oracles.flow_records``), its tasks are every task those
    records name, and its start is their earliest timestamp unless one is
    given — over records of two applications, with self-transfers, empty
    records and pairs seen many times among them, with and without a
    window.  The volume order it hands over is the entry-built matrix's,
    transfer for transfer."""
    rng = np.random.default_rng(seed)
    tasks = [f"t{i}" for i in range(7)]
    rows = [
        FlowRecord(
            float(rng.uniform(5.0, 100.0)), str(rng.choice(["job", "other"])),
            str(rng.choice(tasks)), str(rng.choice(tasks)),
            float(rng.choice([0.0, rng.uniform(1.0, 1e9)])),
        )
        for _ in range(300)
    ]
    records = FlowRecords.of(rows)
    assert list(records) == rows and len(records) == 300
    profiler = ApplicationProfiler()
    for window in (None, (20.0, 70.0)):
        lo, hi = window or (None, None)
        want, named, first = aggregate_rows(rows, "job", lo, hi)
        app = profiler.profile_application(records, "job", window=window)
        assert app.traffic.items() == want.items()
        assert app.task_names == sorted(named)
        assert app.start_time == first
        given = profiler.profile_application(records, "job", window=window, start_time=3.0)
        assert given.start_time == 3.0
        assert aggregate_records(records, "job", lo, hi)[0].items() == want.items()
        assert app.transfers() == want.pairs_by_volume()
        assert _by_name(app.traffic.volume_order()) == _by_name(want.volume_order())
    everything = aggregate_records(records)
    assert everything[0].items() == aggregate_rows(rows)[0].items()
    assert aggregate_records(records, "nobody")[1:] == ([], np.inf)
    assert any(r.num_bytes == 0 for r in rows) and any(r.src_task == r.dst_task for r in rows)


def _by_name(volume):
    """A volume order with its ids read as names."""
    return (
        [(volume.tasks[a], volume.tasks[b]) for a, b in zip(volume.src, volume.dst)],
        volume.num_bytes.tolist(), volume.opens,
    )


def staggered(scenario, seed):
    """A scenario's applications starting at 0, 30, 60 and 90 s in turn,
    each task on a random VM; beside them, one application with every task
    on one VM and one whose only other crossing transfer is too small for
    the network.  Returns ``(provider, placements, apps)``."""
    instance = get_scenario(scenario).build(seed)
    rng = np.random.default_rng(seed)
    vms = instance.cluster.machine_names()
    apps = [replace(app, start_time=30.0 * (k % 4)) for k, app in enumerate(instance.apps)]
    placements = {
        app.name: Placement(
            app.name, {task: vms[int(rng.integers(len(vms)))] for task in app.task_names}
        )
        for app in apps
    }
    together = mapreduce("together", 2, 2, 1 * GBYTE, start_time=30.0)
    placements["together"] = Placement("together", dict.fromkeys(together.task_names, vms[0]))
    traffic = TrafficMatrix()
    traffic.add("a", "b", 1e-7)
    traffic.add("a", "c", 1 * GBYTE)
    tiny = Application("tiny", [Task(t, 1.0) for t in "abc"], traffic, start_time=60.0)
    placements["tiny"] = Placement("tiny", dict(zip("abc", vms)))
    return instance.provider, placements, [*apps, together, tiny]


@pytest.mark.parametrize(
    "scenario", ["multi-app-sequence", "ec2-trace-replay", "bursty-mapreduce"]
)
def test_run_applications_is_a_fresh_simulation_of_the_placed_flows(scenario):
    """Bit for bit: each application's and each crossing transfer's
    completion is what one simulation of every placed flow, from zero,
    reports; a transfer too small for the network finishes at the start."""
    for seed in range(6):
        provider, placements, apps = staggered(scenario, seed)
        runs = run_applications(provider, placements, apps)
        crossing = {
            app.name: placement_to_flows(placements[app.name], app, app.start_time)
            for app in apps
        }
        fresh = provider.build_simulation(
            [flow for flows in crossing.values() for flow in flows if flow.size_bytes > 1e-6]
        ).run()
        for app in apps:
            run, at = runs[app.name], f"{scenario}, seed {seed}, {app.name}"
            expected = sorted(
                fresh.completion_times.get(flow.flow_id, app.start_time)
                for flow in crossing[app.name]
            )
            assert sorted(run.flow_completion_times.values()) == expected, at
            assert run.completion_time == max(expected, default=app.start_time), at
            assert run.network_bytes + run.colocated_bytes == pytest.approx(
                app.total_bytes, rel=1e-12
            ), at
        together, tiny = runs["together"], runs["tiny"]
        assert together.duration == 0.0 and together.flow_completion_times == {}
        assert together.network_bytes == 0.0 and together.colocated_bytes == 1 * GBYTE
        assert len(tiny.flow_completion_times) == 2
        assert min(tiny.flow_completion_times.values()) == 60.0 < tiny.completion_time


def arrival_service(provider, placer):
    """The §6.3 arrival loop: the service without migration."""
    return PlacementService(
        provider, ClusterState.from_vms(provider.vms()), placer, migrate=False,
        ttl_s=ARRIVAL_TTL_S,
    )


def test_the_service_places_apps_in_arrival_order(provider):
    apps = [
        mapreduce("late", 2, 2, 1 * GBYTE, cpu_per_task=1.0, start_time=5.0),
        mapreduce("early", 2, 2, 1 * GBYTE, cpu_per_task=1.0, start_time=0.0),
    ]
    service = arrival_service(provider, GreedyPlacer())
    report = service.run_session(apps, hours=1)
    assert [(a.name, a.arrived_at) for a in report.apps] == [("early", 0.0), ("late", 5.0)]
    assert [a.status for a in report.apps] == ["completed", "completed"]
    assert set(service.last_apps) == {"early", "late"}
    # Greedy reads a profile: the bootstrap campaign, then one per arrival
    # after it (the first arrival's pairs are still fresh).
    assert report.measurement["campaigns"] == 2


def test_network_oblivious_sequence_skips_measurement(provider, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a placer that reads no profile was measured for")

    monkeypatch.setattr(NetworkMeasurer, "measure", refuse)
    apps = [
        mapreduce("solo", 2, 2, 1 * GBYTE, cpu_per_task=1.0),
        mapreduce("next", 2, 2, 1 * GBYTE, cpu_per_task=1.0, start_time=2.0),
    ]
    report = arrival_service(provider, RandomPlacer(seed=0)).run_session(apps, hours=1)
    assert [a.status for a in report.apps] == ["completed", "completed"]
    assert report.measurement["campaigns"] == 0
