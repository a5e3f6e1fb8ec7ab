"""End-to-end tests on a synthetic provider: the §2 pipeline (profile,
measure, place, run) as ``benchmark/``'s ``pipeline_dc`` calls it, and the
§2.4 sequential-arrival workflow."""

import pytest

from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.placement.base import ClusterState, validate_placement
from repro.core.placement.baselines import RandomPlacer
from repro.core.placement.greedy import GreedyPlacer
from repro.core.profiler import ApplicationProfiler
from repro.runtime.executor import run_applications
from repro.runtime.sequence import SequentialPlacementRunner
from repro.units import GBYTE
from repro.workloads.generator import HPCloudWorkloadGenerator
from repro.workloads.patterns import mapreduce


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
    assert len(profile.pairs()) == 5 * 4
    assert profile.measurement_duration_s > 0
    assert run.completion_time >= run.start_time
    assert run.network_bytes + run.colocated_bytes == pytest.approx(app.total_bytes)


def test_sequential_runner_places_apps_in_arrival_order(provider):
    cluster_apps = [
        mapreduce("early", 2, 2, 1 * GBYTE, cpu_per_task=1.0, start_time=0.0),
        mapreduce("late", 2, 2, 1 * GBYTE, cpu_per_task=1.0, start_time=5.0),
    ]
    runner = SequentialPlacementRunner(
        provider, ClusterState.from_vms(provider.vms()), GreedyPlacer(),
        measure_network=True,
    )
    result = runner.run(cluster_apps)
    assert set(result.runs) == {"early", "late"}
    assert set(result.placements) == {"early", "late"}
    for app in cluster_apps:
        assert result.runs[app.name].start_time == app.start_time


def test_sequence_background_flows_share_the_network():
    from repro.cloud.provider import VMFlow
    from repro.core.placement.baselines import RoundRobinPlacer

    def run_once(background):
        provider = make_provider("ec2", seed=7)
        provider.request_vms(4)
        runner = SequentialPlacementRunner(
            provider, ClusterState.from_vms(provider.vms()), RoundRobinPlacer(),
            measure_network=False, background=background,
        )
        return runner.run([mapreduce("job", 2, 2, 2 * GBYTE, cpu_per_task=1.0)])

    quiet = run_once([])
    vms = [vm.name for vm in make_provider("ec2", seed=7).request_vms(4)]
    loaded = run_once(
        [VMFlow(flow_id="bg", src_vm=vms[0], dst_vm=vms[1],
                size_bytes=8 * GBYTE, tag="cross-traffic")]
    )
    # Identical seed and deterministic placer: the only difference is the
    # background load, which can only slow the application down.
    assert loaded.runs["job"].completion_time >= quiet.runs["job"].completion_time


def test_network_oblivious_sequence_skips_measurement(provider):
    apps = [mapreduce("solo", 2, 2, 1 * GBYTE, cpu_per_task=1.0)]
    runner = SequentialPlacementRunner(
        provider, ClusterState.from_vms(provider.vms()), RandomPlacer(seed=0),
        measure_network=False,
    )
    result = runner.run(apps)
    assert result.profiles["solo"] is None
    assert "solo" in result.runs
