"""End-to-end ChoreoSystem tests on a synthetic provider: measure, place,
run, and the §2.4 sequential-arrival workflow."""

import pytest

from repro.cloud.registry import make_provider
from repro.core.choreo import ChoreoConfig, ChoreoSystem
from repro.core.measurement.orchestrator import MeasurementPlan
from repro.core.placement.base import validate_placement
from repro.core.placement.baselines import RandomPlacer
from repro.core.placement.greedy import GreedyPlacer
from repro.runtime.executor import run_application
from repro.runtime.sequence import SequentialPlacementRunner
from repro.units import GBYTE
from repro.workloads.patterns import mapreduce


@pytest.fixture
def provider():
    provider = make_provider("ec2", seed=42)
    provider.request_vms(5)
    return provider


def test_choreo_place_roundtrip(provider):
    system = ChoreoSystem(
        provider, config=ChoreoConfig(measurement=MeasurementPlan(advance_clock=False))
    )
    app = mapreduce("job", 3, 3, 2 * GBYTE, cpu_per_task=2.0)

    placement = system.place_application(app)

    cluster = system.cluster_state()
    validate_placement(placement, app, cluster)  # full coverage + CPU limits
    assert set(placement.assignments) == set(app.task_names)
    assert set(placement.machines_used()) <= set(cluster.machine_names())
    # The measurement the placement consumed is retained and covers the mesh.
    profile = system.last_profile
    assert profile is not None
    assert len(profile.pairs()) == 5 * 4
    assert profile.measurement_duration_s > 0

    run = run_application(provider, placement, app)
    assert run.completion_time >= run.start_time
    assert run.network_bytes + run.colocated_bytes == pytest.approx(app.total_bytes)


def test_sequential_runner_places_apps_in_arrival_order(provider):
    cluster_apps = [
        mapreduce("early", 2, 2, 1 * GBYTE, cpu_per_task=1.0, start_time=0.0),
        mapreduce("late", 2, 2, 1 * GBYTE, cpu_per_task=1.0, start_time=5.0),
    ]
    system = ChoreoSystem(provider)
    runner = SequentialPlacementRunner(
        provider, system.cluster_state(), GreedyPlacer(), measure_network=True
    )
    result = runner.run(cluster_apps)
    assert set(result.runs) == {"early", "late"}
    assert set(result.placements) == {"early", "late"}
    assert result.total_running_time >= 0.0
    for app in cluster_apps:
        assert result.runs[app.name].start_time == app.start_time


def test_sequence_background_flows_share_the_network():
    from repro.cloud.provider import VMFlow
    from repro.core.placement.baselines import RoundRobinPlacer

    def run_once(background):
        provider = make_provider("ec2", seed=7)
        provider.request_vms(4)
        system = ChoreoSystem(provider)
        runner = SequentialPlacementRunner(
            provider, system.cluster_state(), RoundRobinPlacer(),
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
    assert loaded.total_running_time >= quiet.total_running_time
    assert loaded.runs["job"].completion_time >= quiet.runs["job"].completion_time


def test_network_oblivious_sequence_skips_measurement(provider):
    apps = [mapreduce("solo", 2, 2, 1 * GBYTE, cpu_per_task=1.0)]
    system = ChoreoSystem(provider)
    runner = SequentialPlacementRunner(
        provider, system.cluster_state(), RandomPlacer(seed=0), measure_network=False
    )
    result = runner.run(apps)
    assert result.profiles["solo"] is None
    assert "solo" in result.runs
