"""End-to-end tests on a synthetic provider: the §2 pipeline (profile,
measure, place, run) as ``benchmark/``'s ``pipeline_dc`` calls it, and the
§2.4 / §6.3 arrival loop, which the placement service runs."""

import pytest

from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.placement.base import ClusterState, validate_placement
from repro.core.placement.baselines import RandomPlacer
from repro.core.placement.greedy import GreedyPlacer
from repro.core.profiler import ApplicationProfiler
from repro.experiments.scenarios import ARRIVAL_TTL_S
from repro.runtime.executor import run_applications
from repro.service.engine import PlacementService
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
