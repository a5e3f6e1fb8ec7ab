"""Named, parameterised end-to-end evaluation scenarios (paper §6).

A *scenario* bundles everything one trial of the evaluation needs: a
synthetic provider (built through :mod:`repro.cloud.registry`), a set of
tenant VMs, the applications to place, another tenant's flows (optional),
and the settings of the placement-service session the trial runs.  By
default those settings make the session the paper's arrival loop (§6.2 with
one application at t = 0, §6.3 with several arriving): no migration, and a
measurement at every arrival.  Only the churn scenarios pass their own.
Scenarios are registered by name so the experiment runner and the CLI can
address them as data, and every builder is a pure function of ``(seed,
params)`` so trials are reproducible and can be re-created inside worker
processes.

Adding a scenario::

    @scenario("my-scenario", description="...", tags=("ec2",),
              defaults={"n_vms": 8})
    def _build_my_scenario(seed, n_vms):
        provider, cluster = fresh_provider("ec2", seed=seed, n_vms=n_vms)
        app = mapreduce("job", 4, 4, 10 * GBYTE)
        return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.provider import CloudProvider
from repro.cloud.registry import make_provider
from repro.core.placement.base import ClusterState
from repro.errors import ExperimentError
from repro.net.flows import Flow
from repro.units import GBYTE, MBYTE
from repro.workloads.application import Application, Task, TrafficMatrix
from repro.workloads.generator import HPCloudWorkloadGenerator, WorkloadSpec
from repro.workloads.patterns import mapreduce, scatter_gather, uniform_mesh

#: The measurement-cache TTL of an arrival-loop trial: far below any
#: arrival gap, so every arrival re-probes each pair last probed before it
#: arrived.
ARRIVAL_TTL_S = 1e-3


@dataclass(frozen=True)
class ServiceSettings:
    """How a scenario's trial drives the placement service.

    The *placer* stays a grid dimension; these settings pin the service's
    own knobs (predictor, horizon, TTL, migration) per scenario cell, so
    the churn scenarios sweep predictor choices x placers under drift via
    ``--param predictor=...``.  A scenario that passes none gets the
    arrival loop's (:class:`ScenarioInstance`).
    """

    predictor: str = "measured"
    hours: float = 6.0
    ttl_s: Optional[float] = None
    migrate: bool = True


@dataclass
class ScenarioInstance:
    """One concrete, seeded realisation of a scenario.

    Attributes:
        provider: the synthetic cloud, with the tenant's VMs already
            requested.
        cluster: the tenant's machines as a placement cluster.
        apps: the applications to place, each at its start time.
        background: another tenant's flows sharing the network with the
            tenant's applications (see
            :meth:`~repro.service.engine.PlacementService.run_session`).
        service: the session's settings.  ``None`` (the default) is the
            arrival loop, each application placed as it arrives against a
            measurement taken under the load of those still running: no
            migration, a TTL (:data:`ARRIVAL_TTL_S`) that has every arrival
            re-measure, and the whole epochs up to the last arrival's.  The
            default predictor returns the measured rates throughout its
            first epoch.
    """

    provider: CloudProvider
    cluster: ClusterState
    apps: List[Application]
    background: List[Flow] = field(default_factory=list)
    service: Optional[ServiceSettings] = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ExperimentError("a scenario instance needs at least one application")
        if self.service is None:
            from repro.service.timeline import DEFAULT_EPOCH_S

            last = max(app.start_time for app in self.apps)
            self.service = ServiceSettings(
                hours=float(math.floor(last / DEFAULT_EPOCH_S) + 1),
                ttl_s=ARRIVAL_TTL_S,
                migrate=False,
            )


#: A builder takes ``(seed, **params)`` and returns a :class:`ScenarioInstance`.
ScenarioBuilder = Callable[..., ScenarioInstance]


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: metadata plus a parameterised builder."""

    name: str
    description: str
    builder: ScenarioBuilder
    tags: Tuple[str, ...] = ()
    defaults: Mapping[str, object] = field(default_factory=dict)

    def validate_params(self, overrides: Mapping[str, object]) -> None:
        """Raise :class:`ExperimentError` for override keys the builder lacks."""
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ExperimentError(
                f"scenario {self.name!r} has no parameters {sorted(unknown)}; "
                f"available: {sorted(self.defaults)}"
            )

    def build(self, seed: int = 0, **overrides) -> ScenarioInstance:
        """Realise the scenario with ``seed`` and parameter overrides."""
        self.validate_params(overrides)
        params = {**self.defaults, **overrides}
        return self.builder(seed=seed, **params)


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register a scenario spec; duplicate names raise :class:`ExperimentError`."""
    if spec.name in _REGISTRY:
        raise ExperimentError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def scenario(
    name: str,
    description: str,
    tags: Sequence[str] = (),
    defaults: Optional[Mapping[str, object]] = None,
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator form of :func:`register_scenario`."""

    def decorator(builder: ScenarioBuilder) -> ScenarioBuilder:
        register_scenario(
            ScenarioSpec(
                name=name,
                description=description,
                builder=builder,
                tags=tuple(tags),
                defaults=dict(defaults or {}),
            )
        )
        return builder

    return decorator


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from exc


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def list_scenarios(tag: Optional[str] = None) -> List[ScenarioSpec]:
    """All registered scenarios (optionally filtered by tag), sorted by name."""
    specs = [_REGISTRY[name] for name in scenario_names()]
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    return specs


# ---------------------------------------------------------------------------
# Builder helpers
# ---------------------------------------------------------------------------
def fresh_provider(
    provider_name: str, seed: int, n_vms: int, **provider_kwargs
) -> Tuple[CloudProvider, ClusterState]:
    """A seeded provider with ``n_vms`` tenant VMs and its placement cluster."""
    if n_vms < 2:
        raise ExperimentError("scenarios need at least two VMs")
    provider = make_provider(provider_name, seed=seed, **provider_kwargs)
    provider.request_vms(n_vms)
    cluster = ClusterState.from_vms(provider.vms())
    return provider, cluster


def _light_workload_spec(max_tasks: int = 8) -> WorkloadSpec:
    """Generator knobs that keep single trials CPU-feasible and fast."""
    return WorkloadSpec(
        min_tasks=4,
        max_tasks=max_tasks,
        cpu_choices=(0.5, 1.0, 2.0),
    )


# ---------------------------------------------------------------------------
# Registered scenarios
# ---------------------------------------------------------------------------
@scenario(
    "smoke",
    description="Tiny MapReduce on 4 EC2 VMs; the CI fast path.",
    tags=("ec2", "fast"),
    defaults={"n_vms": 4, "shuffle_gbytes": 0.5},
)
def _build_smoke(seed: int, n_vms: int, shuffle_gbytes: float) -> ScenarioInstance:
    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    app = mapreduce(
        "smoke-job", 2, 2, float(shuffle_gbytes) * GBYTE,
        rng=np.random.default_rng(seed),
    )
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "single-app-ec2",
    description="One generated HP-Cloud-like application placed on EC2 (§6.2).",
    tags=("ec2", "generator"),
    defaults={"n_vms": 8, "max_tasks": 8},
)
def _build_single_app(seed: int, n_vms: int, max_tasks: int) -> ScenarioInstance:
    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    gen = HPCloudWorkloadGenerator(_light_workload_spec(int(max_tasks)), seed=seed)
    app = gen.generate_application()
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "multi-app-sequence",
    description=(
        "Applications arrive one by one and are placed as they arrive, with "
        "running apps acting as cross traffic (§2.4, §6.3)."
    ),
    tags=("ec2", "sequence"),
    defaults={"n_vms": 10, "n_apps": 4, "arrival_gap_s": 30.0},
)
def _build_sequence(
    seed: int, n_vms: int, n_apps: int, arrival_gap_s: float
) -> ScenarioInstance:
    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    gen = HPCloudWorkloadGenerator(_light_workload_spec(max_tasks=6), seed=seed)
    # Compressed arrival times so transfers overlap and later placements see
    # earlier applications as cross traffic.
    apps = [
        gen.generate_application(start_time=i * float(arrival_gap_s))
        for i in range(int(n_apps))
    ]
    return ScenarioInstance(provider=provider, cluster=cluster, apps=apps)


@scenario(
    "all-to-all",
    description="Uniform all-to-all mesh, the pattern Choreo can least improve (§7.1).",
    tags=("ec2", "pattern"),
    defaults={"n_vms": 6, "n_tasks": 6, "pair_mbytes": 200.0},
)
def _build_all_to_all(
    seed: int, n_vms: int, n_tasks: int, pair_mbytes: float
) -> ScenarioInstance:
    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    app = uniform_mesh(
        "mesh", int(n_tasks), bytes_per_pair=float(pair_mbytes) * MBYTE,
        cpu_per_task=1.0,
    )
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "partition-aggregate",
    description="Scatter/gather frontend with heavy worker responses.",
    tags=("ec2", "pattern"),
    defaults={"n_vms": 8, "n_workers": 7, "response_mbytes": 400.0},
)
def _build_partition_aggregate(
    seed: int, n_vms: int, n_workers: int, response_mbytes: float
) -> ScenarioInstance:
    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    app = scatter_gather(
        "svc", int(n_workers),
        request_bytes=4 * MBYTE,
        response_bytes=float(response_mbytes) * MBYTE,
        cpu_per_task=1.0,
    )
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "bursty-mapreduce",
    description="Skewed MapReduce shuffle with hot reducers (lognormal weights).",
    tags=("ec2", "pattern"),
    defaults={"n_vms": 8, "n_mappers": 4, "n_reducers": 4, "shuffle_gbytes": 4.0,
              "skew": 1.5},
)
def _build_bursty_mapreduce(
    seed: int, n_vms: int, n_mappers: int, n_reducers: int,
    shuffle_gbytes: float, skew: float,
) -> ScenarioInstance:
    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    app = mapreduce(
        "bursty-job", int(n_mappers), int(n_reducers),
        float(shuffle_gbytes) * GBYTE, skew=float(skew),
        rng=np.random.default_rng(seed),
    )
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "cross-traffic",
    description=(
        "Placement while another tenant's bulk transfers load random paths; "
        "measurement sees them as cross traffic (§3.2)."
    ),
    tags=("ec2", "cross-traffic"),
    defaults={"n_vms": 6, "n_cross_flows": 4, "cross_gbytes": 2.0},
)
def _build_cross_traffic(
    seed: int, n_vms: int, n_cross_flows: int, cross_gbytes: float
) -> ScenarioInstance:
    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    rng = np.random.default_rng(seed + 0x5EED)
    names = cluster.machine_names()
    background: List[Flow] = []
    for i in range(int(n_cross_flows)):
        src, dst = rng.choice(names, size=2, replace=False)
        background.append(
            Flow(
                flow_id=f"cross:{i}",
                src=str(src),
                dst=str(dst),
                size_bytes=float(cross_gbytes) * GBYTE,
                start_time=0.0,
            )
        )
    gen = HPCloudWorkloadGenerator(_light_workload_spec(max_tasks=6), seed=seed)
    app = gen.generate_application()
    return ScenarioInstance(
        provider=provider, cluster=cluster, apps=[app], background=background
    )


@scenario(
    "hetero-topology",
    description=(
        "EC2 with an extra aggregation tier (8-hop core paths, Figure 8) and "
        "more aggressive colocation."
    ),
    tags=("ec2", "topology"),
    defaults={"n_vms": 8, "colocation_probability": 0.15},
)
def _build_hetero_topology(
    seed: int, n_vms: int, colocation_probability: float
) -> ScenarioInstance:
    provider, cluster = fresh_provider(
        "ec2", seed=seed, n_vms=int(n_vms),
        extra_agg_layer=True,
        colocation_probability=float(colocation_probability),
    )
    gen = HPCloudWorkloadGenerator(_light_workload_spec(max_tasks=8), seed=seed)
    app = gen.generate_application()
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "ec2-trace-replay",
    description=(
        "Replay sFlow-like flow-record traces through the full "
        "profile->measure->place pipeline: applications are profiled from "
        "records, then placed as they arrive (§2.1, §6.1).  With "
        "trace_path, the records come from a recorded CSV/JSONL file on "
        "disk instead of being generated."
    ),
    tags=("ec2", "trace", "sequence"),
    defaults={
        "n_vms": 10, "n_apps": 3, "records_per_pair": 4, "arrival_gap_s": 45.0,
        "trace_path": "",
    },
)
def _build_trace_replay(
    seed: int, n_vms: int, n_apps: int, records_per_pair: int,
    arrival_gap_s: float, trace_path: str,
) -> ScenarioInstance:
    # Import here: core.profiler is a consumer of workloads, and scenarios
    # otherwise stay importable without the placement stack.
    from repro.core.profiler import ApplicationProfiler

    provider, cluster = fresh_provider("ec2", seed=seed, n_vms=int(n_vms))
    profiler = ApplicationProfiler()

    if trace_path:
        # Recorded replay: the trace is the only ground truth.  CPU demands
        # are not part of flow records, so the profiler's default applies.
        from repro.workloads.trace import load_trace

        records = load_trace(str(trace_path))
        if not len(records):
            raise ExperimentError(f"trace {trace_path!r} contains no records")
        apps = [
            profiler.profile_application(records, name)
            for name in records.applications_by_start()
        ]
        return ScenarioInstance(provider=provider, cluster=cluster, apps=apps)

    gen = HPCloudWorkloadGenerator(_light_workload_spec(max_tasks=6), seed=seed)
    # Ground truth: generated applications, exploded into flow records as a
    # network monitor would report them...
    source_apps = [
        gen.generate_application(start_time=i * float(arrival_gap_s))
        for i in range(int(n_apps))
    ]
    traces = [
        gen.application_to_records(
            app,
            n_records_per_pair=int(records_per_pair),
            duration_s=float(arrival_gap_s),
        )
        for app in source_apps
    ]
    # ...then what the placer actually sees: applications re-profiled from
    # their records (an application's records are the ones it would have in
    # one merged trace, in the same order).  CPU demands come from the
    # tenant (traces carry none).
    apps = [
        profiler.profile_application(
            records,
            app.name,
            task_cpu_cores={task.name: task.cpu_cores for task in app.tasks},
            start_time=app.start_time,
        )
        for app, records in zip(source_apps, traces)
    ]
    return ScenarioInstance(provider=provider, cluster=cluster, apps=apps)


@scenario(
    "rack-hotspot",
    description=(
        "Two racks behind oversubscribed ToR uplinks, a slow-hose VM tail, "
        "and a descending chain of heavy transfers.  Greedy's colocation "
        "ties ignore future egress, so it parks heavy senders on slow VMs "
        "— the Figure-9 regime where the exact `ilp` placer has headroom."
    ),
    tags=("synthetic", "topology", "ilp"),
    defaults={
        "n_vms": 10,
        "n_tasks": 12,
        "uplink_gbps": 2.0,
        "slow_fraction": 0.4,
        "chain_gbytes": 4.0,
    },
)
def _build_rack_hotspot(
    seed: int,
    n_vms: int,
    n_tasks: int,
    uplink_gbps: float,
    slow_fraction: float,
    chain_gbytes: float,
) -> ScenarioInstance:
    from repro.cloud.provider import ProviderParams
    from repro.net.topology import TreeSpec
    from repro.units import GBITPS, MBITPS

    n_vms, n_tasks = int(n_vms), int(n_tasks)
    if n_tasks > 2 * n_vms:
        raise ExperimentError("rack-hotspot needs n_tasks <= 2 * n_vms")
    slow_fraction = float(slow_fraction)

    def hotspot_hose(rng: np.random.Generator) -> float:
        # Bimodal egress caps: a fast mode and a pronounced slow tail, so
        # machine choice matters and interchangeability is rare.
        if rng.random() < slow_fraction:
            return float(rng.uniform(300.0, 500.0)) * MBITPS
        return float(rng.uniform(900.0, 1100.0)) * MBITPS

    params = ProviderParams(
        name="rack-hotspot",
        hose_sampler=hotspot_hose,
        colocation_probability=0.0,
        intra_host_rate_bps=4 * GBITPS,
        temporal_sigma=0.005,
        temporal_tau_s=600.0,
        measurement_noise=0.002,
        tree_spec=TreeSpec(
            hosts_per_rack=max(2, (n_vms + 1) // 2),
            racks_per_pod=2,
            pods=1,
            num_cores=1,
            host_link_bps=10 * GBITPS,
            # The hotspot: both racks funnel through thin ToR uplinks.
            tor_agg_link_bps=float(uplink_gbps) * GBITPS,
            agg_core_link_bps=float(uplink_gbps) * GBITPS,
            intra_host_bps=4 * GBITPS,
        ),
    )
    provider = CloudProvider(params, seed=seed)
    provider.request_vms(n_vms)
    cluster = ClusterState.from_vms(provider.vms())

    # A chain of transfers with geometrically decaying volumes: greedy
    # colocates (t0,t1), (t2,t3), ... and the odd tasks become the heavy
    # cross-machine senders — on machines greedy picked by name, not by
    # egress cap.
    rng = np.random.default_rng(seed + 0x401)
    tasks = [Task(f"t{k}", cpu_cores=2.0) for k in range(n_tasks)]
    traffic = TrafficMatrix()
    volume = float(chain_gbytes) * GBYTE
    for k in range(n_tasks - 1):
        jitter = float(rng.uniform(0.9, 1.1))
        traffic.add(f"t{k}", f"t{k + 1}", volume * jitter)
        volume *= 0.85
    app = Application(name="hotspot-chain", tasks=tasks, traffic=traffic)
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "service-churn",
    description=(
        "A churn session through the online placement service: hourly "
        "ground-truth matrices drift (random-walk / diurnal / hotspot-flap) "
        "while applications stream in; each placement uses a fresh "
        "measurement, and running apps migrate at epoch ticks.  Sweep "
        "`predictor` (measured / stale / oracle) x placers to test §3's "
        "measure-then-place under drift."
    ),
    tags=("ec2", "service", "drift"),
    defaults={
        "n_vms": 8,
        "hours": 4,
        "drift": "hotspot-flap",
        "predictor": "measured",
        "apps_per_hour": 1.5,
        "epoch_s": 300.0,
        "migrate": True,
    },
)
@scenario(
    "fault-churn",
    description=(
        "The service-churn session under injected infrastructure faults: "
        "VMs are preempted mid-session (their tasks re-placed via the "
        "migration engine), links degrade (targeted re-measurement), and "
        "probes are lost (the measurer retries, then coasts on the cached "
        "rate or the floor).  Sweep `faults` (random-preempt / rack-outage / "
        "link-flap / lossy-probes) to stress the self-healing control loop; "
        "seeded, so reruns are bit-identical."
    ),
    tags=("ec2", "service", "faults"),
    defaults={
        "n_vms": 8,
        "hours": 4,
        "drift": "random-walk",
        "predictor": "measured",
        "apps_per_hour": 1.5,
        "epoch_s": 300.0,
        "migrate": True,
        "faults": "random-preempt",
        "fault_strength": 0.0,
    },
)
def _build_churn(
    seed: int,
    n_vms: int,
    hours: float,
    drift: str,
    predictor: str,
    apps_per_hour: float,
    epoch_s: float,
    migrate: bool,
    faults: str = "none",
    fault_strength: float = 0.0,
) -> ScenarioInstance:
    """Both churn scenarios: ``service-churn`` takes no fault parameter, and
    so injects none."""
    # Imported here so the scenario registry stays importable without the
    # service stack (and because repro.service.session resolves placers
    # through this package — a module-level import would be circular).
    from repro.service.engine import validate_predictor
    from repro.service.session import build_churn_session

    validate_predictor(str(predictor))
    provider, cluster, apps, _timeline = build_churn_session(
        seed,
        n_vms=int(n_vms),
        hours=float(hours),
        drift=str(drift),
        apps_per_hour=float(apps_per_hour),
        epoch_s=float(epoch_s),
        faults=str(faults),
        # Scenario params must be JSON scalars, so None (generator default)
        # is spelled 0.0 here.
        fault_strength=float(fault_strength) or None,
    )
    return ScenarioInstance(
        provider=provider,
        cluster=cluster,
        apps=apps,
        service=ServiceSettings(
            predictor=str(predictor),
            hours=float(hours),
            migrate=bool(migrate),
        ),
    )


@scenario(
    "legacy-ec2-zone",
    description="The highly variable May-2012 EC2 network, one availability zone (Figure 1).",
    tags=("ec2-legacy",),
    defaults={"n_vms": 6, "zone": "us-east-1a"},
)
def _build_legacy_zone(seed: int, n_vms: int, zone: str) -> ScenarioInstance:
    provider, cluster = fresh_provider(
        "ec2-legacy", seed=seed, n_vms=int(n_vms), zone=str(zone)
    )
    gen = HPCloudWorkloadGenerator(_light_workload_spec(max_tasks=6), seed=seed)
    app = gen.generate_application()
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])


@scenario(
    "rackspace-uniform",
    description="Rackspace's uniform 300 Mbit/s network, where colocation is the only win.",
    tags=("rackspace",),
    defaults={"n_vms": 6, "shuffle_gbytes": 2.0},
)
def _build_rackspace(seed: int, n_vms: int, shuffle_gbytes: float) -> ScenarioInstance:
    provider, cluster = fresh_provider("rackspace", seed=seed, n_vms=int(n_vms))
    app = mapreduce(
        "rs-job", 3, 3, float(shuffle_gbytes) * GBYTE,
        rng=np.random.default_rng(seed),
    )
    return ScenarioInstance(provider=provider, cluster=cluster, apps=[app])
