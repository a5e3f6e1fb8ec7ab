"""Seeded churn sessions: provider + timeline + arrival stream in one call.

A *churn session* is the service's unit of evaluation: a fresh provider
with a drifting ground-truth timeline attached, an arrival stream of
generated applications, and one :class:`~repro.service.engine.PlacementService`
run over them.  :func:`build_churn_session` is a pure function of ``(seed,
params)`` — the CLI, the ``service-churn`` scenario, the ``churn_day``
benchmark workload, and the tests all realise identical sessions from it, and two
predictors compared on the same seed face the *same* network and
applications (paired comparison, as in §6).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.cloud.provider import CloudProvider
from repro.cloud.registry import make_provider
from repro.core.placement.base import ClusterState, Placer
from repro.errors import ServiceError
from repro.service.engine import PlacementService, ServiceReport
from repro.service.timeline import (
    DEFAULT_EPOCH_S,
    Timeline,
    attach_timeline,
    generate_timeline,
)
from repro.units import GBYTE
from repro.workloads.application import Application
from repro.workloads.generator import HPCloudWorkloadGenerator, WorkloadSpec

#: Seed offset of the workload stream: it must not be correlated with the
#: provider's own RNG (which seeds VM host choices and hose caps) or with
#: the timeline's streams.
_WORKLOAD_SEED_SALT = 0xA9915


def build_churn_session(
    seed: int,
    n_vms: int = 8,
    hours: float = 6.0,
    drift: str = "random-walk",
    drift_strength: Optional[float] = None,
    apps_per_hour: float = 1.5,
    max_tasks: int = 6,
    epoch_s: float = DEFAULT_EPOCH_S,
    timeline_path: Optional[str] = None,
    faults: str = "none",
    fault_strength: Optional[float] = None,
) -> Tuple[CloudProvider, ClusterState, List[Application], Timeline]:
    """Realise one seeded churn session (timeline already attached).

    Args:
        seed: drives the provider, the timeline, and the workload.
        n_vms: tenant VMs.
        hours: admission horizon in epochs.
        drift: timeline drift generator.
        drift_strength: generator knob; ``None`` uses the drift's default.
        apps_per_hour: Poisson arrival rate of the application stream.
        max_tasks: cap on generated application size (keeps admissions
            CPU-feasible on small clusters).
        epoch_s: epoch length (the tests shrink it to keep sessions fast).
        timeline_path: load a recorded timeline (drift and faults) from
            disk instead of generating one; it overrides ``drift``,
            ``faults``, their strengths and ``epoch_s``, and the VMs it names
            must be the provider's.
        faults: fault generator (``"none"`` adds no event, so the session
            is bit-identical to one without fault injection).
        fault_strength: generator knob; ``None`` uses the generator's
            default.
    """
    if n_vms < 2:
        raise ServiceError("a churn session needs at least two VMs")
    if not hours > 0:
        raise ServiceError("hours must be positive")
    if not apps_per_hour > 0:
        raise ServiceError("apps_per_hour must be positive")

    # Colocation off: same-host VM pairs advertise the 4 Gbit/s intra-host
    # path, which lures the myopic greedy chain onto whatever VM happens to
    # share a host — luck that would drown the predictor comparison the
    # churn session exists to make.
    provider = make_provider("ec2", seed=seed, colocation_probability=0.0)
    provider.request_vms(n_vms)
    cluster = ClusterState.from_vms(provider.vms())

    if timeline_path is not None:
        timeline = Timeline.load(timeline_path)
    else:
        # Rack identities come from the provider's topology so correlated
        # fault generators (rack-outage) take out exactly the VMs behind
        # one ToR.
        timeline = generate_timeline(
            provider.base_hose_rates(),
            hours,
            drift=drift,
            faults=faults,
            seed=seed,
            drift_strength=drift_strength,
            fault_strength=fault_strength,
            epoch_s=epoch_s,
            racks={
                vm.name: provider.topology.rack_of(vm.host)
                for vm in provider.vms()
            },
        )
    attach_timeline(provider, timeline)

    horizon = hours * timeline.epoch_s
    n_apps = max(1, int(round(apps_per_hour * hours)))
    # CPU-heavy tasks so applications *must* span machines: a fully
    # colocated app never touches the network and would be blind to drift.
    spec = WorkloadSpec(
        min_tasks=4,
        max_tasks=max(4, max_tasks),
        mean_total_bytes=4 * GBYTE,
        cpu_choices=(2.0, 3.0, 4.0),
        arrival_rate_per_hour=apps_per_hour,
    )
    gen = HPCloudWorkloadGenerator(spec, seed=seed ^ _WORKLOAD_SEED_SALT)
    # The generator's arrival processes are hour-based; rescale to the
    # session's epoch so shrunken test epochs keep the same churn shape.
    raw = gen.generate_applications(n_apps)
    scale = timeline.epoch_s / 3600.0
    apps: List[Application] = []
    for app in raw:
        start = app.start_time * scale
        if start >= horizon:
            continue
        app.start_time = start
        apps.append(app)
    if not apps:
        # The Poisson stream can overshoot a short horizon: anchor one
        # arrival at the session start so every session admits something.
        first = raw[0]
        first.start_time = 0.0
        apps = [first]
    return provider, cluster, apps, timeline


def run_churn_session(
    seed: int,
    predictor: str = "measured",
    placer: str = "greedy",
    placer_params: Optional[Mapping[str, object]] = None,
    migrate: bool = True,
    ttl_s: Optional[float] = None,
    telemetry: bool = False,
    **session_kwargs,
) -> ServiceReport:
    """Build a churn session and run the service over it.

    ``placer`` is a name from the experiment placer registry (aliases
    accepted); ``session_kwargs`` go to :func:`build_churn_session`;
    ``telemetry`` attaches the opt-in observability block to the report
    (see :meth:`PlacementService.run_session`).
    """
    provider, cluster, apps, timeline = build_churn_session(
        seed, **session_kwargs
    )
    service = PlacementService(
        provider,
        cluster,
        _resolve_placer(placer, seed, placer_params),
        predictor=predictor,
        ttl_s=ttl_s,
        migrate=migrate,
    )
    hours = float(session_kwargs.get("hours", 6.0))
    return service.run_session(apps, hours=hours, telemetry=telemetry)


def _resolve_placer(
    name_or_placer, seed: int, params: Optional[Mapping[str, object]]
) -> Placer:
    """Resolve a placer name through the experiments registry.

    Imported lazily: :mod:`repro.experiments.scenarios` imports this module
    for the ``service-churn`` scenario, so a module-level import would be
    circular.
    """
    if isinstance(name_or_placer, Placer):
        return name_or_placer
    from repro.experiments.placers import resolve_placer

    return resolve_placer(str(name_or_placer)).create(seed, params)
