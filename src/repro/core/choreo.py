"""The end-to-end Choreo system (paper §2).

:class:`ChoreoSystem` wires the three sub-systems together for a tenant:

1. **profile** the application's tasks from flow records (§2.1);
2. **measure** the network between the tenant's VMs with packet trains
   (§2.2, §3);
3. **place** the application's tasks with the greedy network-aware
   algorithm (§2.3, §5) — or any other :class:`~repro.core.placement.Placer`.

It also supports the multi-application workflow of §2.4: when a new
application arrives while others are running, Choreo re-measures the network
(the running applications appear as cross traffic) and places the new
application's tasks; migrations of running applications are proposed by
:mod:`repro.runtime.migration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer
from repro.core.placement.greedy import GreedyPlacer
from repro.core.profiler import ApplicationProfiler
from repro.errors import PlacementError
from repro.workloads.application import Application, combine_applications
from repro.workloads.trace import FlowRecord


@dataclass
class ChoreoConfig:
    """Configuration of a :class:`ChoreoSystem`.

    Attributes:
        measurement: how to measure the network (packet trains by default).
        default_task_cpu: CPU demand assumed for tasks the profiler sees
            without explicit CPU information.
    """

    measurement: MeasurementPlan = field(default_factory=MeasurementPlan)
    default_task_cpu: float = 1.0


class ChoreoSystem:
    """Tenant-side orchestration of profiling, measurement, and placement."""

    def __init__(
        self,
        provider: CloudProvider,
        placer: Optional[Placer] = None,
        config: Optional[ChoreoConfig] = None,
    ):
        self.provider = provider
        self.config = config if config is not None else ChoreoConfig()
        self.placer = placer if placer is not None else GreedyPlacer()
        self.profiler = ApplicationProfiler(default_cpu_cores=self.config.default_task_cpu)
        self.measurer = NetworkMeasurer(provider, plan=self.config.measurement)
        self._last_profile: Optional[NetworkProfile] = None

    # ------------------------------------------------------------ sub-systems
    def profile_application(
        self,
        records: Sequence[FlowRecord],
        application: str,
        task_cpu_cores: Optional[Dict[str, float]] = None,
    ) -> Application:
        """Profile one application from observed flow records (§2.1)."""
        return self.profiler.profile_application(
            records, application, task_cpu_cores=task_cpu_cores
        )

    def measure_network(
        self,
        vm_names: Optional[Sequence[str]] = None,
        background: Sequence[VMFlow] = (),
    ) -> NetworkProfile:
        """Measure the tenant's VM mesh (§2.2); running apps act as cross traffic."""
        profile = self.measurer.measure(vm_names, background=background)
        self._last_profile = profile
        return profile

    @property
    def last_profile(self) -> Optional[NetworkProfile]:
        """The most recent measurement, if any."""
        return self._last_profile

    # -------------------------------------------------------------- placement
    def cluster_state(
        self, vm_names: Optional[Sequence[str]] = None,
        cpu_used: Optional[Dict[str, float]] = None,
    ) -> ClusterState:
        """Cluster state for the tenant's VMs (optionally with running load)."""
        vms = self.provider.vms()
        if vm_names is not None:
            wanted = set(vm_names)
            vms = [vm for vm in vms if vm.name in wanted]
        state = ClusterState.from_vms(vms)
        if cpu_used:
            state = state.with_usage(cpu_used)
        return state

    def place_application(
        self,
        app: Application,
        cluster: Optional[ClusterState] = None,
        profile: Optional[NetworkProfile] = None,
        background: Sequence[VMFlow] = (),
    ) -> Placement:
        """Measure (if needed) and place one application (§2.3).

        Args:
            app: the application to place.
            cluster: machines and their current CPU usage; defaults to all of
                the tenant's VMs, fully free.
            profile: a pre-existing measurement to reuse; when omitted the
                network is measured now, with ``background`` as cross traffic.
        """
        cluster = cluster if cluster is not None else self.cluster_state()
        if profile is None:
            profile = self.measure_network(cluster.machine_names(), background=background)
        return self.placer.place(app, cluster, profile)

    def place_together(
        self,
        apps: Sequence[Application],
        cluster: Optional[ClusterState] = None,
        profile: Optional[NetworkProfile] = None,
    ) -> Dict[str, Placement]:
        """Place several applications at once by combining them (§6.2).

        The combined application's placement is split back into one
        :class:`Placement` per input application.
        """
        if not apps:
            raise PlacementError("place_together needs at least one application")
        cluster = cluster if cluster is not None else self.cluster_state()
        combined = combine_applications(apps, name="__combined__")
        combined_placement = self.place_application(combined, cluster=cluster, profile=profile)
        placements: Dict[str, Placement] = {}
        for app in apps:
            prefix = f"{app.name}/"
            assignments = {
                task[len(prefix):]: machine
                for task, machine in combined_placement.assignments.items()
                if task.startswith(prefix)
            }
            placements[app.name] = Placement(app_name=app.name, assignments=assignments)
        return placements
