"""Placement primitives shared by every placer.

A *machine* here is a VM from the tenant's point of view: the paper's
evaluation models each cloud machine as having four available cores and
each task as needing 0.5–4 cores.  A :class:`ClusterState` carries the
machines plus the CPU already consumed by applications that are still
running (needed when applications arrive in sequence, §6.3).  A
:class:`Placement` maps every task of one application to a machine and can
be validated against the cluster's CPU constraints.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.network_profile import NetworkProfile
from repro.errors import PlacementError
from repro.workloads.application import Application


@dataclass(frozen=True)
class Machine:
    """A schedulable machine (VM) with a CPU capacity in cores."""

    name: str
    cores: float = 4.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PlacementError("machine name must be non-empty")
        if not self.cores > 0:
            raise PlacementError(f"machine {self.name!r} must have positive cores")


@dataclass
class ClusterState:
    """The tenant's machines and their current CPU usage.

    Attributes:
        machines: the machines available for placement.
        cpu_used: cores already consumed on each machine by applications
            that are still running (empty for a fresh cluster).
    """

    machines: List[Machine]
    cpu_used: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise PlacementError("duplicate machine names in cluster")
        known = set(names)
        for name, used in self.cpu_used.items():
            if name not in known:
                raise PlacementError(f"cpu_used references unknown machine {name!r}")
            if not used >= 0:
                raise PlacementError("cpu_used values must be >= 0")

    @classmethod
    def from_vms(cls, vms: Iterable, cores: Optional[float] = None) -> "ClusterState":
        """Build a cluster from provider VM handles (uses their instance cores)."""
        machines = [
            Machine(vm.name, cores if cores is not None else vm.cores) for vm in vms
        ]
        return cls(machines=machines)

    def machine(self, name: str) -> Machine:
        """Look up a machine by name."""
        for machine in self.machines:
            if machine.name == name:
                return machine
        raise PlacementError(f"unknown machine {name!r}")

    def machine_names(self) -> List[str]:
        """All machine names, in declaration order."""
        return [m.name for m in self.machines]

    def available_cpu(self, name: str) -> float:
        """Cores still free on a machine."""
        return self.machine(name).cores - self.cpu_used.get(name, 0.0)

    def available_cpus(self) -> Dict[str, float]:
        """Cores still free on every machine, in declaration order (one
        pass; :meth:`available_cpu` looks its machine up by name)."""
        used = self.cpu_used
        return {m.name: m.cores - used.get(m.name, 0.0) for m in self.machines}

    def with_usage(self, usage: Mapping[str, float]) -> "ClusterState":
        """A copy with additional CPU usage applied (for sequential placement)."""
        combined = dict(self.cpu_used)
        for name, used in usage.items():
            combined[name] = combined.get(name, 0.0) + used
        return ClusterState(machines=list(self.machines), cpu_used=combined)


@dataclass
class Placement:
    """A mapping of one application's tasks to machines."""

    app_name: str
    assignments: Dict[str, str]

    def machine_of(self, task_name: str) -> str:
        """The machine a task was placed on."""
        try:
            return self.assignments[task_name]
        except KeyError as exc:
            raise PlacementError(
                f"placement for {self.app_name!r} has no task {task_name!r}"
            ) from exc

    def cpu_usage(self, app: Application) -> Dict[str, float]:
        """Cores the placed application consumes on each machine."""
        usage: Dict[str, float] = {}
        for task, machine in self.assignments.items():
            usage[machine] = usage.get(machine, 0.0) + app.cpu_demand(task)
        return usage


def validate_placement(
    placement: Placement, app: Application, cluster: ClusterState
) -> None:
    """Check a placement covers every task and respects CPU constraints.

    Raises:
        PlacementError: if a task is missing, placed on an unknown machine,
            or any machine's CPU capacity is exceeded.
    """
    missing = set(app.task_names) - set(placement.assignments)
    if missing:
        raise PlacementError(
            f"placement for {app.name!r} is missing tasks {sorted(missing)}"
        )
    extra = set(placement.assignments) - set(app.task_names)
    if extra:
        raise PlacementError(
            f"placement for {app.name!r} has unknown tasks {sorted(extra)}"
        )
    available = cluster.available_cpus()
    for task, machine in placement.assignments.items():
        if machine not in available:
            raise PlacementError(
                f"task {task!r} placed on unknown machine {machine!r}"
            )
    for machine, used in placement.cpu_usage(app).items():
        if used > available[machine] + 1e-9:
            raise PlacementError(
                f"machine {machine!r} over-committed: task demand {used:.2f} cores, "
                f"available {available[machine]:.2f}"
            )


class Placer(abc.ABC):
    """Interface every placement algorithm implements."""

    #: Human-readable name used in experiment output.
    name: str = "placer"
    #: Whether :meth:`place` reads its ``profile``; a caller measures the
    #: network only for a placer that does.
    needs_profile: bool = True

    @abc.abstractmethod
    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        """Place ``app`` on ``cluster``.

        ``profile`` is the measured network; network-oblivious baselines
        ignore it.  Implementations must return a placement that satisfies
        :func:`validate_placement` or raise :class:`PlacementError`.
        """

    def check_feasible(self, app: Application, cluster: ClusterState) -> None:
        """Raise :class:`PlacementError` when the app cannot possibly fit."""
        short = cpu_shortfall(app, cluster)
        if short is None:
            return
        bound, needed, available = short
        if bound == "total-cores":
            raise PlacementError(
                f"application {app.name!r} needs {needed:.1f} cores but the "
                f"cluster only has {available:.1f} available"
            )
        raise PlacementError(
            f"application {app.name!r} has a task needing {needed:.1f} cores "
            f"but no machine has more than {available:.1f} available"
        )


def cpu_shortfall(
    app: Application, cluster: ClusterState
) -> Optional[Tuple[str, float, float]]:
    """The CPU bound ``app`` cannot meet on ``cluster``, as ``(bound,
    needed, available)``: ``"total-cores"`` (the app's cores against the
    cluster's free ones), else ``"largest-slot"`` (its largest task against
    the largest free slot); ``None`` when it meets both."""
    available = cluster.available_cpus()
    total = sum(available.values())
    if app.total_cpu > total + 1e-9:
        return "total-cores", app.total_cpu, total
    largest_task = max(task.cpu_cores for task in app.tasks)
    largest_slot = max(available.values())
    if largest_task > largest_slot + 1e-9:
        return "largest-slot", largest_task, largest_slot
    return None
