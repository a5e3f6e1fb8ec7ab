"""Baseline placement algorithms (paper §6).

The evaluation compares Choreo to three network-oblivious schemes:

* **Random** — tasks go to random CPU-feasible VMs (the baseline for
  comparison);
* **Round-robin** — tasks go to the next machine in the list with enough
  free CPU, similar to a load balancer minimising per-VM CPU;
* **Minimum Machines** — tasks are packed onto as few VMs as possible
  (first-fit), the cheapest option for a cost-conscious tenant.

All of them satisfy CPU constraints but ignore the network profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer, validate_placement
from repro.errors import PlacementError
from repro.workloads.application import Application

_EPS = 1e-9


def _ordered_tasks(app: Application) -> List[str]:
    """Tasks in declaration order (the order a tenant would submit them)."""
    return list(app.task_names)


class RandomPlacer(Placer):
    """Assign every task to a uniformly random CPU-feasible machine."""

    name = "random"
    needs_profile = False

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        self.check_feasible(app, cluster)
        free = {m: cluster.available_cpu(m) for m in cluster.machine_names()}
        assignments: Dict[str, str] = {}
        for task in _ordered_tasks(app):
            demand = app.cpu_demand(task)
            feasible = [m for m, cpu in free.items() if demand <= cpu + _EPS]
            if not feasible:
                raise PlacementError(
                    f"random placement ran out of CPU for task {task!r} "
                    f"of application {app.name!r}"
                )
            choice = str(self._rng.choice(sorted(feasible)))
            assignments[task] = choice
            free[choice] -= demand
        placement = Placement(app_name=app.name, assignments=assignments)
        validate_placement(placement, app, cluster)
        return placement


class RoundRobinPlacer(Placer):
    """Assign tasks to machines in round-robin order, skipping full machines."""

    name = "round-robin"
    needs_profile = False

    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        self.check_feasible(app, cluster)
        machines = cluster.machine_names()
        free = {m: cluster.available_cpu(m) for m in machines}
        assignments: Dict[str, str] = {}
        cursor = 0
        for task in _ordered_tasks(app):
            demand = app.cpu_demand(task)
            placed = False
            for offset in range(len(machines)):
                machine = machines[(cursor + offset) % len(machines)]
                if demand <= free[machine] + _EPS:
                    assignments[task] = machine
                    free[machine] -= demand
                    cursor = (cursor + offset + 1) % len(machines)
                    placed = True
                    break
            if not placed:
                raise PlacementError(
                    f"round-robin placement ran out of CPU for task {task!r} "
                    f"of application {app.name!r}"
                )
        placement = Placement(app_name=app.name, assignments=assignments)
        validate_placement(placement, app, cluster)
        return placement


class MinimumMachinesPlacer(Placer):
    """Pack tasks onto as few machines as possible (first-fit)."""

    name = "min-machines"
    needs_profile = False

    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        self.check_feasible(app, cluster)
        machines = cluster.machine_names()
        free = {m: cluster.available_cpu(m) for m in machines}
        opened: List[str] = []
        assignments: Dict[str, str] = {}
        for task in _ordered_tasks(app):
            demand = app.cpu_demand(task)
            target: Optional[str] = None
            # Prefer a machine that is already in use (to minimise count).
            for machine in opened:
                if demand <= free[machine] + _EPS:
                    target = machine
                    break
            if target is None:
                for machine in machines:
                    if machine not in opened and demand <= free[machine] + _EPS:
                        target = machine
                        opened.append(machine)
                        break
            if target is None:
                raise PlacementError(
                    f"minimum-machines placement ran out of CPU for task {task!r} "
                    f"of application {app.name!r}"
                )
            assignments[task] = target
            free[target] -= demand
        placement = Placement(app_name=app.name, assignments=assignments)
        validate_placement(placement, app, cluster)
        return placement
