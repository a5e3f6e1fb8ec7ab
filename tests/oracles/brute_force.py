"""Brute force: the exact placement the search and the MILPs are held to.

:class:`BruteForcePlacer` enumerates every CPU-feasible assignment of a
tiny instance and keeps the one
:func:`~repro.core.estimator.estimate_completion_time` scores lowest.  It
and the ``ilp`` placer's search both return the optimum, so it is the
reference the tests compare against, not a placer a run picks.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional

from repro.core.estimator import estimate_completion_time
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer, validate_placement
from repro.errors import PlacementError
from repro.workloads.application import Application

_EPS = 1e-9


class BruteForcePlacer(Placer):
    """Enumerate every CPU-feasible assignment and keep the best one.

    Only suitable for tiny instances (``machines ** tasks`` assignments are
    enumerated); the tests hold the search and the MILP oracles to it.
    """

    name = "brute-force"

    def __init__(self, max_assignments: int = 2_000_000):
        self.max_assignments = max_assignments

    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        if profile is None:
            raise PlacementError("the brute-force placer needs a network profile")
        self.check_feasible(app, cluster)
        tasks = app.task_names
        machines = cluster.machine_names()
        total = len(machines) ** len(tasks)
        if total > self.max_assignments:
            raise PlacementError(
                f"brute force would enumerate {total} assignments "
                f"(limit {self.max_assignments})"
            )

        best_assignment: Optional[Dict[str, str]] = None
        best_time = math.inf
        available = {m: cluster.available_cpu(m) for m in machines}
        for combo in itertools.product(machines, repeat=len(tasks)):
            usage: Dict[str, float] = {}
            feasible = True
            for task, machine in zip(tasks, combo):
                usage[machine] = usage.get(machine, 0.0) + app.cpu_demand(task)
                if usage[machine] > available[machine] + _EPS:
                    feasible = False
                    break
            if not feasible:
                continue
            assignment = dict(zip(tasks, combo))
            completion = estimate_completion_time(assignment, app, profile)
            if completion < best_time - _EPS:
                best_time = completion
                best_assignment = assignment
        if best_assignment is None:
            raise PlacementError(
                f"no CPU-feasible assignment exists for application {app.name!r}"
            )
        placement = Placement(app_name=app.name, assignments=best_assignment)
        validate_placement(placement, app, cluster)
        return placement
