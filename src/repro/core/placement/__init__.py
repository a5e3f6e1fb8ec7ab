"""Task placement algorithms (paper §2.3, §5, §6, Appendix).

* :mod:`repro.core.placement.base` — the :class:`Placer` interface,
  machines, cluster state, and placement validation.
* :mod:`repro.core.placement.greedy` — Algorithm 1, the greedy
  network-aware placement Choreo uses in practice.
* :mod:`repro.core.placement.ilp` — the Appendix's optimisation, solved
  exactly by branch-and-bound over the assignment, plus a brute-force
  optimal placer for small instances.
* :mod:`repro.core.placement.baselines` — the Random, Round-robin, and
  Minimum-Machines comparison schemes of §6.
"""

from repro.core.placement.base import (
    Machine,
    ClusterState,
    Placement,
    Placer,
    validate_placement,
)
from repro.core.placement.greedy import GreedyPlacer
from repro.core.placement.ilp import OptimalPlacer, BruteForcePlacer
from repro.core.placement.baselines import (
    RandomPlacer,
    RoundRobinPlacer,
    MinimumMachinesPlacer,
)

__all__ = [
    "Machine",
    "ClusterState",
    "Placement",
    "Placer",
    "validate_placement",
    "GreedyPlacer",
    "OptimalPlacer",
    "BruteForcePlacer",
    "RandomPlacer",
    "RoundRobinPlacer",
    "MinimumMachinesPlacer",
]
