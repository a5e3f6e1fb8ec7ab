"""Choreo itself: profiling, measurement, and network-aware placement.

This package is the paper's primary contribution.  The substrates it runs on
(the network simulator, synthetic cloud providers, and workload generator)
live in :mod:`repro.net`, :mod:`repro.cloud`, and :mod:`repro.workloads`.

* :mod:`repro.core.profiler` — application profiling (§2.1).
* :mod:`repro.core.network_profile` — the measured view of the network.
* :mod:`repro.core.measurement` — packet trains, bottleneck location (§3),
  and the full-mesh measurement orchestrator.
* :mod:`repro.core.placement` — greedy Algorithm 1, the ILP of the Appendix,
  and the Random / Round-robin / Minimum-Machines baselines (§5, §6).

The end-to-end system of §2 is these layers called in order: the profiler
turns flow records into an application, the measurer turns the tenant's
VMs into a profile, and a placer maps the application onto the VMs.
"""

from repro.core.network_profile import NetworkProfile
from repro.core.profiler import ApplicationProfiler
from repro.core.estimator import estimate_completion_time, machine_pair_bytes
from repro.core.placement import (
    Machine,
    ClusterState,
    Placement,
    Placer,
    GreedyPlacer,
    OptimalPlacer,
    BruteForcePlacer,
    RandomPlacer,
    RoundRobinPlacer,
    MinimumMachinesPlacer,
)
from repro.core.measurement import (
    estimate_throughputs,
    InterferenceResult,
    BottleneckReport,
    BottleneckLocator,
    NetworkMeasurer,
)

__all__ = [
    "NetworkProfile",
    "ApplicationProfiler",
    "estimate_completion_time",
    "machine_pair_bytes",
    "Machine",
    "ClusterState",
    "Placement",
    "Placer",
    "GreedyPlacer",
    "OptimalPlacer",
    "BruteForcePlacer",
    "RandomPlacer",
    "RoundRobinPlacer",
    "MinimumMachinesPlacer",
    "estimate_throughputs",
    "InterferenceResult",
    "BottleneckReport",
    "BottleneckLocator",
    "NetworkMeasurer",
]
