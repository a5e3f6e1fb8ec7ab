"""Execution substrate: run placed applications on a synthetic cloud.

The paper's evaluation transfers real traffic on EC2 once applications are
placed ("we do not merely calculate what the application completion time
would have been", §6.1).  Our stand-in is the fluid simulator: the executor
turns a placement plus a traffic matrix into VM-level flows, runs them on
the provider, and reports completion times that include all sharing effects
(hose caps, shared paths, colocation, and concurrent applications).
"""

from repro.runtime.executor import (
    ApplicationRun,
    placement_to_flows,
    run_applications,
)
from repro.runtime.migration import MigrationEvent
from repro.runtime.metrics import (
    relative_speedup,
    speedup_summary,
    SpeedupSummary,
)

__all__ = [
    "ApplicationRun",
    "placement_to_flows",
    "run_applications",
    "MigrationEvent",
    "relative_speedup",
    "speedup_summary",
    "SpeedupSummary",
]
