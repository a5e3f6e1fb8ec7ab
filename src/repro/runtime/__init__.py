"""Execution substrate: run placed applications on a synthetic cloud.

The paper's evaluation transfers real traffic on EC2 once applications are
placed ("we do not merely calculate what the application completion time
would have been", §6.1).  Our stand-in is the fluid simulator: an
application's books (:class:`repro.runtime.migration.LiveApp`) turn its
placement into VM-level flows, one live simulation per run
(:class:`repro.runtime.migration.LiveNetwork`) carries them, and the
completion times it reports include all sharing effects (hose caps, shared
paths, colocation, and concurrent applications).
"""

from repro.runtime.executor import ApplicationRun, run_applications
from repro.runtime.migration import MigrationEvent
from repro.runtime.metrics import (
    relative_speedup,
    speedup_summary,
    SpeedupSummary,
)

__all__ = [
    "ApplicationRun",
    "run_applications",
    "MigrationEvent",
    "relative_speedup",
    "speedup_summary",
    "SpeedupSummary",
]
