"""Online placement service over a time-varying network (§2.4, §3).

Choreo measures the network, then places (§3); §2.4 re-evaluates running
applications as the network changes.  This package turns the offline
evaluator into the online system those two imply:

* :mod:`repro.service.timeline` — the ground truth a session's network
  follows: piecewise-hourly hose rates from a drift generator plus
  discrete fault events, as one record attachable to any provider;
* :mod:`repro.service.cache` — a measurement cache with per-pair TTL, so
  campaigns re-probe only the stale slice of the mesh;
* :mod:`repro.service.engine` — the :class:`PlacementService` itself:
  streaming admission and migration, each decision placed on the cache's
  measured profile (``stale`` and ``oracle`` are its controls);
* :mod:`repro.service.session` — seeded churn sessions (provider +
  timeline + arrival stream) shared by the CLI, the ``service-churn``
  scenario, and the ``churn_day`` benchmark workload.

``python -m repro.service run`` drives a churn session from the command
line and reports per-application completion against an oracle that sees the
true future rates.
"""

from repro.service.cache import MeasurementCache
from repro.service.engine import PREDICTOR_NAMES, PlacementService, ServiceReport
from repro.service.session import build_churn_session, run_churn_session
from repro.service.timeline import (
    DRIFT_NAMES,
    FAULT_NAMES,
    Timeline,
    attach_timeline,
    generate_timeline,
)

__all__ = [
    "DRIFT_NAMES",
    "FAULT_NAMES",
    "MeasurementCache",
    "PREDICTOR_NAMES",
    "PlacementService",
    "ServiceReport",
    "Timeline",
    "attach_timeline",
    "build_churn_session",
    "generate_timeline",
    "run_churn_session",
]
