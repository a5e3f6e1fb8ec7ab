"""Online placement service over a time-varying network (§2.4, §6.1).

The paper's premise is that last-hour and time-of-day measurements predict
the *next* hour's network behaviour.  This package turns the offline
evaluator into the online system that premise implies:

* :mod:`repro.service.timeline` — piecewise-hourly ground-truth rate
  matrices with configurable drift generators, attachable to any provider;
* :mod:`repro.service.cache` — a measurement cache with per-pair TTL, so
  campaigns re-probe only the stale slice of the mesh;
* :mod:`repro.service.forecast` — next-epoch rate forecasts built from the
  §6.1 predictors (previous-hour / time-of-day / combined);
* :mod:`repro.service.engine` — the :class:`PlacementService` itself:
  streaming admission, live-placement tracking, and predictor-triggered
  re-evaluation/migration;
* :mod:`repro.service.session` — seeded churn sessions (provider +
  timeline + arrival stream) shared by the CLI, the ``service-churn``
  scenario, and the ``churn_day`` benchmark workload.

``python -m repro.service run`` drives a churn session from the command
line and reports per-application completion against an oracle that sees the
true future rates.
"""

from repro.service.cache import MeasurementCache
from repro.service.engine import PlacementService, ServiceReport
from repro.service.forecast import PREDICTOR_NAMES, RateForecaster
from repro.service.session import build_churn_session, run_churn_session
from repro.service.timeline import (
    DRIFT_NAMES,
    NetworkTimeline,
    attach_timeline,
    generate_timeline,
)

__all__ = [
    "DRIFT_NAMES",
    "MeasurementCache",
    "NetworkTimeline",
    "PREDICTOR_NAMES",
    "PlacementService",
    "RateForecaster",
    "ServiceReport",
    "attach_timeline",
    "build_churn_session",
    "generate_timeline",
    "run_churn_session",
]
