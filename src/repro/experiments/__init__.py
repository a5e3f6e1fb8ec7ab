"""Evaluation subsystem: scenario registry and experiment runner (paper §6).

The paper's evaluation compares network-aware placement against baselines
across many applications and cloud conditions.  This package makes that
comparison a first-class, runnable artifact:

* :mod:`repro.experiments.scenarios` — named, parameterised end-to-end
  scenarios composing the workload generator, synthetic providers, and the
  placement stack;
* :mod:`repro.experiments.placers` — the placement-algorithm grid;
* :mod:`repro.experiments.trials` — the unit of work: one seeded
  (scenario, placer, trial) cell, small and picklable;
* :mod:`repro.experiments.backends` — the two execution backends:
  ``inline``, and ``pool`` — a stdlib process pool over trial groups, the
  one way a trial leaves the process;
* :mod:`repro.experiments.cache` — the persistent content-addressed
  result store, keyed by (scenario, params, placer, trial, seed,
  code_version);
* :mod:`repro.experiments.runner` — grid construction, cache lookup,
  backend dispatch, and assembly;
* :mod:`repro.experiments.results` — structured JSON results with
  speedup-over-baseline summaries (the Figure-9-style comparison);
* :mod:`repro.experiments.cli` — ``python -m repro.experiments``.
"""

from repro.experiments.backends import backend_names, create_backend
from repro.experiments.cache import CacheKey, ResultStore, code_version, tree_digest
from repro.experiments.placers import (
    PlacerSpec,
    list_placers,
    placer_names,
    resolve_placer,
)
from repro.experiments.results import ExperimentResult, TrialRecord
from repro.experiments.runner import (
    DEFAULT_PLACERS,
    ExperimentConfig,
    ExperimentRunner,
    RunStats,
)
from repro.experiments.trials import WorkItem, run_trial, trial_seed
from repro.experiments.scenarios import (
    ScenarioInstance,
    ScenarioSpec,
    ServiceSettings,
    fresh_provider,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario,
    scenario_names,
)

__all__ = [
    "backend_names",
    "create_backend",
    "CacheKey",
    "ResultStore",
    "code_version",
    "tree_digest",
    "PlacerSpec",
    "list_placers",
    "placer_names",
    "resolve_placer",
    "ExperimentResult",
    "TrialRecord",
    "DEFAULT_PLACERS",
    "ExperimentConfig",
    "ExperimentRunner",
    "RunStats",
    "WorkItem",
    "run_trial",
    "trial_seed",
    "ScenarioInstance",
    "ScenarioSpec",
    "ServiceSettings",
    "fresh_provider",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "scenario",
    "scenario_names",
]
