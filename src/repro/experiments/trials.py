"""Trial execution: the unit of work every execution backend runs.

One *trial* re-creates a scenario from a derived seed, runs one placer on
it, executes the resulting placement on the provider's fluid simulator, and
records the timings into a :class:`~repro.experiments.results.TrialRecord`.
The per-trial seed depends only on ``(base_seed, scenario, trial)`` — not on
the placer — so every placer faces the *same* ground-truth network and
applications and per-trial speedups are paired comparisons, as in §6.

Everything a trial needs is named (scenario name, placer name, seed), which
is what makes a :class:`WorkItem` JSON-serialisable for the lease wire of
the ``remote`` backend's workers, on this machine or another.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.errors import ExperimentError, ReproError
from repro.experiments.placers import resolve_placer
from repro.experiments.results import TrialRecord
from repro.experiments.scenarios import (
    MODE_SEQUENCE,
    MODE_SERVICE,
    ScenarioInstance,
    ServiceSettings,
    get_scenario,
)
from repro.runtime.executor import run_applications
from repro.runtime.sequence import SequentialPlacementRunner


def trial_seed(base_seed: int, scenario_name: str, trial: int) -> int:
    """Deterministic per-trial seed, independent of the placer.

    Uses CRC32 (stable across processes and Python versions, unlike
    ``hash``) so parallel workers derive identical seeds.
    """
    key = f"{base_seed}:{scenario_name}:{trial}".encode()
    return zlib.crc32(key)


def run_trial(
    scenario_name: str,
    placer_name: str,
    trial: int,
    base_seed: int,
    scenario_params: Optional[Mapping[str, object]] = None,
    placer_params: Optional[Mapping[str, object]] = None,
    fail_fast: bool = False,
) -> TrialRecord:
    """Run one grid cell and return its record.

    By default the sweep keeps going: *any* raising trial — a library
    failure (:class:`ReproError`) or a genuine bug — is captured into the
    record with its exception string, so one bad cell cannot sink hours of
    sibling trials; the result surfaces them as ``dropped_trials`` and the
    CLI exits nonzero.  ``fail_fast=True`` restores the old abort-on-raise
    behaviour for debugging.
    """
    seed = trial_seed(base_seed, scenario_name, trial)
    record = TrialRecord(
        scenario=scenario_name, placer=placer_name, trial=trial, seed=seed
    )
    started = time.perf_counter()
    try:
        spec = get_scenario(scenario_name)
        instance = spec.build(seed=seed, **dict(scenario_params or {}))
        record.n_apps = len(instance.apps)
        record.n_vms = len(instance.cluster.machines)
        if instance.mode == MODE_SEQUENCE:
            _run_sequence_trial(instance, placer_name, seed, record, placer_params)
        elif instance.mode == MODE_SERVICE:
            _run_service_trial(instance, placer_name, seed, record, placer_params)
        else:
            _run_batch_trial(instance, placer_name, seed, record, placer_params)
    except Exception as exc:
        if fail_fast and not isinstance(exc, ReproError):
            raise
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
    record.trial_wall_s = time.perf_counter() - started
    return record


@dataclass(frozen=True)
class WorkItem:
    """One picklable, JSON-serialisable grid cell for an execution backend.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so work
    items are hashable and two items describing the same cell compare equal
    regardless of mapping order.

    ``fail_fast`` rides along on the wire so remote workers honour the
    runner's error policy, but it does not change *what* is computed —
    cache and memo keys deliberately exclude it.
    """

    scenario: str
    placer: str
    trial: int
    base_seed: int
    params: Tuple[Tuple[str, object], ...] = ()
    placer_params: Tuple[Tuple[str, object], ...] = ()
    fail_fast: bool = False

    @classmethod
    def make(
        cls,
        scenario: str,
        placer: str,
        trial: int,
        base_seed: int,
        params: Optional[Mapping[str, object]] = None,
        placer_params: Optional[Mapping[str, object]] = None,
        fail_fast: bool = False,
    ) -> "WorkItem":
        return cls(
            scenario=scenario,
            placer=placer,
            trial=trial,
            base_seed=base_seed,
            params=tuple(sorted((params or {}).items())),
            placer_params=tuple(sorted((placer_params or {}).items())),
            fail_fast=fail_fast,
        )

    @property
    def seed(self) -> int:
        return trial_seed(self.base_seed, self.scenario, self.trial)

    @property
    def trial_key(self) -> Tuple:
        """Identity of the simulation this item runs (``fail_fast`` aside).

        Mirrors the runner's memo key and the cache key's payload: two
        items with equal ``trial_key`` compute the identical record, which
        is what lets the remote backend discard duplicate records when a
        straggler's trials were re-dispatched and both workers finished.
        """
        return (
            self.scenario, self.params, self.placer, self.placer_params,
            self.trial, self.seed,
        )

    @property
    def cost_key(self) -> Tuple[str, str]:
        """The cost-model cell this item bills to.

        Observed trial wall clock clusters by ``(scenario, placer)`` — an
        ilp cell costs a few times a random-placer cell on the same
        scenario, a churn session many times a batch trial — so that pair
        is the granularity the result store's cost table and the remote
        backend's chunker work at.
        """
        return (self.scenario, self.placer)

    def run(self) -> TrialRecord:
        """Execute this cell in the current process."""
        return run_trial(
            self.scenario, self.placer, self.trial, self.base_seed,
            dict(self.params), dict(self.placer_params),
            fail_fast=self.fail_fast,
        )

    # ------------------------------------------------------------ wire format
    def to_json_dict(self) -> dict:
        """The lease wire format (all params are plain JSON)."""
        return {
            "scenario": self.scenario,
            "placer": self.placer,
            "trial": self.trial,
            "base_seed": self.base_seed,
            "params": dict(self.params),
            "placer_params": dict(self.placer_params),
            "fail_fast": self.fail_fast,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "WorkItem":
        try:
            return cls.make(
                scenario=str(data["scenario"]),
                placer=str(data["placer"]),
                trial=int(data["trial"]),  # type: ignore[arg-type]
                base_seed=int(data["base_seed"]),  # type: ignore[arg-type]
                params=dict(data.get("params") or {}),  # type: ignore[arg-type]
                placer_params=dict(data.get("placer_params") or {}),  # type: ignore[arg-type]
                fail_fast=bool(data.get("fail_fast", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed work item: {exc}") from exc


def execute_work_item(item: WorkItem) -> TrialRecord:
    """Module-level alias of :meth:`WorkItem.run`, the call both backends make."""
    return item.run()


def _measurement_plan() -> MeasurementPlan:
    # The paper's comparison charges the same measurement time to every
    # scheme rather than letting campaigns advance the clock mid-trial.
    return MeasurementPlan(advance_clock=False)


def _collect_solver_stats(placer, record: TrialRecord) -> None:
    """Copy a solver-backed placer's per-app stats into the record.

    Placers that expose ``stats_history`` (the exact placer) report search
    nodes, status, and warm-start acceptance per placed application;
    everything else leaves the field ``None``.
    """
    history = getattr(placer, "stats_history", None)
    if history:
        record.solver_stats = {app_name: dict(stats) for app_name, stats in history}


def _run_batch_trial(
    instance: ScenarioInstance,
    placer_name: str,
    seed: int,
    record: TrialRecord,
    placer_params: Optional[Mapping[str, object]] = None,
) -> None:
    """Place every application at time zero and run them together."""
    placer_spec = resolve_placer(placer_name)
    placer = placer_spec.create(seed, placer_params)
    provider, cluster = instance.provider, instance.cluster

    place_started = time.perf_counter()
    profile: Optional[NetworkProfile] = None
    if placer_spec.needs_profile:
        measurer = NetworkMeasurer(provider, plan=_measurement_plan())
        profile = measurer.measure(
            cluster.machine_names(), background=instance.background
        )
        record.measurement_overhead_s = profile.measurement_duration_s

    placements = {}
    state = cluster
    for app in instance.apps:
        placement = placer.place(app, state, profile)
        placements[app.name] = placement
        state = state.with_usage(placement.cpu_usage(app))
    record.placement_wall_s = time.perf_counter() - place_started
    _collect_solver_stats(placer, record)

    runs = run_applications(
        provider,
        placements=placements,
        apps=instance.apps,
        start_times={app.name: 0.0 for app in instance.apps},
        background=instance.background,
    )
    _fill_run_metrics(record, runs.values())


def _run_sequence_trial(
    instance: ScenarioInstance,
    placer_name: str,
    seed: int,
    record: TrialRecord,
    placer_params: Optional[Mapping[str, object]] = None,
) -> None:
    """Replay the §2.4 arrival sequence with the placer under test."""
    placer_spec = resolve_placer(placer_name)
    placer = placer_spec.create(seed, placer_params)
    runner = SequentialPlacementRunner(
        instance.provider,
        instance.cluster,
        placer,
        measurement=_measurement_plan(),
        measure_network=placer_spec.needs_profile,
        background=instance.background,
    )
    result = runner.run(instance.apps)
    _collect_solver_stats(placer, record)
    record.placement_wall_s = result.placement_wall_s
    record.measurement_overhead_s = sum(
        profile.measurement_duration_s
        for profile in result.profiles.values()
        if profile is not None
    )
    _fill_run_metrics(record, result.runs.values())


def _run_service_trial(
    instance: ScenarioInstance,
    placer_name: str,
    seed: int,
    record: TrialRecord,
    placer_params: Optional[Mapping[str, object]] = None,
) -> None:
    """Stream the applications through the online placement service.

    The per-application metric is admission-to-completion time; rejected
    applications (CPU-infeasible at their arrival) are excluded from the
    timing sums but surface in ``solver_stats``-style accounting via the
    per-app map (their duration is absent).
    """
    # Local import: repro.service resolves placers through this package's
    # registry, so a module-level import would be circular.
    from repro.service.engine import PlacementService

    placer_spec = resolve_placer(placer_name)
    placer = placer_spec.create(seed, placer_params)
    settings = instance.service or ServiceSettings()
    service = PlacementService(
        instance.provider,
        instance.cluster,
        placer,
        predictor=settings.predictor,
        ttl_s=settings.ttl_s,
        migrate=settings.migrate,
        improvement_threshold=settings.improvement_threshold,
    )
    report = service.run_session(instance.apps, hours=settings.hours)
    record.placement_wall_s = report.placement_wall_s
    record.measurement_overhead_s = float(
        report.measurement.get("measurement_time_s", 0.0)
    )
    completed = report.completed()
    record.per_app_duration_s = {a.name: a.duration for a in completed}
    record.total_running_time_s = report.total_completion_time_s
    if completed:
        record.makespan_s = max(a.completed_at for a in completed) - min(
            a.arrived_at for a in completed
        )


def _fill_run_metrics(record: TrialRecord, runs) -> None:
    runs = list(runs)
    record.per_app_duration_s = {run.app_name: run.duration for run in runs}
    record.total_running_time_s = sum(run.duration for run in runs)
    record.makespan_s = max(run.completion_time for run in runs) - min(
        run.start_time for run in runs
    )
    record.network_bytes = sum(run.network_bytes for run in runs)
    record.colocated_bytes = sum(run.colocated_bytes for run in runs)
