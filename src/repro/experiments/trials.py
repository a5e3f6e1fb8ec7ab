"""Trial execution: the unit of work every execution backend runs.

One *trial* re-creates a scenario from a derived seed and runs one
placement-service session on it with one placer — measure, place each
application on that measurement as it arrives, run the placements on the
provider's fluid simulator — and records the timings into a
:class:`~repro.experiments.results.TrialRecord`.  A §6.2 trial is a session
with one arrival at t = 0, a §6.3 trial one with several.
The per-trial seed depends only on ``(base_seed, scenario, trial)`` — not on
the placer — so every placer faces the *same* ground-truth network and
applications and per-trial speedups are paired comparisons, as in §6.
Backends run batches through :func:`run_trials`, which therefore builds
that scenario once per trial and gives each placer a copy of it.

Everything a trial needs is named (scenario name, placer name, seed), which
is what makes a :class:`WorkItem` small and picklable for the ``pool``
backend's child processes.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError
from repro.experiments.placers import resolve_placer
from repro.experiments.results import TrialRecord
from repro.experiments.scenarios import ScenarioInstance, get_scenario
from repro.runtime.migration import booked_bytes


#: What a scenario or placer parameter value may be: a JSON scalar, so it
#: keys the store (by its JSON form) and the grouping alike.
JSON_SCALAR_TYPES = (type(None), bool, int, float, str)


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
    instance: Optional[ScenarioInstance] = None,
) -> TrialRecord:
    """Run one grid cell and return its record.

    ``instance`` is the cell's scenario already built (by
    :func:`run_trials`, for every placer of a trial); without it the trial
    builds its own from the derived seed.

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
        if instance is None:
            instance = _build(scenario_name, seed, scenario_params)
        record.n_apps = len(instance.apps)
        record.n_vms = len(instance.cluster.machines)
        _run_session(instance, placer_name, seed, record, placer_params)
    except Exception as exc:
        _capture(record, exc, fail_fast)
    record.trial_wall_s = time.perf_counter() - started
    return record


def _build(
    scenario_name: str, seed: int, scenario_params: Optional[Mapping[str, object]]
) -> ScenarioInstance:
    return get_scenario(scenario_name).build(seed=seed, **dict(scenario_params or {}))


def _capture(record: TrialRecord, exc: Exception, fail_fast: bool) -> None:
    """Mark ``record`` failed by ``exc``; re-raise a bug under ``fail_fast``."""
    if fail_fast and not isinstance(exc, ReproError):
        raise exc
    record.status = "error"
    record.error = f"{type(exc).__name__}: {exc}"


def trial_groups(items: Sequence[WorkItem]) -> List[List[int]]:
    """Positions of ``items`` grouped by :attr:`WorkItem.instance_key`.

    Groups come in the order of their first item, positions in a group in
    input order: the order :func:`run_trials` runs them in.
    """
    groups: Dict[Tuple, List[int]] = {}
    for index, item in enumerate(items):
        groups.setdefault(item.instance_key, []).append(index)
    return list(groups.values())


def run_trials(items: Sequence[WorkItem]) -> Iterator[Tuple[int, TrialRecord]]:
    """Run ``items``, building each trial's instance once for all its placers.

    Yields ``(position, record)`` as each cell finishes, in
    :func:`trial_groups` order.  Each group's scenario is built once; every
    cell but the last runs on a copy of that instance's provider (the
    copy's random stream, clock and VM books are the fresh build's), the
    last on the instance itself, so a record is the one :func:`run_trial`
    alone would produce.  The build's wall time is split evenly over the
    group's ``trial_wall_s``, so a group's records still add up to the
    time it took.  A build that raises fails every cell of its group with
    the same error, under the cell's own ``fail_fast``.  Each cell runs in
    one ``experiments.trial`` span naming its scenario, placer, trial and
    seed, so a trace maps every trial to the process that ran it.
    """
    for group in trial_groups(items):
        first = items[group[0]]
        started = time.perf_counter()
        template: Optional[ScenarioInstance] = None
        error: Optional[Exception] = None
        try:
            template = _build(first.scenario, first.seed, dict(first.params))
        except Exception as exc:  # noqa: BLE001 - charged to each cell below
            error = exc
        build_share = (time.perf_counter() - started) / len(group)
        for k, index in enumerate(group):
            item = items[index]
            with obs.span(
                "experiments.trial", scenario=item.scenario, placer=item.placer,
                trial=item.trial, seed=item.seed,
            ):
                if error is not None:
                    record = TrialRecord(
                        scenario=item.scenario, placer=item.placer,
                        trial=item.trial, seed=item.seed,
                    )
                    _capture(record, error, item.fail_fast)
                else:
                    instance = template
                    if k < len(group) - 1:
                        instance = replace(
                            template, provider=template.provider.copy()
                        )
                    record = run_trial(
                        item.scenario, item.placer, item.trial, item.base_seed,
                        dict(item.params), dict(item.placer_params),
                        fail_fast=item.fail_fast, instance=instance,
                    )
            record.trial_wall_s += build_share
            yield index, record


@dataclass(frozen=True)
class WorkItem:
    """One picklable grid cell for an execution backend.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so work
    items are hashable and two items describing the same cell compare equal
    regardless of mapping order.

    ``fail_fast`` rides along so pool children honour the runner's error
    policy, but it does not change *what* is computed — the store key
    deliberately excludes it.
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

        Mirrors the cache key's payload: two items with equal
        ``trial_key`` compute the identical record.  The pool backend
        names lost trials by it.
        """
        return (
            self.scenario, self.params, self.placer, self.placer_params,
            self.trial, self.seed,
        )

    @property
    def instance_key(self) -> Tuple:
        """Identity of the scenario instance this item runs on: its
        :attr:`trial_key` without the placer.  Items that share it share
        one build in :func:`run_trials`."""
        return (self.scenario, self.params, self.trial, self.seed)


def _collect_solver_stats(placer, record: TrialRecord) -> None:
    """Copy a solver-backed placer's per-app stats into the record.

    Placers that expose ``stats_history`` (the exact placer) report search
    nodes, status, and warm-start acceptance per placed application;
    everything else leaves the field ``None``.
    """
    history = getattr(placer, "stats_history", None)
    if history:
        record.solver_stats = {app_name: dict(stats) for app_name, stats in history}


def _run_session(
    instance: ScenarioInstance,
    placer_name: str,
    seed: int,
    record: TrialRecord,
    placer_params: Optional[Mapping[str, object]] = None,
) -> None:
    """Run the instance's applications through one placement-service
    session, with the other tenant's flows as its background.

    The per-application metric is admission-to-completion time; rejected
    applications (CPU-infeasible at their arrival) have no duration and
    are left out of the timing sums.  ``placement_wall_s`` is the service's
    measuring and placing, admissions included; the bytes come from the
    books of the applications the session ran.
    """
    # Local import: repro.service resolves placers through this package's
    # registry, so a module-level import would be circular.
    from repro.service.engine import PlacementService

    placer = resolve_placer(placer_name).create(seed, placer_params)
    settings = instance.service
    service = PlacementService(
        instance.provider,
        instance.cluster,
        placer,
        predictor=settings.predictor,
        ttl_s=settings.ttl_s,
        migrate=settings.migrate,
    )
    report = service.run_session(
        instance.apps, hours=settings.hours, background=instance.background
    )
    _collect_solver_stats(placer, record)
    record.placement_wall_s = report.placement_wall_s + report.admission_wall_s
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
    record.network_bytes, record.colocated_bytes = booked_bytes(
        service.last_apps.values()
    )
