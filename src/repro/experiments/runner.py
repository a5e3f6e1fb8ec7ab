"""Experiment runner: grid construction, cache lookup, dispatch, assembly.

The runner owns *what* to run — the scenario x placer x trial grid — and
delegates *how* to run it to one of the two backends of
:mod:`repro.experiments.backends`: ``inline`` (this process) or ``pool``
(a local process pool).  Before dispatching, it consults an optional
persistent :class:`~repro.experiments.cache.ResultStore`, so re-running a
grown grid — or a sweep a dead pool worker cut short — only executes cells
that are new (or whose code changed).  Trial execution itself lives in
:mod:`repro.experiments.trials`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import logging

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.backends import create_backend
from repro.experiments.cache import ResultStore
from repro.experiments.placers import resolve_placer
from repro.experiments.results import ExperimentResult, TrialRecord
from repro.experiments.scenarios import get_scenario
from repro.experiments.trials import (  # noqa: F401  (re-exported API)
    JSON_SCALAR_TYPES,
    WorkItem,
    run_trial,
)

#: Choreo's two placers, then the paper's three §6.2 baselines.
DEFAULT_PLACERS: Tuple[str, ...] = (
    "greedy", "ilp", "random", "round-robin", "min-machines",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep grid: which scenarios, placers, and trials to run.

    Attributes:
        scenarios: registered scenario names to sweep, each once.
        placers: registered placer names to compare, each once (an alias
            and its registry name count as the same placer).
        trials: trials per (scenario, placer) cell.
        base_seed: root seed the per-trial seeds derive from.
        baseline: placer the speedups are computed against; it is added to
            the grid automatically when missing.
        workers: worker-count hint for the backend; ``None`` sizes the pool
            to the grid (capped at the CPU count).
        backend: execution-backend name (``inline`` or ``pool``); ``None``
            picks ``pool`` when ``workers != 1``, else ``inline``.
        cache_dir: directory of a persistent
            :class:`~repro.experiments.cache.ResultStore`; ``None`` disables
            the cross-run cache.
        scenario_params: per-scenario builder parameter overrides.
        placer_params: per-placer construction overrides (e.g. the ILP's
            per-cell solver budget: ``{"ilp": {"time_limit_s": 5.0}}``),
            validated by the placer's factory.
        fail_fast: abort the sweep on the first raising trial instead of
            capturing it into the record (keep-going is the default).

    Placer names (including the baseline) accept the registry's aliases
    (``choreo-optimal`` for ``ilp``) and are canonicalised on construction,
    so result files and cache keys always carry the registry name.
    """

    scenarios: Tuple[str, ...]
    placers: Tuple[str, ...] = DEFAULT_PLACERS
    trials: int = 3
    base_seed: int = 0
    baseline: str = "random"
    workers: Optional[int] = 1
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    scenario_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    placer_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ExperimentError("an experiment needs at least one scenario")
        if self.trials < 1:
            raise ExperimentError("trials must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ExperimentError("workers must be >= 1 (or None for auto)")
        if self.backend is not None:
            create_backend(self.backend)  # dry run: fail fast on typos
        # Canonicalise placer aliases up front through the registry facade
        # (frozen dataclass, hence object.__setattr__): every consumer
        # downstream — records, cache keys, summaries — then agrees on the
        # registry name, and unknown placers fail here with the full list.
        object.__setattr__(
            self,
            "placers",
            tuple(resolve_placer(name).name for name in self.placers),
        )
        # A repeated name would put the same cells in the grid twice and
        # count one trial twice in the summary.
        for group, names in (("scenario", self.scenarios), ("placer", self.placers)):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ExperimentError(
                    f"{group} {repeated[0]!r} is listed more than once "
                    "(an alias counts as its registry name)"
                )
        object.__setattr__(
            self, "baseline", resolve_placer(self.baseline).name
        )
        canonical_params: Dict[str, Mapping[str, object]] = {}
        for name, params in self.placer_params.items():
            canonical = resolve_placer(name).name
            if canonical in canonical_params:
                # An alias and its canonical name (or two aliases) both
                # carry params: merging could silently combine conflicting
                # overrides, so reject the ambiguity outright.
                raise ExperimentError(
                    f"placer_params given twice for {canonical!r} "
                    f"(via an alias); merge the entries"
                )
            canonical_params[canonical] = params
        object.__setattr__(self, "placer_params", canonical_params)
        for name in self.scenarios:
            get_scenario(name)
        for name, params in self.scenario_params.items():
            get_scenario(name).validate_params(params)
            self._check_json_scalars("scenario_params", name, params)
        for name, params in self.placer_params.items():
            # Scalars first, so a factory never sees a list; then dry-run
            # construction: factories validate their own parameter names,
            # so typos fail here instead of inside a worker.
            self._check_json_scalars("placer_params", name, params)
            resolve_placer(name).create(0, params)

    @staticmethod
    def _check_json_scalars(
        group: str, name: str, params: Mapping[str, object]
    ) -> None:
        for key, value in params.items():
            # JSON scalars only: the store keys a cell by its JSON form,
            # where anything richer would not round-trip (tuple -> list).
            if not isinstance(value, JSON_SCALAR_TYPES):
                raise ExperimentError(
                    f"{group}[{name!r}][{key!r}] is "
                    f"{type(value).__name__}; parameter values must be "
                    "JSON scalars (None/bool/int/float/str) so every "
                    "backend and the result store key them identically"
                )

    @property
    def effective_placers(self) -> Tuple[str, ...]:
        """The placer grid with the baseline guaranteed present."""
        if self.baseline in self.placers:
            return self.placers
        return self.placers + (self.baseline,)

    @property
    def effective_backend(self) -> str:
        """The backend name: explicit, else chosen from the worker count."""
        if self.backend is not None:
            return self.backend
        return "pool" if self.workers != 1 else "inline"


@dataclass(frozen=True)
class RunStats:
    """How the last :meth:`ExperimentRunner.run` obtained its records.

    ``cells`` counts grid cells, ``cache_hits`` the cells served by the
    persistent store, and ``executed`` the cells the backend actually ran.
    """

    backend: str
    cells: int
    executed: int
    cache_hits: int


logger = logging.getLogger("repro.experiments.runner")

#: Sweep counters (``obs.metrics.snapshot()`` under ``repro.sweep.*``).
_SWEEP_RUNS = obs.Counter("repro.sweep.runs")
_SWEEP_CELLS = obs.Counter("repro.sweep.cells")
_SWEEP_EXECUTED = obs.Counter("repro.sweep.executed")
_SWEEP_CACHE_HITS = obs.Counter("repro.sweep.cache_hits")


class ExperimentRunner:
    """Executes a sweep grid through a backend, reusing cached results.

    Args:
        config: the grid and execution settings.
        store: a ready :class:`ResultStore`; omitted, one is opened at
            ``config.cache_dir`` when set (no store, no cross-run caching).
    """

    def __init__(self, config: ExperimentConfig, store: Optional[ResultStore] = None):
        self.config = config
        if store is None and config.cache_dir:
            store = ResultStore(config.cache_dir)
        self.store = store
        self.last_stats: Optional[RunStats] = None

    def cells(self) -> List[Tuple[str, str, int]]:
        """The grid as ``(scenario, placer, trial)`` work items."""
        return [
            (scenario, placer, trial)
            for scenario in self.config.scenarios
            for placer in self.config.effective_placers
            for trial in range(self.config.trials)
        ]

    def _work_item(self, scenario: str, placer: str, trial: int) -> WorkItem:
        return WorkItem.make(
            scenario, placer, trial, self.config.base_seed,
            self.config.scenario_params.get(scenario),
            self.config.placer_params.get(placer),
            fail_fast=self.config.fail_fast,
        )

    def run(self) -> ExperimentResult:
        """Run every cell and return the aggregated result.

        Grid construction — split the cells into cache hits and work for
        the backend; assembly — sort the records into a deterministic
        order.  Every record the backend yields is stored, in one pack,
        before any error it raises (a dead pool worker, a ``fail_fast``
        trial) leaves this method, so a re-run executes only what is
        missing.
        """
        config = self.config
        cells = self.cells()
        sweep = obs.span(
            "experiments.run", backend=config.effective_backend, cells=len(cells)
        )
        with sweep:
            records: List[TrialRecord] = []
            pending: List[WorkItem] = []
            for cell in cells:
                item = self._work_item(*cell)
                cached = (
                    self.store.get(self._store_key(item))
                    if self.store is not None
                    else None
                )
                if cached is not None:
                    records.append(cached)
                else:
                    pending.append(item)

            logger.info(
                "sweep: %d cell(s), %d from store, %d to execute via %s backend",
                len(cells), len(cells) - len(pending), len(pending),
                config.effective_backend,
            )
            if pending:
                self._execute(pending, records)
            sweep.set(executed=len(pending))

        self.last_stats = RunStats(
            backend=config.effective_backend,
            cells=len(cells),
            executed=len(pending),
            cache_hits=len(cells) - len(pending),
        )
        _SWEEP_RUNS.inc()
        _SWEEP_CELLS.inc(len(cells))
        _SWEEP_EXECUTED.inc(len(pending))
        _SWEEP_CACHE_HITS.inc(len(cells) - len(pending))

        records.sort(key=lambda rec: (rec.scenario, rec.placer, rec.trial))
        return ExperimentResult(
            scenarios=list(config.scenarios),
            placers=list(config.effective_placers),
            trials=config.trials,
            base_seed=config.base_seed,
            baseline=config.baseline,
            records=records,
        )

    def _execute(self, pending: List[WorkItem], records: List[TrialRecord]) -> None:
        """Run ``pending`` through the backend, appending to ``records``.

        What the backend yielded is stored even when it then raises; a
        store that cannot be written (the store logs and counts it) must
        not cost the sweep its result.
        """
        config = self.config
        backend = create_backend(config.effective_backend, config.workers)
        done: List[Tuple[WorkItem, TrialRecord]] = []
        try:
            with obs.span(
                "experiments.map_trials",
                backend=config.effective_backend,
                trials=len(pending),
            ):
                for position, record in backend.map_trials(pending):
                    done.append((pending[position], record))
        finally:
            if self.store is not None and done:
                try:
                    self.store.put_many(
                        (self._store_key(item), record) for item, record in done
                    )
                except OSError:
                    pass
        records.extend(record for _, record in done)

    def _store_key(self, item: WorkItem):
        assert self.store is not None
        return self.store.key_for(
            item.scenario, item.placer, item.trial, item.seed,
            params=dict(item.params),
            placer_params=dict(item.placer_params),
        )
