"""Experiment runner: grid construction, cache lookup, dispatch, assembly.

The runner owns *what* to run — the scenario x placer x trial grid — and
delegates *how* to run it to one of the two backends of
:mod:`repro.experiments.backends`: ``inline`` (this process) or ``remote``
(leases to worker processes, local or on other machines).  Before
dispatching, it consults an optional persistent
:class:`~repro.experiments.cache.ResultStore`, so re-running a grown grid
only executes cells that are new (or whose code changed).  Trial execution
itself lives in :mod:`repro.experiments.trials`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import logging

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.backends import (
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    InlineBackend,
    RemoteBackend,
    create_backend,
)
from repro.experiments.cache import ResultStore
from repro.experiments.placers import resolve_placer
from repro.experiments.results import ExperimentResult, TrialRecord
from repro.experiments.scenarios import get_scenario
from repro.experiments.trials import (  # noqa: F401  (re-exported API)
    WorkItem,
    run_trial,
    trial_seed,
)

DEFAULT_PLACERS: Tuple[str, ...] = ("greedy", "ilp", "random", "round-robin")


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep grid: which scenarios, placers, and trials to run.

    Attributes:
        scenarios: registered scenario names to sweep.
        placers: registered placer names to compare.
        trials: trials per (scenario, placer) cell.
        base_seed: root seed the per-trial seeds derive from.
        baseline: placer the speedups are computed against; it is added to
            the grid automatically when missing.
        workers: worker-count hint for the backend; ``None`` sizes the pool
            to the grid (capped at the CPU count).
        backend: execution-backend name (``inline`` or ``remote``);
            ``None`` picks ``remote`` when ``workers != 1`` or
            ``endpoints`` are given, else ``inline``.
        cache_dir: directory of a persistent
            :class:`~repro.experiments.cache.ResultStore`; ``None`` disables
            the cross-run cache (within-run memoization always applies).
        scenario_params: per-scenario builder parameter overrides.
        placer_params: per-placer construction overrides (e.g. the ILP's
            per-cell solver budget: ``{"ilp": {"time_limit_s": 5.0}}``),
            validated by the placer's factory.
        fail_fast: abort the sweep on the first raising trial instead of
            capturing it into the record (keep-going is the default).
        max_retries: retry waves the ``remote`` backend runs for trials
            whose worker died (ignored by ``inline``, which cannot lose
            workers).
        endpoints: worker endpoints of the ``remote`` backend
            (``http://host:port`` for running workers, ``ssh://host:port``
            to launch them); empty, the backend spawns a localhost pool of
            ``workers`` processes.  Only valid with that backend.
        heartbeat_timeout_s: lease heartbeat deadline of the ``remote``
            backend (``None``: its 30 s default) — a leased worker that
            streams no record for this long is probed, its finished trials
            salvaged, and the rest re-enqueued; it therefore bounds one
            trial's wall time.  Only valid with that backend.

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
    max_retries: int = 2
    endpoints: Tuple[str, ...] = ()
    heartbeat_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ExperimentError("an experiment needs at least one scenario")
        if self.trials < 1:
            raise ExperimentError("trials must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ExperimentError("workers must be >= 1 (or None for auto)")
        if self.backend is not None:
            create_backend(self.backend)  # dry run: fail fast on typos
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if self.heartbeat_timeout_s is not None:
            if self.heartbeat_timeout_s <= 0:
                raise ExperimentError(
                    "heartbeat_timeout_s must be positive (or None)"
                )
            if self.effective_backend != "remote":
                raise ExperimentError(
                    "heartbeat_timeout_s only applies to the remote "
                    f"backend, not {self.effective_backend!r}"
                )
        if self.endpoints:
            if self.effective_backend != "remote":
                raise ExperimentError(
                    "endpoints only apply to the remote backend, not "
                    f"{self.effective_backend!r}"
                )
            object.__setattr__(
                self, "endpoints", tuple(str(spec) for spec in self.endpoints)
            )
            # Parse up front so a typo'd endpoint fails here, not after the
            # grid's cache pass inside the backend.
            from repro.experiments.worker import parse_endpoint

            for spec in self.endpoints:
                parse_endpoint(spec)
        # Canonicalise placer aliases up front through the registry facade
        # (frozen dataclass, hence object.__setattr__): every consumer
        # downstream — records, cache keys, summaries — then agrees on the
        # registry name, and unknown placers fail here with the full list.
        object.__setattr__(
            self,
            "placers",
            tuple(resolve_placer(name).name for name in self.placers),
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
            # Dry-run construction: factories validate their own parameter
            # names, so typos fail here instead of inside a worker.
            resolve_placer(name).create(0, params)
            self._check_json_scalars("placer_params", name, params)

    @staticmethod
    def _check_json_scalars(
        group: str, name: str, params: Mapping[str, object]
    ) -> None:
        for key, value in params.items():
            # JSON scalars only: anything richer would round-trip
            # differently through the lease wire format (tuple -> list)
            # and break the backends' bit-identical guarantee.
            if not isinstance(value, (type(None), bool, int, float, str)):
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
        """The backend name: explicit, else chosen from the inputs."""
        if self.backend is not None:
            return self.backend
        return "remote" if self.workers != 1 or self.endpoints else "inline"


@dataclass(frozen=True)
class RunStats:
    """How the last :meth:`ExperimentRunner.run` obtained its records.

    ``cells`` counts grid cells, ``unique_cells`` the distinct simulations
    among them, ``cache_hits`` the unique cells served by the persistent
    store, and ``executed`` the unique cells the backend actually ran.
    """

    backend: str
    cells: int
    unique_cells: int
    executed: int
    cache_hits: int

    def to_json_dict(self) -> dict:
        return {
            "backend": self.backend,
            "cells": self.cells,
            "unique_cells": self.unique_cells,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
        }


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

    def _cell_key(self, scenario: str, placer: str, trial: int) -> Tuple:
        """Within-run memoization key: everything that determines a trial.

        Two cells with the same ``(scenario, params, placer, placer_params,
        trial, seed)`` run the identical simulation, so repeated grid cells
        — e.g. a baseline listed twice, or duplicated scenario entries — are
        simulated once per run and their records reused.  The trial index
        stays in the key so distinct trials can never merge through a CRC32
        seed collision.  (The *persistent* key additionally embeds the code
        version; see :mod:`repro.experiments.cache`.)
        """
        params = self.config.scenario_params.get(scenario) or {}
        params_key = tuple(sorted((str(k), repr(v)) for k, v in params.items()))
        pparams = self.config.placer_params.get(placer) or {}
        pparams_key = tuple(sorted((str(k), repr(v)) for k, v in pparams.items()))
        seed = trial_seed(self.config.base_seed, scenario, trial)
        return (scenario, params_key, placer, pparams_key, trial, seed)

    def run(self) -> ExperimentResult:
        """Run every cell and return the aggregated result.

        Grid construction — dedupe repeated cells, then split the unique
        ones into cache hits and work for the backend; assembly — map the
        records back onto the full grid in a deterministic order.
        """
        config = self.config
        cells = self.cells()
        unique: Dict[Tuple, Tuple[str, str, int]] = {}
        for cell in cells:
            unique.setdefault(self._cell_key(*cell), cell)

        sweep = obs.span(
            "experiments.run",
            backend=config.effective_backend,
            cells=len(cells),
            unique_cells=len(unique),
        )
        with sweep:
            memo: Dict[Tuple, TrialRecord] = {}
            pending: List[Tuple[Tuple, WorkItem]] = []
            for key, cell in unique.items():
                item = self._work_item(*cell)
                cached = (
                    self.store.get(self._store_key(item))
                    if self.store is not None
                    else None
                )
                if cached is not None:
                    memo[key] = cached
                else:
                    pending.append((key, item))

            logger.info(
                "sweep: %d cell(s), %d unique, %d from store, %d to execute "
                "via %s backend",
                len(cells), len(unique), len(unique) - len(pending),
                len(pending), config.effective_backend,
            )
            if pending:
                backend = self.make_backend()
                with obs.span(
                    "experiments.map_trials",
                    backend=config.effective_backend,
                    trials=len(pending),
                ):
                    records = backend.map_trials([item for _, item in pending])
                for (key, item), record in zip(pending, records):
                    memo[key] = record
                    if self.store is not None:
                        self.store.put(self._store_key(item), record)
                if self.store is not None:
                    # Persist observed per-cell costs for the next sweep's
                    # cost-aware chunking (remote backend).  Remote workers
                    # already wrote these cells themselves (same keys, same
                    # bytes modulo wall clocks) — the re-put above is a benign
                    # last-writer-wins on a content-addressed cell.
                    self.store.flush_costs()
            sweep.set(executed=len(pending))

        self.last_stats = RunStats(
            backend=config.effective_backend,
            cells=len(cells),
            unique_cells=len(unique),
            executed=len(pending),
            cache_hits=len(unique) - len(pending),
        )
        _SWEEP_RUNS.inc()
        _SWEEP_CELLS.inc(len(cells))
        _SWEEP_EXECUTED.inc(len(pending))
        _SWEEP_CACHE_HITS.inc(len(unique) - len(pending))

        records_out: List[TrialRecord] = []
        seen: set = set()
        for cell in cells:
            key = self._cell_key(*cell)
            record = memo[key]
            if key in seen:
                # A reused record: hand out an independent copy.
                record = copy.deepcopy(record)
            seen.add(key)
            records_out.append(record)

        records_out.sort(key=lambda rec: (rec.scenario, rec.placer, rec.trial))
        return ExperimentResult(
            scenarios=list(config.scenarios),
            placers=list(config.effective_placers),
            trials=config.trials,
            base_seed=config.base_seed,
            baseline=config.baseline,
            records=records_out,
        )

    def make_backend(self):
        """The backend this sweep's pending trials run through.

        The remote backend's backoff jitter is seeded from ``base_seed``,
        so a sweep that loses workers retries on the same schedule every
        run, and its workers share the runner's store.
        """
        config = self.config
        if config.effective_backend == "inline":
            return InlineBackend()
        heartbeat = config.heartbeat_timeout_s
        return RemoteBackend(
            workers=config.workers,
            endpoints=config.endpoints,
            max_retries=config.max_retries,
            heartbeat_timeout_s=(
                DEFAULT_HEARTBEAT_TIMEOUT_S if heartbeat is None else heartbeat
            ),
            backoff_seed=config.base_seed,
            store_root=config.cache_dir,
        )

    def _store_key(self, item: WorkItem):
        assert self.store is not None
        return self.store.key_for(
            item.scenario, item.placer, item.trial, item.seed,
            params=dict(item.params),
            placer_params=dict(item.placer_params),
        )
