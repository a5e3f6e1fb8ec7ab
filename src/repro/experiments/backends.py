"""Execution backends for experiment sweeps: how a batch of trials runs.

The runner owns *what* to run; a backend runs a batch of
:class:`~repro.experiments.trials.WorkItem` and yields ``(position,
record)`` pairs as trials finish (``map_trials``).  There are two,
addressed by name in configs and result files:

* ``inline`` — every trial in the current process: just
  :func:`~repro.experiments.trials.run_trials`;
* ``pool`` — a ``concurrent.futures`` process pool (``spawn`` start
  method), one task per :func:`~repro.experiments.trials.trial_groups`
  group, each child running the same ``run_trials`` over its group.

A pool child that dies (crash, OOM kill) breaks the pool: the backend
still yields every record a finished group returned, then raises an
:class:`~repro.errors.ExperimentError` naming the trials it lost.  The
runner stores what it collected before the error leaves it, so a re-run
with the same result store executes only the missing trials.  There is no
timeout: a hung trial hangs the sweep, as it does inline.

Given the same items, both backends produce the same records (modulo host
wall-clock timings) — the equivalence tests hold them to that.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.results import TrialRecord
from repro.experiments.trials import WorkItem, run_trials, trial_groups


def _resolve_workers(workers: Optional[int], n_items: int) -> int:
    """Pool size for a batch: the hint (else the CPU count), capped by it."""
    cap = workers if workers is not None else (os.cpu_count() or 1)
    return max(1, min(cap, n_items))


class InlineBackend:
    """Run every trial in the current process, one trial's placers after
    another on one build (:func:`~repro.experiments.trials.run_trials`)."""

    name = "inline"

    def map_trials(self, items: Sequence[WorkItem]) -> Iterator[Tuple[int, TrialRecord]]:
        return run_trials(items)


def _run_group(items: Sequence[WorkItem]) -> List[Tuple[int, TrialRecord]]:
    """One pool task: a trial group's records, keyed by position in it."""
    return list(run_trials(items))


class PoolBackend:
    """Run trial groups in a ``spawn`` process pool of ``workers`` children.

    The pool is sized by the hint (the CPU count when ``None``), capped
    at the number of groups: a task never splits a trial, so more
    children than trials would sit idle.  A ``fail_fast`` trial that
    raises ends the sweep with its own exception, as inline; tasks not
    yet started are cancelled.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers

    def map_trials(self, items: Sequence[WorkItem]) -> Iterator[Tuple[int, TrialRecord]]:
        groups = trial_groups(items)
        if not groups:
            return
        # Imported here, not at module level: ``import repro.experiments``
        # (every inline sweep, every benchmark workload) need not load them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            _resolve_workers(self.workers, len(groups)),
            mp_context=multiprocessing.get_context("spawn"),
        )
        try:
            futures = {
                pool.submit(_run_group, [items[i] for i in group]): group
                for group in groups
            }
            lost: List[int] = []
            for future in as_completed(futures):
                group = futures[future]
                try:
                    pairs = future.result()
                except BrokenProcessPool:
                    lost.extend(group)
                    continue
                for local, record in pairs:
                    yield group[local], record
        finally:
            pool.shutdown(cancel_futures=True)
        if lost:
            lost.sort()
            named = ", ".join(str(items[i].trial_key) for i in lost[:3])
            more = f" and {len(lost) - 3} more" if len(lost) > 3 else ""
            raise ExperimentError(
                f"a pool worker process died; {len(lost)} of {len(items)} "
                f"trial(s) missing: {named}{more}; a re-run with the same "
                "result store (--cache-dir) executes only those"
            )


def backend_names() -> List[str]:
    """The execution-backend names configs and result files carry, sorted."""
    return ["inline", "pool"]


def create_backend(name: str, workers: Optional[int] = None):
    """Instantiate a backend by name; ``workers`` is the pool-size hint
    (``inline`` has no pool and ignores it).  An unknown name raises
    :class:`ExperimentError`."""
    if name == "inline":
        return InlineBackend()
    if name == "pool":
        return PoolBackend(workers)
    raise ExperimentError(
        f"unknown backend {name!r}; registered: {backend_names()}"
    )
