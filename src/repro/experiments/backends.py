"""Pluggable execution backends for experiment sweeps.

The runner used to hard-code its execution strategy (run inline, or fan out
over a ``ProcessPoolExecutor``).  This module turns that strategy into a
seam: an :class:`ExecutionBackend` maps :class:`~repro.experiments.trials.WorkItem`
batches to :class:`~repro.experiments.results.TrialRecord` lists, and
backends are registered by name so configs, the CLI, and result files can
address them as data.

Four backends ship in-tree:

* ``inline`` — run every trial in the current process (deterministic
  debugging default);
* ``process`` — fan out over a ``ProcessPoolExecutor`` (the strategy
  formerly hard-coded in the runner);
* ``subprocess-pool`` — split the batch into chunks and spawn one fresh
  ``python -m repro.experiments.backends`` worker process per chunk,
  exchanging JSON files.  Nothing in the protocol assumes a shared
  interpreter (or even a shared machine): the worker reads named work items
  and writes plain-JSON records;
* ``remote`` — lease chunks to long-running HTTP workers
  (:mod:`repro.experiments.worker`), potentially on other machines, all
  populating one shared :class:`~repro.experiments.cache.ResultStore`.

The subprocess pool and the remote fabric are the backends whose workers
can *die* (crash, OOM-kill, network partition), so they carry the fault
tolerance: workers stream records as JSON Lines — one line per completed
trial, flushed — and the parent salvages whatever a dead or hung worker
managed to finish, then retries only the missing trials in a fresh wave.
Hung subprocess workers are detected with a per-chunk timeout and killed;
hung remote workers miss their lease's heartbeat deadline and lose the
lease.  Because every trial is a deterministic function of its work item,
a record salvaged from a crashed worker is bit-identical to one from a
healthy worker, and a sweep that loses workers mid-flight still produces
the exact result a clean run would.

Every backend must return records in the order of its input items, and a
backend given the same items must produce the same records (modulo host
wall-clock timings) — the equivalence tests hold all of them to that.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from concurrent import futures
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.results import TrialRecord
from repro.experiments.trials import WorkItem, execute_work_item

logger = logging.getLogger("repro.experiments.fabric")

#: Fabric counters (``obs.metrics.snapshot()`` under ``repro.fabric.*``).
#: They accumulate across every ``map_trials`` call in the process, while
#: :attr:`RemoteBackend.last_fabric_stats` keeps the per-sweep view.
_FABRIC_LEASES = obs.Counter("repro.fabric.leases")
_FABRIC_SALVAGED = obs.Counter("repro.fabric.salvaged_records")
_FABRIC_RETRY_WAVES = obs.Counter("repro.fabric.retry_waves")
_FABRIC_RETRIED = obs.Counter("repro.fabric.retried_trials")
_FABRIC_DUPLICATES = obs.Counter("repro.fabric.duplicates_discarded")
_FABRIC_STRAGGLERS = obs.Counter("repro.fabric.stragglers_redispatched")
_FABRIC_DEAD = obs.Counter("repro.fabric.workers_presumed_dead")
_FABRIC_HUNG = obs.Counter("repro.fabric.leases_hung")
_FABRIC_IDLE = obs.Gauge("repro.fabric.max_worker_idle_fraction")

#: Wire-format schema the subprocess worker speaks.  v2 replaced the single
#: output JSON document with JSON Lines (header, then one record per line,
#: flushed as produced) so a killed worker leaves a salvageable prefix.
WORKER_SCHEMA = "repro.experiments/worker/v2"

DEFAULT_BACKEND = "inline"

#: Default number of retry waves the subprocess pool runs for trials whose
#: worker died, beyond the initial wave.
DEFAULT_MAX_RETRIES = 2

#: Environment variables of the worker chaos hook (test-only): when both
#: are set, workers that win the marker-file race in
#: ``REPRO_WORKER_CHAOS_DIR`` misbehave per ``REPRO_WORKER_CHAOS_MODE``
#: (``crash``: exit hard after the first record; ``hang``: sleep forever
#: after the first record; ``slow``: drag every subsequent trial by
#: :data:`CHAOS_SLOW_S`).  The mode may be a comma-separated list — e.g.
#: ``crash,hang`` arms one worker per mode, in order — and each mode fires
#: exactly once per chaos dir, so chaos tests are deterministic in *what*
#: is lost even though process scheduling is not.
CHAOS_DIR_ENV = "REPRO_WORKER_CHAOS_DIR"
CHAOS_MODE_ENV = "REPRO_WORKER_CHAOS_MODE"

#: Exit status of a chaos-crashed worker (distinct from argparse's 2).
CHAOS_EXIT_STATUS = 17

#: Per-trial drag of a chaos-slowed worker (straggler injection).
CHAOS_SLOW_S = 0.4

_CHAOS_MODES = ("crash", "hang", "slow")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes picklable work items; how and where is the backend's business."""

    name: str

    def submit(self, item: WorkItem) -> TrialRecord:
        """Run a single work item."""
        ...

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        """Run a batch; the result order matches the input order."""
        ...


@dataclass(frozen=True)
class BackendSpec:
    """A registered execution backend: metadata plus a factory.

    The factory takes the worker-count hint (``None`` = size to the batch,
    capped at the CPU count) and a backend-specific options mapping, and
    returns a ready :class:`ExecutionBackend`.  Backends without options
    must reject a non-empty mapping so typos fail loudly.
    """

    name: str
    description: str
    factory: Callable[[Optional[int], Mapping[str, object]], ExecutionBackend]


_BACKENDS: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register a backend spec; duplicate names raise :class:`ExperimentError`."""
    if spec.name in _BACKENDS:
        raise ExperimentError(f"backend {spec.name!r} is already registered")
    _BACKENDS[spec.name] = spec
    return spec


def get_backend(name: str) -> BackendSpec:
    """Look up a backend spec by name."""
    try:
        return _BACKENDS[name]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from exc


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(_BACKENDS)


def create_backend(
    name: str,
    workers: Optional[int] = None,
    options: Optional[Mapping[str, object]] = None,
) -> ExecutionBackend:
    """Instantiate a registered backend with a worker hint and options."""
    return get_backend(name).factory(workers, dict(options or {}))


def _reject_options(name: str, options: Mapping[str, object]) -> None:
    if options:
        raise ExperimentError(
            f"backend {name!r} accepts no options; got {sorted(options)}"
        )


def _resolve_workers(workers: Optional[int], n_items: int) -> int:
    if workers is not None:
        return max(1, workers)
    return max(1, min(n_items, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# inline
# ---------------------------------------------------------------------------
class InlineBackend:
    """Run every trial in the current process, one after another."""

    name = "inline"

    def submit(self, item: WorkItem) -> TrialRecord:
        return execute_work_item(item)

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        return [execute_work_item(item) for item in items]


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------
class ProcessPoolBackend:
    """Fan trials out over a ``concurrent.futures.ProcessPoolExecutor``."""

    name = "process"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers

    def submit(self, item: WorkItem) -> TrialRecord:
        return self.map_trials([item])[0]

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        if not items:
            return []
        workers = _resolve_workers(self.workers, len(items))
        if workers == 1:
            return InlineBackend().map_trials(items)
        records: List[Optional[TrialRecord]] = [None] * len(items)
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {
                pool.submit(execute_work_item, item): index
                for index, item in enumerate(items)
            }
            for future in futures.as_completed(pending):
                records[pending[future]] = future.result()
        return records  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# subprocess-pool
# ---------------------------------------------------------------------------
def _worker_env() -> Dict[str, str]:
    """Child env with the parent's ``repro`` package importable.

    Test runs import ``repro`` from a source checkout via ``sys.path`` (not
    the environment), so the parent's import location is prepended to the
    child's ``PYTHONPATH`` explicitly.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return env


def _split_chunks(items: Sequence, n_chunks: int) -> List[List[int]]:
    """Round-robin item indices into ``n_chunks`` non-empty chunks."""
    chunks: List[List[int]] = [[] for _ in range(min(n_chunks, len(items)))]
    for index in range(len(items)):
        chunks[index % len(chunks)].append(index)
    return chunks


def _salvage_records(out_path: Path) -> Dict[int, TrialRecord]:
    """Recover completed records from a worker's (possibly partial) output.

    The worker writes JSON Lines — a schema header, then one
    ``{"index": local_index, "record": {...}}`` line per completed trial,
    flushed immediately — so a worker killed mid-chunk leaves a valid
    prefix.  A truncated or garbled tail line (the worker died mid-write)
    is skipped, as is the whole file when the header is missing or from a
    different schema version.
    """
    try:
        lines = out_path.read_text().splitlines()
    except OSError:
        return {}
    if not lines:
        return {}
    try:
        header = json.loads(lines[0])
    except ValueError:
        return {}
    if not isinstance(header, dict) or header.get("schema") != WORKER_SCHEMA:
        return {}
    salvaged: Dict[int, TrialRecord] = {}
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            record = TrialRecord(**data["record"])
            index = int(data["index"])
        except (ValueError, KeyError, TypeError):
            continue  # truncated/garbled tail: everything before it stands
        salvaged[index] = record
    return salvaged


class SubprocessPoolBackend:
    """Spawn one fresh worker process per chunk of the batch.

    Unlike ``process``, workers share nothing with the parent but a JSON
    file pair, so the same protocol can dispatch chunks to remote machines.
    The price is a cold interpreter start per chunk, which amortises over
    chunk size — exactly the trade a multi-machine pool makes.

    Worker loss is tolerated, not fatal: each worker streams completed
    records (JSON Lines, flushed per trial), so when one crashes or hangs
    the parent salvages its finished prefix, kills it if needed, and
    re-runs only the missing trials in up to ``max_retries`` further waves.
    Because trials are deterministic in their work items, the assembled
    result is bit-identical to a run without failures.

    Args:
        workers: worker-count hint (``None`` sizes to the batch, capped at
            the CPU count).
        max_retries: retry waves for missing trials after the initial wave;
            only when a wave ends with trials still missing *and* the
            budget is spent does the sweep fail.
        chunk_timeout_s: wall-clock budget per worker process; a worker
            still running after it is presumed hung and killed (its
            completed prefix is salvaged).  ``None`` waits forever.
    """

    name = "subprocess-pool"

    def __init__(
        self,
        workers: Optional[int] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        chunk_timeout_s: Optional[float] = None,
    ):
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise ExperimentError("chunk_timeout_s must be positive (or None)")
        self.workers = workers
        self.max_retries = max_retries
        self.chunk_timeout_s = chunk_timeout_s

    def submit(self, item: WorkItem) -> TrialRecord:
        return self.map_trials([item])[0]

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        if not items:
            return []
        records: Dict[int, TrialRecord] = {}
        missing = list(range(len(items)))
        failures: List[str] = []
        for wave in range(self.max_retries + 1):
            failures = self._run_wave(items, missing, records, wave)
            for failure in failures:
                logger.info("subprocess-pool: %s", failure)
            missing = [i for i in range(len(items)) if i not in records]
            if not missing:
                break
        if missing:
            detail = "; ".join(failures[:4]) if failures else "no worker output"
            raise ExperimentError(
                f"subprocess-pool gave up on {len(missing)} trial(s) after "
                f"{self.max_retries + 1} wave(s): {detail}"
            )
        return [records[i] for i in range(len(items))]

    def _run_wave(
        self,
        items: Sequence[WorkItem],
        missing: Sequence[int],
        records: Dict[int, TrialRecord],
        wave: int,
    ) -> List[str]:
        """Run one wave of workers over the missing items.

        Salvages whatever each worker completed into ``records`` and
        returns the failure descriptions of workers that died, hung, or
        returned short — the caller decides whether another wave runs.
        """
        chunks = _split_chunks(missing, _resolve_workers(self.workers, len(missing)))
        failures: List[str] = []
        with tempfile.TemporaryDirectory(prefix="repro-subproc-") as tmp:
            env = _worker_env()
            procs: List[subprocess.Popen] = []
            out_paths: List[Path] = []
            for chunk_no, local_indices in enumerate(chunks):
                in_path = Path(tmp) / f"wave{wave}.chunk{chunk_no}.in.json"
                out_path = Path(tmp) / f"wave{wave}.chunk{chunk_no}.out.jsonl"
                in_path.write_text(
                    json.dumps(
                        {
                            "schema": WORKER_SCHEMA,
                            "items": [
                                items[missing[i]].to_json_dict()
                                for i in local_indices
                            ],
                        }
                    )
                )
                procs.append(
                    subprocess.Popen(
                        [
                            sys.executable, "-m", "repro.experiments.backends",
                            str(in_path), str(out_path),
                        ],
                        env=env,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        text=True,
                    )
                )
                out_paths.append(out_path)
            # Reap every worker before judging any of them: raising early
            # would orphan still-running siblings and delete the tempdir
            # from under them.  A worker that outlives its chunk budget is
            # presumed hung: kill it and salvage what it finished.
            outcomes: List[str] = []
            for proc in procs:
                try:
                    _, stderr = proc.communicate(timeout=self.chunk_timeout_s)
                    outcomes.append(
                        "ok" if proc.returncode == 0
                        else f"exited with status {proc.returncode}: "
                             f"{(stderr or '').strip()[-500:]}"
                    )
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    outcomes.append(
                        f"hung past the {self.chunk_timeout_s:.0f}s chunk "
                        "timeout and was killed"
                    )
            for chunk_no, local_indices in enumerate(chunks):
                salvaged = _salvage_records(out_paths[chunk_no])
                for local, record in salvaged.items():
                    if 0 <= local < len(local_indices):
                        records[missing[local_indices[local]]] = record
                short = len(salvaged) < len(local_indices)
                if outcomes[chunk_no] != "ok" or short:
                    failures.append(
                        f"wave {wave} worker {chunk_no} "
                        f"({len(salvaged)}/{len(local_indices)} trial(s) "
                        f"salvaged): {outcomes[chunk_no]}"
                    )
        return failures


# ---------------------------------------------------------------------------
# remote: cost-aware chunking
# ---------------------------------------------------------------------------
#: Static per-cell cost priors (relative wall clock) used before the shared
#: store has observed anything.  ``ilp`` is the measured ratio of mean
#: ``trial_wall_s`` against ``random`` on the §6 ILP grid (five scenarios,
#: two trials, base seeds 0-3: 9.0 ms vs 2.5 ms); it was 100 while the
#: placer called a MILP solver, which handed one worker a single cell.
COST_PRIORS: Dict[str, float] = {
    "ilp": 3.5,
    "greedy": 3.0,
    "random": 1.0,
    "round-robin": 1.0,
}

#: Prior for placers the table does not name (between random and greedy).
_DEFAULT_COST_PRIOR = 2.0


def item_weight(
    item: WorkItem,
    cost_table: Optional[Mapping[tuple, float]] = None,
) -> float:
    """Expected cost of one work item, in whatever unit is available.

    Observed mean wall seconds for the item's ``(scenario, placer)`` cell
    when the shared store has seen that cell
    (:meth:`~repro.experiments.cache.ResultStore.cost_table`), the placer's
    static prior otherwise — so even the very first mixed-grid run chunks
    non-uniformly.
    """
    if cost_table:
        observed = cost_table.get(item.cost_key)
        if observed:
            return max(float(observed), 1e-6)
    return COST_PRIORS.get(item.placer, _DEFAULT_COST_PRIOR)


def _weighted_chunks(
    weights: Sequence[float], n_chunks: int
) -> List[List[int]]:
    """Split positions into ``n_chunks`` chunks balanced by weight (LPT).

    Longest-processing-time-first: heaviest positions are placed first,
    each onto the currently lightest chunk, so the grid's cheap tail never
    queues behind its one expensive cell.  Deterministic (ties break by
    position), every returned chunk is non-empty, and positions inside a
    chunk keep their input order.
    """
    n_chunks = max(1, min(n_chunks, len(weights)))
    loads = [0.0] * n_chunks
    chunks: List[List[int]] = [[] for _ in range(n_chunks)]
    order = sorted(range(len(weights)), key=lambda pos: (-weights[pos], pos))
    for pos in order:
        target = min(
            range(n_chunks), key=lambda c: (loads[c], len(chunks[c]), c)
        )
        chunks[target].append(pos)
        loads[target] += weights[pos]
    for chunk in chunks:
        chunk.sort()
    return [chunk for chunk in chunks if chunk]


# ---------------------------------------------------------------------------
# remote: lease-based scheduler
# ---------------------------------------------------------------------------
DEFAULT_HEARTBEAT_TIMEOUT_S = 30.0
DEFAULT_BACKOFF_BASE_S = 0.25
DEFAULT_STRAGGLER_FACTOR = 4.0

#: A lease younger than this is never judged a straggler, whatever its
#: siblings did: millisecond chunks would otherwise duplicate constantly.
MIN_STRAGGLER_S = 1.0


class _Lease:
    """One chunk leased to one worker, with its receive-side state.

    ``records`` maps *global* item indices to records as they stream in;
    the reader thread is the only writer, the monitor only reads (both
    under the GIL), so no lock is needed.
    """

    def __init__(self, lease_id: str, worker: int, indices: List[int]):
        self.lease_id = lease_id
        self.worker = worker  # index into the scheduler's client list
        self.indices = indices  # global item indices, input order
        self.records: Dict[int, TrialRecord] = {}
        self.started = time.monotonic()
        self.last_progress = self.started
        self.finished_at: Optional[float] = None
        self.completed = False  # worker sent its done trailer
        self.failure: Optional[str] = None
        self.cancel = threading.Event()
        self.thread: Optional[threading.Thread] = None
        self.redispatched = False
        self.duplicate_of: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def missing(self) -> List[int]:
        return [i for i in self.indices if i not in self.records]


class RemoteBackend:
    """Lease chunks to long-running HTTP workers — the multi-machine fabric.

    Endpoints given, the backend talks to those workers
    (``http://host:port`` running already, ``ssh://[user@]host:port``
    launched first); none given, it spawns a localhost pool of ``workers``
    processes, so ``--backend remote`` works out of the box and tests need
    no ssh.

    Fault model (the subprocess pool's semantics carried across machine
    boundaries):

    * each chunk is a *lease* with a heartbeat deadline: a worker that
      streams no record for ``heartbeat_timeout_s`` is probed via
      ``/health`` — unreachable means the machine died, reachable-but-
      stalled means the lease hung; either way the lease is revoked and
      its streamed prefix salvaged (garbled tails skipped);
    * only missing trials are re-enqueued, in at most ``max_retries``
      further waves, separated by seeded exponential backoff — seeded, so
      a kill-then-salvage-then-retry sweep is reproducible run to run;
    * a persistent straggler (running ``straggler_factor`` times longer
      than the slowest finished lease while a worker sits idle) gets its
      remaining trials re-dispatched to the idle worker; first finisher
      wins and duplicate records are discarded by trial key (benign:
      trials are deterministic, duplicates are identical);
    * chunks are weighed by observed per-cell cost from the shared
      store's cost table (placer priors before any observation), so
      heterogeneous grids saturate all workers instead of stranding them
      behind one chunk of expensive cells.

    ``store_root`` (the runner passes its ``cache_dir``) is both the cost
    table's source and the ``--cache-dir`` handed to self-spawned workers,
    so every worker writes the one shared store.

    ``last_fabric_stats`` exposes lease/salvage/retry/duplicate counters
    and per-worker idle fractions after each :meth:`map_trials`.
    """

    name = "remote"

    def __init__(
        self,
        workers: Optional[int] = None,
        endpoints: Sequence[str] = (),
        max_retries: int = DEFAULT_MAX_RETRIES,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_seed: int = 0,
        straggler_factor: float = DEFAULT_STRAGGLER_FACTOR,
        store_root: Optional[str] = None,
    ):
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if heartbeat_timeout_s <= 0:
            raise ExperimentError("heartbeat_timeout_s must be positive")
        if backoff_base_s < 0:
            raise ExperimentError("backoff_base_s must be >= 0")
        if straggler_factor <= 1.0:
            raise ExperimentError("straggler_factor must be > 1")
        self.workers = workers
        self.endpoints = tuple(endpoints)
        self.max_retries = max_retries
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_seed = backoff_seed
        self.straggler_factor = straggler_factor
        self.store_root = store_root
        self.last_fabric_stats: Dict[str, object] = {}

    def submit(self, item: WorkItem) -> TrialRecord:
        return self.map_trials([item])[0]

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        if not items:
            return []
        # Imported here, not at module level: worker.py imports this module
        # for the shared wire schema and chaos hook.
        from repro.experiments import worker as worker_mod

        pool: Optional[worker_mod.LocalWorkerPool] = None
        launched: List[subprocess.Popen] = []
        try:
            clients: List[worker_mod.WorkerClient] = []
            if self.endpoints:
                for spec in self.endpoints:
                    endpoint = worker_mod.parse_endpoint(spec)
                    if endpoint.scheme == "ssh":
                        launched.append(
                            worker_mod.launch_ssh_worker(
                                endpoint, cache_dir=self.store_root
                            )
                        )
                    clients.append(
                        worker_mod.WorkerClient(endpoint.host, endpoint.port)
                    )
            else:
                pool = worker_mod.spawn_local_workers(
                    _resolve_workers(self.workers, len(items)),
                    cache_dir=self.store_root,
                )
                clients = [
                    worker_mod.WorkerClient(host, port)
                    for host, port in pool.addresses
                ]
            return self._run(items, clients)
        finally:
            if pool is not None:
                pool.close()
            for proc in launched:
                if proc.poll() is None:
                    proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    # ------------------------------------------------------------- scheduling
    def _run(self, items: Sequence[WorkItem], clients: List) -> List[TrialRecord]:
        sweep = obs.span(
            "fabric.map_trials", trials=len(items), workers=len(clients)
        )
        with sweep:
            result = self._run_leases(items, clients)
            stats = self.last_fabric_stats
            sweep.set(
                leases=stats.get("leases", 0),
                retry_waves=stats.get("retry_waves", 0),
                salvaged=stats.get("salvaged_records", 0),
            )
        return result

    def _run_leases(
        self, items: Sequence[WorkItem], clients: List
    ) -> List[TrialRecord]:
        cost_table = self._cost_table()
        stats: Dict[str, object] = {
            "workers": len(clients),
            "leases": 0,
            "retry_waves": 0,
            "retried_trials": 0,
            "salvaged_records": 0,
            "duplicates_discarded": 0,
            "stragglers_redispatched": 0,
            "backoff_delays_s": [],
            "cost_source": "observed" if cost_table else "priors",
        }
        self.last_fabric_stats = stats
        # One deterministic jitter stream per sweep: same seed, same missing
        # sets => identical backoff delays, so chaos runs reproduce exactly.
        rng = random.Random(self.backoff_seed)
        state = [
            {"alive": True, "tainted": False, "busy_s": 0.0} for _ in clients
        ]
        lease_seq = itertools.count()
        records: Dict[int, TrialRecord] = {}
        failures: List[str] = []
        started = time.monotonic()
        for wave in range(self.max_retries + 1):
            missing = [i for i in range(len(items)) if i not in records]
            if not missing:
                break
            if wave:
                delay = (
                    self.backoff_base_s * (2 ** (wave - 1))
                    * (0.5 + rng.random())
                )
                stats["backoff_delays_s"].append(round(delay, 6))
                logger.info(
                    "fabric: retry wave %d for %d missing trial(s) after "
                    "%.3fs backoff", wave, len(missing), delay,
                )
                time.sleep(delay)
                stats["retry_waves"] += 1
                stats["retried_trials"] += len(missing)
                _FABRIC_RETRY_WAVES.inc()
                _FABRIC_RETRIED.inc(len(missing))
            failures.extend(
                self._run_wave(
                    items, missing, records, wave, clients, state, stats,
                    cost_table, lease_seq,
                )
            )
        missing = [i for i in range(len(items)) if i not in records]
        if missing:
            detail = "; ".join(failures[-4:]) if failures else "no worker output"
            raise ExperimentError(
                f"remote backend gave up on {len(missing)} trial(s) after "
                f"{self.max_retries + 1} wave(s): {detail}"
            )
        makespan = time.monotonic() - started
        stats["makespan_s"] = round(makespan, 4)
        if makespan > 0:
            idle = [
                max(0.0, 1.0 - st["busy_s"] / makespan) for st in state
            ]
            stats["max_worker_idle_fraction"] = round(max(idle), 4)
            _FABRIC_IDLE.set(stats["max_worker_idle_fraction"])
            # Total worker-busy time over makespan: how many workers the
            # scheduler kept fed *concurrently*.  Unlike wall-clock speedup
            # this measures the fabric, not the host — it stays ~fleet-sized
            # on an oversubscribed single core, and collapses toward 1 when
            # bad chunking strands workers.
            stats["scheduled_parallelism"] = round(
                sum(st["busy_s"] for st in state) / makespan, 3
            )
        stats["failures"] = failures
        logger.info(
            "fabric: %d trial(s) over %d worker(s) in %d lease(s), "
            "%d retry wave(s), %d salvaged, %d duplicate(s) discarded, "
            "makespan %.2fs",
            len(items), len(clients), stats["leases"], stats["retry_waves"],
            stats["salvaged_records"], stats["duplicates_discarded"],
            stats["makespan_s"],
        )
        return [records[i] for i in range(len(items))]

    def _run_wave(
        self,
        items: Sequence[WorkItem],
        missing: Sequence[int],
        records: Dict[int, TrialRecord],
        wave: int,
        clients: List,
        state: List[Dict[str, object]],
        stats: Dict[str, object],
        cost_table: Mapping,
        lease_seq,
    ) -> List[str]:
        """Lease the missing items out, monitor, salvage; returns failures."""
        available = self._available_workers(clients, state, probe=wave > 0)
        if not available:
            raise ExperimentError(
                "remote backend has no live workers left to lease to"
            )
        weights = [item_weight(items[i], cost_table) for i in missing]
        chunks = _weighted_chunks(weights, len(available))
        leases: List[_Lease] = []
        for chunk_no, positions in enumerate(chunks):
            leases.append(
                self._dispatch(
                    items, [missing[p] for p in positions],
                    available[chunk_no], clients, stats, lease_seq,
                )
            )
        self._monitor(items, leases, clients, state, stats, lease_seq)
        failures: List[str] = []
        for lease in leases:
            merged = 0
            for index in lease.indices:
                record = lease.records.get(index)
                if record is None:
                    continue
                if index in records:
                    # A straggler's re-dispatched trial finished twice:
                    # first finisher won, this copy is identical (the trial
                    # key determines the record) and is discarded.
                    stats["duplicates_discarded"] += 1
                    _FABRIC_DUPLICATES.inc()
                else:
                    records[index] = record
                    merged += 1
            if lease.failure is None and lease.missing:
                lease.failure = "worker returned short"
            if lease.failure:
                stats["salvaged_records"] += merged
                _FABRIC_SALVAGED.inc(merged)
                failure = (
                    f"wave {wave} {lease.lease_id} on "
                    f"{clients[lease.worker].address} "
                    f"({merged}/{len(lease.indices)} trial(s) salvaged): "
                    f"{lease.failure}"
                )
                logger.info("fabric: %s", failure)
                failures.append(failure)
        return failures

    def _available_workers(
        self, clients: List, state: List[Dict[str, object]], probe: bool
    ) -> List[int]:
        """Workers to lease to, healthy first, tainted-but-alive as fallback.

        Retry waves probe candidates up front so a worker that crashed in
        the previous wave is never leased to again; a *tainted* worker
        (one that hung a lease but still answers ``/health``) is used only
        when nothing untainted is alive — its HTTP server accepts fresh
        lease threads even while the stuck one sleeps.
        """
        if probe:
            for worker, st in enumerate(state):
                if st["alive"] and clients[worker].health() is None:
                    st["alive"] = False
        healthy = [
            w for w, st in enumerate(state)
            if st["alive"] and not st["tainted"]
        ]
        if healthy:
            return healthy
        return [w for w, st in enumerate(state) if st["alive"]]

    def _dispatch(
        self,
        items: Sequence[WorkItem],
        indices: List[int],
        worker: int,
        clients: List,
        stats: Dict[str, object],
        lease_seq,
        duplicate_of: Optional[str] = None,
    ) -> _Lease:
        lease = _Lease(f"lease-{next(lease_seq)}", worker, indices)
        lease.duplicate_of = duplicate_of
        stats["leases"] += 1
        _FABRIC_LEASES.inc()
        client = clients[worker]
        logger.debug(
            "fabric: %s -> %s (%d trial(s)%s)",
            lease.lease_id, client.address, len(indices),
            f", duplicate of {duplicate_of}" if duplicate_of else "",
        )
        obs.point(
            "fabric.lease", lease=lease.lease_id, trials=len(indices),
            worker=client.address,
        )
        payload = [items[i].to_json_dict() for i in indices]

        def run() -> None:
            stream = None
            try:
                stream = client.open_lease(lease.lease_id, payload)
                while not lease.cancel.is_set():
                    events = stream.poll(0.25)
                    for data in events:
                        if "schema" in data:
                            if data["schema"] != WORKER_SCHEMA:
                                lease.failure = (
                                    f"worker speaks {data['schema']!r}, "
                                    f"not {WORKER_SCHEMA!r}"
                                )
                                lease.cancel.set()
                            continue
                        if data.get("done"):
                            lease.completed = True
                            continue
                        try:
                            local = int(data["index"])
                            record = TrialRecord(**data["record"])
                        except (KeyError, TypeError, ValueError):
                            continue  # garbled line: neighbours stand
                        if 0 <= local < len(lease.indices):
                            lease.records[lease.indices[local]] = record
                            lease.last_progress = time.monotonic()
                    if lease.completed or stream.eof:
                        break
            except Exception as exc:  # noqa: BLE001 - any failure fails the lease
                if lease.failure is None:
                    lease.failure = f"{type(exc).__name__}: {exc}"
            finally:
                if stream is not None:
                    stream.close()
                if (
                    not lease.completed
                    and lease.failure is None
                    and not lease.cancel.is_set()
                ):
                    lease.failure = (
                        "connection ended before the done trailer "
                        "(worker died mid-chunk)"
                    )
                lease.finished_at = time.monotonic()

        lease.thread = threading.Thread(
            target=run, name=lease.lease_id, daemon=True
        )
        lease.thread.start()
        return lease

    def _monitor(
        self,
        items: Sequence[WorkItem],
        leases: List[_Lease],
        clients: List,
        state: List[Dict[str, object]],
        stats: Dict[str, object],
        lease_seq,
    ) -> None:
        """Watch a wave's leases: heartbeats, death, stragglers.

        Returns once every lease (including straggler duplicates it
        dispatched) has finished; worker busy time is accounted here for
        the idle-fraction stats.
        """
        while True:
            running = [lease for lease in leases if not lease.done]
            if not running:
                break
            now = time.monotonic()
            for lease in running:
                if now - lease.last_progress <= self.heartbeat_timeout_s:
                    continue
                # Heartbeat missed: machine dead, or lease merely stuck?
                health = clients[lease.worker].health(
                    timeout_s=min(self.heartbeat_timeout_s, 5.0)
                )
                if health is None:
                    state[lease.worker]["alive"] = False
                    lease.failure = (
                        f"no record for {self.heartbeat_timeout_s:.1f}s and "
                        "/health unreachable (worker presumed dead)"
                    )
                    _FABRIC_DEAD.inc()
                    logger.info(
                        "fabric: %s on %s missed its heartbeat; /health "
                        "probe failed — worker presumed dead, lease revoked",
                        lease.lease_id, clients[lease.worker].address,
                    )
                else:
                    state[lease.worker]["tainted"] = True
                    lease.failure = (
                        f"no record for {self.heartbeat_timeout_s:.1f}s "
                        "though /health answers (lease hung)"
                    )
                    _FABRIC_HUNG.inc()
                    logger.info(
                        "fabric: %s on %s missed its heartbeat but /health "
                        "answers — lease hung, worker tainted",
                        lease.lease_id, clients[lease.worker].address,
                    )
                lease.cancel.set()
                lease.last_progress = now  # one verdict per deadline
            self._redispatch_stragglers(
                items, leases, clients, state, stats, lease_seq
            )
            time.sleep(0.02)
        for lease in leases:
            if lease.thread is not None:
                lease.thread.join(timeout=5.0)
            end = lease.finished_at or time.monotonic()
            state[lease.worker]["busy_s"] += end - lease.started

    def _redispatch_stragglers(
        self,
        items: Sequence[WorkItem],
        leases: List[_Lease],
        clients: List,
        state: List[Dict[str, object]],
        stats: Dict[str, object],
        lease_seq,
    ) -> None:
        finished_ok = [
            lease.finished_at - lease.started
            for lease in leases
            if lease.done and lease.failure is None
        ]
        if not finished_ok:
            return
        threshold = max(
            MIN_STRAGGLER_S, self.straggler_factor * max(finished_ok)
        )
        busy = {lease.worker for lease in leases if not lease.done}
        idle = [
            worker
            for worker, st in enumerate(state)
            if st["alive"] and not st["tainted"] and worker not in busy
        ]
        now = time.monotonic()
        for lease in leases:
            if not idle:
                break
            if (
                lease.done
                or lease.redispatched
                or lease.duplicate_of is not None
                or lease.failure is not None
                or now - lease.started < threshold
            ):
                continue
            remaining = lease.missing
            if not remaining:
                continue
            # The lease is not revoked — the straggler may yet finish;
            # whichever copy of each trial lands first wins.
            duplicate = self._dispatch(
                items, remaining, idle.pop(0), clients, stats, lease_seq,
                duplicate_of=lease.lease_id,
            )
            leases.append(duplicate)
            lease.redispatched = True
            stats["stragglers_redispatched"] += 1
            _FABRIC_STRAGGLERS.inc()
            logger.info(
                "fabric: %s is straggling (%.1fs, threshold %.1fs); "
                "re-dispatched its %d remaining trial(s) as %s",
                lease.lease_id, now - lease.started, threshold,
                len(remaining), duplicate.lease_id,
            )

    def _cost_table(self) -> Dict:
        if not self.store_root:
            return {}
        from repro.experiments.cache import ResultStore

        try:
            return ResultStore(self.store_root).cost_table()
        except OSError:
            return {}


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of one subprocess-pool worker.

    ``python -m repro.experiments.backends IN.json OUT.jsonl`` reads a chunk
    of work items from ``IN.json``, runs them inline, and streams records to
    ``OUT.jsonl`` as JSON Lines — a schema header line, then one
    ``{"index": local_index, "record": {...}}`` line per completed trial,
    flushed immediately so the parent can salvage a dead worker's prefix.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(
            "usage: python -m repro.experiments.backends IN.json OUT.jsonl",
            file=sys.stderr,
        )
        return 2
    in_path, out_path = Path(argv[0]), Path(argv[1])
    payload = json.loads(in_path.read_text())
    if payload.get("schema") != WORKER_SCHEMA:
        print(f"unexpected work-item schema {payload.get('schema')!r}", file=sys.stderr)
        return 2
    items = [WorkItem.from_json_dict(data) for data in payload["items"]]
    chaos_mode = _arm_chaos()
    with open(out_path, "w") as out:
        out.write(json.dumps({"schema": WORKER_SCHEMA}) + "\n")
        out.flush()
        for local_index, item in enumerate(items):
            record = execute_work_item(item)
            out.write(
                json.dumps({"index": local_index, "record": asdict(record)})
                + "\n"
            )
            out.flush()
            if chaos_mode == "crash":
                os._exit(CHAOS_EXIT_STATUS)
            elif chaos_mode == "hang":
                time.sleep(3600)
            elif chaos_mode == "slow":
                time.sleep(CHAOS_SLOW_S)
    return 0


def _arm_chaos() -> Optional[str]:
    """Decide whether *this* worker (or lease) misbehaves (see chaos env docs).

    Each marker file is created atomically, so across however many workers
    share the chaos dir exactly one arms itself *per configured mode* —
    ``crash,hang`` breaks two distinct workers; the rest (and every
    retry-wave worker) run clean.  The first mode keeps the historical
    marker name ``chaos-fired`` so callers can assert it fired.
    """
    chaos_dir = os.environ.get(CHAOS_DIR_ENV)
    spec = os.environ.get(CHAOS_MODE_ENV) or ""
    modes = [mode.strip() for mode in spec.split(",") if mode.strip()]
    if not chaos_dir or not modes or any(m not in _CHAOS_MODES for m in modes):
        return None
    for k, mode in enumerate(modes):
        marker = "chaos-fired" if k == 0 else f"chaos-fired-{k}"
        try:
            fd = os.open(
                os.path.join(chaos_dir, marker),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
            os.close(fd)
        except (FileExistsError, OSError):
            continue
        return mode
    return None


# ---------------------------------------------------------------------------
# registry entries
# ---------------------------------------------------------------------------
register_backend(
    BackendSpec(
        name="inline",
        description="Run every trial in the current process (deterministic default).",
        factory=lambda workers, options: (
            _reject_options("inline", options), InlineBackend()
        )[1],
    )
)
register_backend(
    BackendSpec(
        name="process",
        description="Fan trials out over a local ProcessPoolExecutor.",
        factory=lambda workers, options: (
            _reject_options("process", options), ProcessPoolBackend(workers=workers)
        )[1],
    )
)


def _make_subprocess_pool(
    workers: Optional[int], options: Mapping[str, object]
) -> SubprocessPoolBackend:
    known = {"max_retries", "chunk_timeout_s"}
    unknown = set(options) - known
    if unknown:
        raise ExperimentError(
            f"backend 'subprocess-pool' got unknown option(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    try:
        max_retries = int(options.get("max_retries", DEFAULT_MAX_RETRIES))
        timeout = options.get("chunk_timeout_s")
        chunk_timeout_s = None if timeout is None else float(timeout)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"bad subprocess-pool option: {exc}") from exc
    return SubprocessPoolBackend(
        workers=workers, max_retries=max_retries, chunk_timeout_s=chunk_timeout_s
    )


register_backend(
    BackendSpec(
        name="subprocess-pool",
        description=(
            "Spawn a fresh worker process per chunk, exchanging JSON; "
            "salvages and retries work from crashed or hung workers "
            "(the stepping stone to multi-machine pools)."
        ),
        factory=_make_subprocess_pool,
    )
)


def _make_remote(
    workers: Optional[int], options: Mapping[str, object]
) -> RemoteBackend:
    known = {
        "endpoints", "max_retries", "heartbeat_timeout_s", "backoff_base_s",
        "backoff_seed", "straggler_factor", "store_root",
    }
    unknown = set(options) - known
    if unknown:
        raise ExperimentError(
            f"backend 'remote' got unknown option(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    endpoints = options.get("endpoints") or ()
    if isinstance(endpoints, str):
        endpoints = [spec for spec in endpoints.split(",") if spec.strip()]
    try:
        return RemoteBackend(
            workers=workers,
            endpoints=[str(spec) for spec in endpoints],
            max_retries=int(options.get("max_retries", DEFAULT_MAX_RETRIES)),
            heartbeat_timeout_s=float(
                options.get("heartbeat_timeout_s", DEFAULT_HEARTBEAT_TIMEOUT_S)
            ),
            backoff_base_s=float(
                options.get("backoff_base_s", DEFAULT_BACKOFF_BASE_S)
            ),
            backoff_seed=int(options.get("backoff_seed", 0)),
            straggler_factor=float(
                options.get("straggler_factor", DEFAULT_STRAGGLER_FACTOR)
            ),
            store_root=(
                str(options["store_root"]) if options.get("store_root") else None
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"bad remote option: {exc}") from exc


register_backend(
    BackendSpec(
        name="remote",
        description=(
            "Lease chunks to long-running HTTP workers (localhost pool by "
            "default, http:// or ssh:// endpoints for other machines); "
            "heartbeat-monitored leases salvage and retry work from dead, "
            "hung, or straggling workers, all writing one shared store."
        ),
        factory=_make_remote,
    )
)


if __name__ == "__main__":
    sys.exit(worker_main())
