"""Execution backends for experiment sweeps: how a batch of trials runs.

The runner owns *what* to run; a backend maps a batch of
:class:`~repro.experiments.trials.WorkItem` to
:class:`~repro.experiments.results.TrialRecord` in input order
(``map_trials``).  There are two, addressed by name in configs, the CLI
and result files:

* ``inline`` — run every trial in the current process (deterministic
  debugging default);
* ``remote`` — the one way a trial leaves the process: lease chunks to
  long-running HTTP workers (:mod:`repro.experiments.worker`), a localhost
  pool the backend spawns itself or machines named by endpoint, all
  populating one shared :class:`~repro.experiments.cache.ResultStore`.

Remote workers can *die* (crash, OOM-kill, network partition), so that
backend carries the fault tolerance: workers stream records as JSON Lines
— one line per completed trial, flushed — and the scheduler salvages
whatever a dead or hung worker managed to finish, then retries only the
missing trials in a fresh wave.  A hung worker misses its lease's
heartbeat deadline and loses the lease; a pool the backend spawned itself
is repaired (lost workers killed and replaced) before each retry wave.
Because every trial is a deterministic function of its work item, a record
salvaged from a crashed worker is bit-identical to one from a healthy
worker, and a sweep that loses workers mid-flight still produces the exact
result a clean run would.

Both backends return records in the order of their input items, and given
the same items produce the same records (modulo host wall-clock timings) —
the equivalence tests hold them to that.
"""

from __future__ import annotations

import itertools
import logging
import os
import random
import subprocess
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence

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

#: Default number of retry waves for trials whose worker died, beyond the
#: initial wave.
DEFAULT_MAX_RETRIES = 2


def _resolve_workers(workers: Optional[int], n_items: int) -> int:
    """Pool size for a batch: the hint (else the CPU count), capped by it."""
    cap = workers if workers is not None else (os.cpu_count() or 1)
    return max(1, min(cap, n_items))


# ---------------------------------------------------------------------------
# inline
# ---------------------------------------------------------------------------
class InlineBackend:
    """Run every trial in the current process, one after another."""

    name = "inline"

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        return [execute_work_item(item) for item in items]


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

#: Retry wave ``k`` waits ``BACKOFF_BASE_S * 2**(k-1)``, jittered by a
#: seeded factor in [0.5, 1.5).
BACKOFF_BASE_S = 0.25

#: A lease running this many times longer than the slowest finished lease
#: of its wave, while a worker sits idle, is a straggler.
STRAGGLER_FACTOR = 4.0

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
        self.trial_error: Optional[str] = None  # a fail_fast trial raised
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
    processes (capped at the batch size), so ``--jobs N`` works out of the
    box and tests need no ssh.

    Fault model:

    * each chunk is a *lease* with a heartbeat deadline: a worker that
      streams no record for ``heartbeat_timeout_s`` is probed via
      ``/health`` — unreachable means the machine died, reachable-but-
      stalled means the lease hung; either way the lease is revoked and
      its streamed prefix salvaged (garbled tails skipped).  This is the
      only hang budget, so it also bounds *one trial's* wall time: raise
      it for trials that legitimately run longer;
    * only missing trials are re-enqueued, in at most ``max_retries``
      further waves, separated by seeded exponential backoff — seeded, so
      a kill-then-salvage-then-retry sweep is reproducible run to run;
    * a pool the backend spawned is a pool it repairs: before a retry
      wave every own worker judged dead or hung is killed if still
      running and replaced by a fresh one.  Given endpoints are not ours
      to kill: dead ones are skipped, hung-but-answering ones used only
      when nothing healthier is alive;
    * a persistent straggler (running :data:`STRAGGLER_FACTOR` times
      longer than the slowest finished lease while a worker sits idle)
      gets its remaining trials re-dispatched to the idle worker; first
      finisher wins and duplicate records are discarded by trial key
      (benign: trials are deterministic, duplicates are identical);
    * a ``fail_fast`` trial that raises stops the sweep at once with an
      :class:`ExperimentError` carrying the exception text — no retry
      wave, the trial would raise again;
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
        backoff_seed: int = 0,
        store_root: Optional[str] = None,
    ):
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if heartbeat_timeout_s <= 0:
            raise ExperimentError("heartbeat_timeout_s must be positive")
        self.workers = workers
        self.endpoints = tuple(endpoints)
        self.max_retries = max_retries
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.backoff_seed = backoff_seed
        self.store_root = store_root
        self.last_fabric_stats: Dict[str, object] = {}

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        if not items:
            return []
        # Imported where a lease is opened, not at module level: the worker
        # module loads http.server and http.client, which every ``import
        # repro.experiments`` would otherwise pay for without leasing.
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
                clients = pool.clients()
            return self._run(items, clients, pool)
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
    def _run(
        self, items: Sequence[WorkItem], clients: List, pool
    ) -> List[TrialRecord]:
        """Schedule ``items`` over ``clients``.

        ``pool`` is the :class:`~repro.experiments.worker.LocalWorkerPool`
        behind the clients when the backend spawned them itself (and may
        therefore repair it), ``None`` for given endpoints.
        """
        sweep = obs.span(
            "fabric.map_trials", trials=len(items), workers=len(clients)
        )
        with sweep:
            result = self._run_leases(items, clients, pool)
            stats = self.last_fabric_stats
            sweep.set(
                leases=stats.get("leases", 0),
                retry_waves=stats.get("retry_waves", 0),
                salvaged=stats.get("salvaged_records", 0),
            )
        return result

    def _run_leases(
        self, items: Sequence[WorkItem], clients: List, pool
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
                delay = BACKOFF_BASE_S * (2 ** (wave - 1)) * (0.5 + rng.random())
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
                    cost_table, lease_seq, pool,
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
        pool,
    ) -> List[str]:
        """Lease the missing items out, monitor, salvage; returns failures."""
        if wave:
            self._probe_and_repair(clients, state, pool)
        available = self._available_workers(state)
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

    def _probe_and_repair(
        self, clients: List, state: List[Dict[str, object]], pool
    ) -> None:
        """Before a retry wave: find the dead, replace what is ours.

        Candidates are probed up front so a worker that crashed in the
        previous wave is never leased to again.  Own workers (``pool``
        set) that are dead or tainted are then killed and replaced in
        place; a failed respawn leaves the survivors to carry the wave.
        """
        for worker, st in enumerate(state):
            if st["alive"] and clients[worker].health() is None:
                st["alive"] = False
        if pool is None:
            return
        lost = [
            w for w, st in enumerate(state) if not st["alive"] or st["tainted"]
        ]
        if not lost:
            return
        for worker in lost:
            state[worker]["alive"] = False  # respawn kills what still runs
        try:
            pool.respawn(lost)
        except (ExperimentError, OSError) as exc:
            logger.info(
                "fabric: could not replace %d lost worker(s): %s", len(lost), exc
            )
            return
        fresh = pool.clients()
        for worker in lost:
            clients[worker] = fresh[worker]
            state[worker].update(alive=True, tainted=False)
        logger.info("fabric: replaced %d lost worker(s) of the own pool", len(lost))

    def _available_workers(self, state: List[Dict[str, object]]) -> List[int]:
        """Workers to lease to, healthy first, tainted-but-alive as fallback.

        A *tainted* worker (one that hung a lease but still answers
        ``/health``) is used only when nothing untainted is alive — its
        HTTP server accepts fresh lease threads even while the stuck one
        sleeps.
        """
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
                        if data.get("done"):
                            lease.completed = True
                            continue
                        if "error" in data:
                            try:
                                item = items[lease.indices[int(data["index"])]]
                                trial = f"trial {item.trial_key}"
                            except (KeyError, TypeError, ValueError, IndexError):
                                trial = "a trial"
                            lease.trial_error = lease.failure = (
                                f"{trial} of {lease.lease_id} on "
                                f"{client.address} raised under fail_fast: "
                                f"{data['error']}"
                            )
                            return
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
        the idle-fraction stats.  A ``fail_fast`` trial that raised ends
        the sweep here: it is deterministic, a retry would raise again.
        """
        while True:
            raised = next((ls for ls in leases if ls.trial_error), None)
            if raised is not None:
                for lease in leases:
                    lease.cancel.set()
                raise ExperimentError(raised.trial_error)
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
        threshold = max(MIN_STRAGGLER_S, STRAGGLER_FACTOR * max(finished_ok))
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


# ---------------------------------------------------------------------------
# construction by name
# ---------------------------------------------------------------------------
def backend_names() -> List[str]:
    """The execution-backend names configs and the CLI accept, sorted."""
    return ["inline", "remote"]


def create_backend(name: str, workers: Optional[int] = None, **options):
    """Instantiate a backend by name.

    ``workers`` is the pool-size hint (``inline`` has no pool and ignores
    it); ``options`` are :class:`RemoteBackend`'s keyword arguments.  An
    unknown name or keyword raises :class:`ExperimentError`.
    """
    if name == "inline":
        if options:
            raise ExperimentError(
                f"backend 'inline' takes no options; got {sorted(options)}"
            )
        return InlineBackend()
    if name == "remote":
        try:
            return RemoteBackend(workers=workers, **options)
        except TypeError as exc:
            raise ExperimentError(f"backend 'remote': {exc}") from exc
    raise ExperimentError(
        f"unknown backend {name!r}; registered: {backend_names()}"
    )
