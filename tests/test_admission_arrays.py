"""Oracle tests for the admission path on one rate matrix (PR 15).

The TTL cache, the forecaster and Algorithm 1 were rewritten from per-pair
Python (dicts of tuples, lists of floats, candidate tuple lists) to NumPy
expressions over one dense rate matrix.  The claim is *bit-identical*, so
the scalar code they replaced lives on here, moved verbatim from the parent
commit, as the reference: every comparison below is ``==`` — never
``approx`` — and covers dict order, exception types and messages.
"""

import math
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro import obs
from repro.cloud.provider import VMFlow
from repro.core.measurement.orchestrator import NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import (
    ClusterState,
    Machine,
    Placement,
    Placer,
    validate_placement,
)
from repro.core.placement.greedy import GreedyPlacer, cluster_vms_by_rate_profile
from repro.core.rate_model import ConnectionLoad, effective_rate
from repro.errors import MeasurementError, PlacementError, ReproError, ServiceError
from repro.service.cache import DEGRADED_FLOOR_BPS, CacheStats, MeasurementCache
from repro.service.forecast import (
    HISTORY_PREDICTORS,
    RateForecaster,
    _mean,
)
from repro.workloads.application import Application, Task, TrafficMatrix
from repro.workloads.predictability import (
    combined_predictor,
    previous_hour_predictor,
    time_of_day_predictor,
)

_EPS = 1e-9


# ---------------------------------------------------------------------------
# References: the scalar code of the parent commit, verbatim
# ---------------------------------------------------------------------------
class ScalarGreedyPlacer(Placer):
    """Algorithm 1 as tuple-list enumeration (the parent's ``GreedyPlacer``
    with the rate table off: every candidate's rate through
    :func:`effective_rate`).  ``cluster_threshold=None`` is the flat search."""

    name = "scalar-greedy"

    def __init__(
        self,
        model: str = "hose",
        prefer_colocation: bool = True,
        cluster_threshold: Optional[int] = None,
        n_clusters: Optional[int] = None,
    ):
        self.model = model
        self.prefer_colocation = prefer_colocation
        self.cluster_threshold = cluster_threshold
        self.n_clusters = n_clusters

    def place(self, app, cluster, profile=None):
        return self._place(app, cluster, profile)

    def _place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        if profile is None:
            raise PlacementError("the greedy placer needs a network profile")
        self.check_feasible(app, cluster)

        machines = cluster.machine_names()
        for machine in machines:
            if machine not in profile.vms:
                raise PlacementError(
                    f"machine {machine!r} is not covered by the network profile"
                )

        assignments: Dict[str, str] = {}
        free_cpu = {m: cluster.available_cpu(m) for m in machines}
        load = ConnectionLoad()

        def rate_of(src_machine: str, dst_machine: str) -> float:
            return effective_rate(
                profile, src_machine, dst_machine, load, model=self.model
            )

        def record_connection(src_machine: str, dst_machine: str) -> None:
            load.add(src_machine, dst_machine)

        def cpu_fits(task_name: str, machine: str, pending_same: float = 0.0) -> bool:
            return app.cpu_demand(task_name) + pending_same <= free_cpu[machine] + _EPS

        def assign(task_name: str, machine: str) -> None:
            assignments[task_name] = machine
            free_cpu[machine] -= app.cpu_demand(task_name)

        hierarchy: Optional[Tuple[List[str], List[List[str]]]] = None
        if self.cluster_threshold is not None and len(machines) >= self.cluster_threshold:
            k = (
                int(math.ceil(math.sqrt(len(machines))))
                if self.n_clusters is None
                else self.n_clusters
            )
            hierarchy = cluster_vms_by_rate_profile(profile, machines, k)

        # Line 2: walk transfers in descending order of volume.
        for src_task, dst_task, _volume in app.transfers():
            src_placed = assignments.get(src_task)
            dst_placed = assignments.get(dst_task)

            if src_placed is not None and dst_placed is not None:
                # Both endpoints already pinned; just account for the
                # connection so later rate estimates see it.
                record_connection(src_placed, dst_placed)
                continue

            if hierarchy is not None:
                best = self._pick_hierarchical(
                    hierarchy, app, src_task, dst_task,
                    src_placed, dst_placed, cpu_fits, rate_of,
                )
            else:
                candidates = self._candidate_paths(
                    app, src_task, dst_task, src_placed, dst_placed,
                    machines, cpu_fits,
                )
                best = (
                    self._pick_best(candidates, rate_of) if candidates else None
                )
            if best is None:
                raise PlacementError(
                    f"no CPU-feasible machine pair for transfer "
                    f"{src_task!r} -> {dst_task!r} of application {app.name!r}"
                )
            src_machine, dst_machine = best
            if src_placed is None:
                assign(src_task, src_machine)
            if dst_placed is None and dst_task not in assignments:
                assign(dst_task, dst_machine)
            record_connection(src_machine, dst_machine)

        # Tasks with no transfers at all: spread over the freest machines.
        for task in app.task_names:
            if task in assignments:
                continue
            feasible = [m for m in machines if cpu_fits(task, m)]
            if not feasible:
                raise PlacementError(
                    f"no machine has CPU for task {task!r} of application {app.name!r}"
                )
            choice = max(feasible, key=lambda m: (free_cpu[m], m))
            assign(task, choice)

        placement = Placement(app_name=app.name, assignments=assignments)
        validate_placement(placement, app, cluster)
        return placement

    # ------------------------------------------------------------ internals
    def _candidate_paths(
        self,
        app: Application,
        src_task: str,
        dst_task: str,
        src_placed: Optional[str],
        dst_placed: Optional[str],
        machines: List[str],
        cpu_fits,
    ) -> List[Tuple[str, str]]:
        """Lines 3-11: enumerate CPU-feasible candidate machine pairs."""
        candidates: List[Tuple[str, str]] = []
        if src_placed is not None:
            # Source pinned: paths k -> N for all machines N (line 4); only
            # the unplaced destination task consumes CPU, whether or not it
            # colocates with the source.
            for dst_machine in machines:
                if cpu_fits(dst_task, dst_machine):
                    candidates.append((src_placed, dst_machine))
        elif dst_placed is not None:
            # Destination pinned: paths M -> l for all machines M (line 6).
            for src_machine in machines:
                if cpu_fits(src_task, src_machine):
                    candidates.append((src_machine, dst_placed))
        else:
            # Neither pinned: all machine pairs, including same-machine
            # placements (lines 7-8).  Colocation must fit *both* tasks'
            # CPU demand on the one machine.
            for src_machine in machines:
                for dst_machine in machines:
                    if src_machine == dst_machine:
                        both_fit = cpu_fits(
                            src_task, src_machine,
                            pending_same=app.cpu_demand(dst_task),
                        )
                        if both_fit:
                            candidates.append((src_machine, dst_machine))
                    elif cpu_fits(src_task, src_machine) and cpu_fits(dst_task, dst_machine):
                        candidates.append((src_machine, dst_machine))
        return candidates

    def _pick_best(
        self,
        candidates: List[Tuple[str, str]],
        rate_of,
    ) -> Tuple[str, str]:
        """Lines 12-14: choose the candidate path with the highest rate."""
        def sort_key(pair: Tuple[str, str]):
            src, dst = pair
            rate = rate_of(src, dst)
            colocated = 1 if (self.prefer_colocation and src == dst) else 0
            # Highest rate first, then colocation, then deterministic names.
            return (-rate, -colocated, src, dst)

        return min(candidates, key=sort_key)

    def _pick_hierarchical(
        self,
        hierarchy: Tuple[List[str], List[List[str]]],
        app: Application,
        src_task: str,
        dst_task: str,
        src_placed: Optional[str],
        dst_placed: Optional[str],
        cpu_fits,
        rate_of,
    ) -> Optional[Tuple[str, str]]:
        """Two-stage candidate search: representatives first, then members.

        Stage 1 ranks cluster-representative pairs by the flat selection
        key; stage 2 enumerates only the winning pair's cluster members
        with the flat feasibility rules.  Ranked representative pairs are
        walked until one yields a feasible candidate, so across the walk
        the reachable candidate set is exactly the flat one — ``None``
        comes back only when the flat enumeration would be empty too.
        """
        leaders, clusters = hierarchy

        def sort_key(pair: Tuple[str, str]):
            src, dst = pair
            rate = rate_of(src, dst)
            colocated = 1 if (self.prefer_colocation and src == dst) else 0
            return (-rate, -colocated, src, dst)

        if src_placed is not None:
            # Source pinned (line 4): rank destination clusters by the rep
            # path from the pinned machine, then place within.
            ranked = sorted(
                range(len(leaders)),
                key=lambda i: sort_key((src_placed, leaders[i])),
            )
            for i in ranked:
                stage2 = [
                    (src_placed, machine)
                    for machine in clusters[i]
                    if cpu_fits(dst_task, machine)
                ]
                if stage2:
                    return self._pick_best(stage2, rate_of)
            return None

        if dst_placed is not None:
            # Destination pinned (line 6), symmetric.
            ranked = sorted(
                range(len(leaders)),
                key=lambda i: sort_key((leaders[i], dst_placed)),
            )
            for i in ranked:
                stage2 = [
                    (machine, dst_placed)
                    for machine in clusters[i]
                    if cpu_fits(src_task, machine)
                ]
                if stage2:
                    return self._pick_best(stage2, rate_of)
            return None

        # Neither pinned (lines 7-8): rank ordered representative pairs,
        # including same-representative (whose stage 2 holds the
        # colocation candidates).
        pairs = [
            (i, j)
            for i in range(len(leaders))
            for j in range(len(leaders))
        ]
        pairs.sort(key=lambda ij: sort_key((leaders[ij[0]], leaders[ij[1]])))
        for i, j in pairs:
            stage2: List[Tuple[str, str]] = []
            if i == j:
                for src_machine in clusters[i]:
                    for dst_machine in clusters[j]:
                        if src_machine == dst_machine:
                            both_fit = cpu_fits(
                                src_task, src_machine,
                                pending_same=app.cpu_demand(dst_task),
                            )
                            if both_fit:
                                stage2.append((src_machine, dst_machine))
                        elif cpu_fits(src_task, src_machine) and cpu_fits(
                            dst_task, dst_machine
                        ):
                            stage2.append((src_machine, dst_machine))
            else:
                src_ok = [m for m in clusters[i] if cpu_fits(src_task, m)]
                if src_ok:
                    dst_ok = [m for m in clusters[j] if cpu_fits(dst_task, m)]
                    stage2 = [(s, d) for s in src_ok for d in dst_ok]
            if stage2:
                return self._pick_best(stage2, rate_of)
        return None


_PREDICTOR_FNS = {
    "previous-hour": previous_hour_predictor,
    "time-of-day": time_of_day_predictor,
    "combined": combined_predictor,
}


class ListRateForecaster:
    """The parent commit's list-backed forecaster, verbatim (the oracle)."""

    def __init__(self, predictor: str = "combined"):
        if predictor not in HISTORY_PREDICTORS:
            raise ServiceError(
                f"forecaster predictor must be one of {list(HISTORY_PREDICTORS)}, "
                f"got {predictor!r}"
            )
        self.predictor = predictor
        self._series: Dict[Tuple[str, str], List[float]] = {}
        self._recorded_through = -1

    @property
    def epochs_recorded(self) -> int:
        """How many completed epochs the history covers."""
        return self._recorded_through + 1

    def record_epoch(self, epoch: int, profile: NetworkProfile) -> None:
        """Store the rates observed during ``epoch`` (monotonic, gap-free).

        Args:
            epoch: the *completed* epoch index the observations belong to.
            profile: the cache's merged view at the end of that epoch.
        """
        if epoch != self._recorded_through + 1:
            raise ServiceError(
                f"epochs must be recorded in order; expected "
                f"{self._recorded_through + 1}, got {epoch}"
            )
        for pair, rate in profile.rates_bps.items():
            series = self._series.setdefault(pair, [])
            while len(series) < epoch:
                # Pair first observed mid-session: backfill with its first
                # observation so predictor indices line up with epochs.
                series.append(rate)
            series.append(rate)
        self._recorded_through = epoch

    def forecast_pair(self, pair: Tuple[str, str], epoch: int) -> Optional[float]:
        """Forecast one pair's rate for ``epoch`` (``None`` without history)."""
        series = self._series.get(pair)
        if not series:
            return None
        history = series[: min(epoch, len(series))]
        if not history:
            return None
        if self.predictor == "stale":
            return history[0]
        predicted = _PREDICTOR_FNS[self.predictor](history, len(history))
        return predicted if predicted is not None else history[-1]

    def forecast_profile(
        self,
        current: NetworkProfile,
        epoch: int,
    ) -> NetworkProfile:
        """The profile the placer should see for placements during ``epoch``.

        Every pair of ``current`` is replaced by its forecast; pairs with no
        recorded history yet (epoch 0, or a freshly added VM) keep the
        measured value, so the degenerate first-epoch case reduces to the
        classic measure-then-place flow.
        """
        rates: Dict[Tuple[str, str], float] = {}
        for pair, measured in current.rates_bps.items():
            predicted = self.forecast_pair(pair, epoch)
            rates[pair] = max(predicted, 1.0) if predicted is not None else measured
        return NetworkProfile(
            vms=list(current.vms),
            rates_bps=rates,
            intra_vm_rate_bps=current.intra_vm_rate_bps,
            sharing_model=current.sharing_model,
            measured_at=current.measured_at,
            measurement_duration_s=current.measurement_duration_s,
        )


class DictMeasurementCache:
    """The parent commit's dict-backed TTL cache, verbatim (the oracle)."""

    def __init__(
        self,
        measurer: NetworkMeasurer,
        vms: Sequence[str],
        ttl_s: float = 3600.0,
    ):
        if ttl_s <= 0:
            raise ServiceError("ttl_s must be positive")
        if len(vms) < 2:
            raise ServiceError("the measurement cache needs at least two VMs")
        self.measurer = measurer
        self.vms = list(vms)
        self.ttl_s = ttl_s
        self._rates: Dict[Tuple[str, str], float] = {}
        self._measured_at: Dict[Tuple[str, str], float] = {}
        self._campaigns = obs.Counter("repro.measure.campaigns")
        self._pairs_measured = obs.Counter("repro.measure.pairs_measured")
        self._pairs_reused = obs.Counter("repro.measure.pairs_reused")
        self._pairs_degraded = obs.Counter("repro.measure.pairs_degraded")
        self._measurement_time = obs.Counter("repro.measure.time_s")

    @property
    def stats(self) -> CacheStats:
        """This cache's counters as a :class:`CacheStats` view."""
        return CacheStats(
            campaigns=self._campaigns.count,
            pairs_measured=self._pairs_measured.count,
            pairs_reused=self._pairs_reused.count,
            pairs_degraded=self._pairs_degraded.count,
            measurement_time_s=self._measurement_time.value,
        )

    # -------------------------------------------------------------- queries
    def mesh_pairs(self) -> List[Tuple[str, str]]:
        """Every ordered pair of the covered mesh."""
        return [(s, d) for s in self.vms for d in self.vms if s != d]

    def stale_pairs(self, now: float) -> List[Tuple[str, str]]:
        """Pairs never measured or older than the TTL at ``now``.

        The comparison is strict: a pair stamped *exactly* ``ttl_s`` ago is
        still fresh — it goes stale the instant after.
        """
        return [
            pair
            for pair in self.mesh_pairs()
            if pair not in self._measured_at
            or now - self._measured_at[pair] > self.ttl_s
        ]

    def age_of(self, pair: Tuple[str, str], now: float) -> Optional[float]:
        """Age of a pair's measurement, ``None`` when never measured."""
        measured = self._measured_at.get(pair)
        return None if measured is None else now - measured

    # ------------------------------------------------------------- topology
    def remove_vm(self, vm: str) -> None:
        """Drop a VM (e.g. preempted) and every pair touching it.

        Raises:
            ServiceError: unknown VM, or fewer than two VMs would remain.
        """
        if vm not in self.vms:
            raise ServiceError(f"measurement cache does not cover VM {vm!r}")
        if len(self.vms) <= 2:
            raise ServiceError(
                f"cannot remove {vm!r}: the measurement cache needs at "
                "least two VMs"
            )
        self.vms.remove(vm)
        for pair in [p for p in self._rates if vm in p]:
            del self._rates[pair]
            self._measured_at.pop(pair, None)

    def invalidate_pairs(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Force pairs stale (their cached rate survives as a fallback).

        Used for targeted re-measurement: when a fault event degrades a
        VM's link, the service invalidates every pair touching it so the
        next refresh re-probes exactly those.  Returns how many covered
        pairs were actually invalidated.
        """
        invalidated = 0
        for pair in pairs:
            if self._measured_at.pop(pair, None) is not None:
                invalidated += 1
        return invalidated

    # -------------------------------------------------------------- refresh
    def refresh(
        self,
        now: float,
        background: Sequence[VMFlow] = (),
        force: bool = False,
        fallback: Optional[Callable[[Tuple[str, str]], Optional[float]]] = None,
    ) -> NetworkProfile:
        """Re-probe stale pairs and return the merged full-mesh profile.

        Args:
            now: current provider time (ages are computed against it).
            background: flows the campaign should see as cross traffic.
            force: re-probe the full mesh regardless of age.
            fallback: called with a pair the campaign reported as degraded
                and that has no cached rate; may return a predicted rate
                (the service passes the forecaster here).  Degraded pairs
                with a cached rate coast on it.  Either way the pair's
                timestamp is *not* advanced, so it stays stale and is
                re-probed on the next refresh.
        """
        stale = self.mesh_pairs() if force else self.stale_pairs(now)
        with obs.span(
            "service.cache_refresh", stale=len(stale), force=bool(force)
        ):
            if stale:
                fresh = self.measurer.measure(
                    self.vms, background=background, pairs=stale
                )
                for pair, rate in fresh.rates_bps.items():
                    self._rates[pair] = rate
                    self._measured_at[pair] = fresh.measured_at_pair(*pair)
                for pair in fresh.degraded_pairs:
                    if pair not in self._rates:
                        predicted = (
                            fallback(pair) if fallback is not None else None
                        )
                        self._rates[pair] = (
                            predicted if predicted is not None and predicted > 0
                            else DEGRADED_FLOOR_BPS
                        )
                self._campaigns.inc()
                self._pairs_measured.inc(len(stale) - len(fresh.degraded_pairs))
                self._pairs_degraded.inc(len(fresh.degraded_pairs))
                self._measurement_time.inc(fresh.measurement_duration_s)
            self._pairs_reused.inc(len(self.mesh_pairs()) - len(stale))
            return self.profile(now)

    def profile(self, now: float) -> NetworkProfile:
        """The cache's current view as a full-mesh :class:`NetworkProfile`."""
        missing = [p for p in self.mesh_pairs() if p not in self._rates]
        if missing:
            raise ServiceError(
                f"measurement cache has never measured {len(missing)} pair(s); "
                "call refresh() first"
            )
        return NetworkProfile(
            vms=list(self.vms),
            rates_bps=dict(self._rates),
            sharing_model="hose",
            measured_at=now,
            measurement_duration_s=0.0,
            pair_measured_at=dict(self._measured_at),
        )


# ---------------------------------------------------------------------------
# (a) Algorithm 1: masked argmax over the rate matrix vs tuple enumeration
# ---------------------------------------------------------------------------
_RATE_LEVELS = (1e8, 2.5e8, 5e8, 1e9)  # few levels -> plenty of exact ties


def _greedy_instance(rng: random.Random, unmeasured: bool):
    """One random placement problem; ``unmeasured`` drops pairs from the
    profile so that a candidate can be one the profile never measured."""
    n = rng.randint(3, 9)
    # Declaration order differs from name order ("vm-10" sorts before "vm-2").
    machines = [f"vm-{i}" for i in rng.sample(range(1, 25), n)]
    pairs = [(a, b) for a in machines for b in machines if a != b]
    tied = rng.random() < 0.6
    rates = {
        pair: rng.choice(_RATE_LEVELS) if tied else rng.uniform(5e7, 1e9)
        for pair in pairs
    }
    if unmeasured:
        for pair in rng.sample(pairs, rng.randint(1, max(1, len(pairs) // 4))):
            del rates[pair]
    # A finite intra-VM rate can tie with (or lose to) a network path.
    intra = rng.choice([math.inf, math.inf, 1e9, 5e8])
    cross = (
        {pair: rng.choice([0.0, 0.5, 1.0, 3.0]) for pair in pairs if rng.random() < 0.5}
        if rng.random() < 0.5 else {}
    )
    sharing = rng.choice(["hose", "pipe"])
    if cross or rng.random() < 0.5:
        profile = NetworkProfile(
            vms=list(machines), rates_bps=rates, intra_vm_rate_bps=intra,
            cross_traffic=cross, sharing_model=sharing,
        )
    else:
        matrix = np.full((n, n), math.nan)
        for (a, b), rate in rates.items():
            matrix[machines.index(a), machines.index(b)] = rate
        profile = NetworkProfile(
            machines, matrix, intra_vm_rate_bps=intra, sharing_model=sharing
        )

    cores = {m: rng.choice([2.0, 4.0, 6.0]) for m in machines}
    used = {
        m: rng.choice([0.5, 1.0, 1.5, 2.0]) for m in machines if rng.random() < 0.4
    }
    cluster = ClusterState(
        machines=[Machine(m, cores[m]) for m in machines], cpu_used=used
    )
    n_tasks = rng.randint(2, 9)
    tasks = [Task(f"t{i}", rng.choice([0.5, 1.0, 2.0, 3.0])) for i in range(n_tasks)]
    traffic = TrafficMatrix()
    for i in range(n_tasks):
        for j in range(n_tasks):
            if i != j and rng.random() < 0.35:
                traffic.add(f"t{i}", f"t{j}", rng.choice([1e6, 5e6, 2e7, 8e7]))
    return Application("app", tasks, traffic), cluster, profile


def _outcome(placer: Placer, app, cluster, profile):
    """The ordered assignments, or the exception's type and message."""
    try:
        placement = placer.place(app, cluster, profile)
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return "placed", list(placement.assignments.items())


def _search_variants(rng: random.Random, n_machines: int):
    """``(cluster_threshold, n_clusters)``: flat, then hierarchical."""
    yield None, None
    for n_clusters in {1, 2, rng.randint(1, n_machines), n_machines, None}:
        yield 1, n_clusters


class TestGreedyAgainstScalarAlgorithm1:
    @pytest.mark.parametrize("unmeasured", [False, True])
    def test_same_assignments_in_the_same_order_and_the_same_errors(self, unmeasured):
        seen = {"placed": 0, "PlacementError": 0, "MeasurementError": 0}
        for trial in range(160):
            rng = random.Random((7000 if unmeasured else 3000) + trial)
            app, cluster, profile = _greedy_instance(rng, unmeasured)
            model = rng.choice(["hose", "pipe"])
            prefer = rng.random() < 0.7
            for threshold, n_clusters in _search_variants(rng, len(cluster.machines)):
                expected = _outcome(
                    ScalarGreedyPlacer(model, prefer, threshold, n_clusters),
                    app, cluster, profile,
                )
                got = _outcome(
                    GreedyPlacer(
                        model, prefer,
                        cluster_threshold=10**9 if threshold is None else threshold,
                        n_clusters=n_clusters,
                    ),
                    app, cluster, profile,
                )
                assert got == expected, (trial, model, prefer, threshold, n_clusters)
                seen[expected[0]] += 1
        # The instances reach what they are meant to reach.
        assert seen["placed"] > 100 and seen["PlacementError"] > 20
        assert (seen["MeasurementError"] > 20) == unmeasured

    def test_first_maximum_is_the_lexicographic_pick_under_ties(self):
        """All rates equal: the key falls through to the machine *names*,
        whatever order the cluster declares them in."""
        machines = ["vm-2", "vm-10", "vm-1"]
        profile = NetworkProfile.from_uniform_rate(machines, 1e9)
        cluster = ClusterState(machines=[Machine(m, 1.0) for m in machines])
        traffic = TrafficMatrix()
        traffic.add("a", "b", 1e6)
        app = Application("app", [Task("a", 1.0), Task("b", 1.0)], traffic)
        got = GreedyPlacer().place(app, cluster, profile).assignments
        assert got == {"a": "vm-1", "b": "vm-10"}
        assert got == ScalarGreedyPlacer().place(app, cluster, profile).assignments

    def test_colocation_wins_only_a_tie_and_only_when_preferred(self):
        machines = ["m1", "m2"]
        profile = NetworkProfile(
            vms=machines, rates_bps={("m1", "m2"): 1e9, ("m2", "m1"): 1e9},
            intra_vm_rate_bps=1e9,
        )
        cluster = ClusterState(
            machines=[Machine("m1", 4.0), Machine("m2", 4.0)], cpu_used={"m1": 3.0}
        )
        traffic = TrafficMatrix()
        traffic.add("a", "b", 1e6)
        app = Application("app", [Task("a", 1.0), Task("b", 1.0)], traffic)
        for prefer, expected in (
            (True, {"a": "m2", "b": "m2"}),   # tied at 1e9: the diagonal wins
            (False, {"a": "m1", "b": "m2"}),  # first maximum in name order
        ):
            got = GreedyPlacer(prefer_colocation=prefer).place(app, cluster, profile)
            assert got.assignments == expected
            assert got.assignments == ScalarGreedyPlacer(
                prefer_colocation=prefer
            ).place(app, cluster, profile).assignments

    def test_traffic_edited_to_name_an_unknown_task_fails_the_same_way(self):
        machines = ["m1", "m2"]
        profile = NetworkProfile.from_uniform_rate(machines, 1e9)
        cluster = ClusterState(machines=[Machine(m, 4.0) for m in machines])
        traffic = TrafficMatrix()
        traffic.add("a", "b", 1e6)
        app = Application("app", [Task("a", 1.0), Task("b", 1.0)], traffic)
        app.traffic.add("ghost", "a", 5e6)  # past the constructor's check
        assert _outcome(GreedyPlacer(), app, cluster, profile) == _outcome(
            ScalarGreedyPlacer(), app, cluster, profile
        ) == ("WorkloadError", "application 'app' has no task 'ghost'")

    def test_the_rate_table_switches_are_gone(self):
        import repro.core.placement.greedy as greedy
        import repro.core.rate_model as rate_model

        assert not hasattr(greedy, "set_default_rate_cache")
        assert not hasattr(rate_model, "EffectiveRateTable")
        with pytest.raises(TypeError):
            GreedyPlacer(use_rate_cache=True)


# ---------------------------------------------------------------------------
# (b) The forecaster: whole-matrix predictors vs the per-series predictors
# ---------------------------------------------------------------------------
def _epoch_profile(rng: random.Random, vms: List[str], skip=(), as_matrix=False):
    """A full-mesh profile in row-major pair order (minus ``skip``)."""
    rates = {
        (a, b): rng.uniform(1e7, 1e9)
        for a in vms for b in vms if a != b and (a, b) not in skip
    }
    if not as_matrix:
        return NetworkProfile(vms=list(vms), rates_bps=rates)
    matrix = np.full((len(vms), len(vms)), math.nan)
    for (a, b), rate in rates.items():
        matrix[vms.index(a), vms.index(b)] = rate
    return NetworkProfile(vms, matrix)


class TestForecasterAgainstScalarPredictors:
    #: Nine days and a bit: the time-of-day mean reaches nine values, past
    #: the eight where ``np.mean`` switches to its pairwise regime.
    EPOCHS = 24 * 9 + 6

    @pytest.mark.parametrize("predictor", HISTORY_PREDICTORS)
    def test_every_pair_every_epoch_is_equal(self, predictor):
        rng = random.Random(99)
        arrays, lists = RateForecaster(predictor), ListRateForecaster(predictor)
        everyone = ["a", "b", "c", "d", "e", "f"]
        for epoch in range(self.EPOCHS):
            vms = ["a", "b", "c", "d", "e"]
            if epoch >= 100:
                vms.remove("c")  # removed mid-history: its series stop growing
            if epoch >= 130:
                vms.append("f")  # first seen mid-history: back-filled
            # One pair drops out of the observations for a while and returns.
            skip = {("a", "b")} if 50 <= epoch < 56 else ()
            observed = _epoch_profile(rng, vms, skip, as_matrix=epoch % 3 == 0)
            arrays.record_epoch(epoch, observed)
            lists.record_epoch(epoch, observed)
            assert arrays.epochs_recorded == lists.epochs_recorded == epoch + 1

            current = _epoch_profile(rng, vms, as_matrix=epoch % 2 == 0)
            # The service asks for the next epoch; also ask about the past.
            for asked in {epoch + 1, rng.randint(0, epoch + 1)}:
                got = arrays.forecast_profile(current, asked)
                expected = lists.forecast_profile(current, asked)
                assert list(got.rates_bps.items()) == list(
                    expected.rates_bps.items()
                ), (epoch, asked)
                assert got.vms == expected.vms
                if epoch % 9 == 0 or epoch >= self.EPOCHS - 3:
                    for src in everyone + ["never-seen"]:
                        for dst in everyone:
                            assert arrays.forecast_pair((src, dst), asked) == (
                                lists.forecast_pair((src, dst), asked)
                            ), (epoch, asked, src, dst)

    def test_mean_follows_numpys_summation_order(self):
        """One value, two, the sequential regime (< 8), the eight-lane
        regime (<= 128) and the recursive one, each against ``np.mean`` of
        the 1-D series entry by entry."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 127, 128, 129, 300, 1025):
            stack = rng.lognormal(18.0, 2.0, size=(n, 3, 4))
            got = _mean(list(stack))
            for i in range(3):
                for j in range(4):
                    assert got[i, j] == float(np.mean(stack[:, i, j].tolist())), n

    def test_epoch_order_no_history_and_fallback_floor(self):
        forecaster = RateForecaster("combined")
        current = _epoch_profile(random.Random(1), ["a", "b"])
        assert forecaster.forecast_pair(("a", "b"), 0) is None
        assert dict(forecaster.forecast_profile(current, 0).rates_bps) == (
            current.rates_bps
        )
        forecaster.record_epoch(
            0, NetworkProfile(vms=["a", "b"], rates_bps={("a", "b"): 0.25})
        )
        # Forecasts are floored at 1 bps; the unrecorded direction keeps
        # the measured value.
        forecast = forecaster.forecast_profile(current, 1)
        assert forecast.rate("a", "b") == 1.0
        assert forecast.rate("b", "a") == current.rate("b", "a")
        with pytest.raises(ServiceError):
            forecaster.record_epoch(2, current)


# ---------------------------------------------------------------------------
# (c) The TTL cache: two arrays vs two dicts
# ---------------------------------------------------------------------------
class _ScriptedMeasurer:
    """A campaign runner with scripted outcomes (duck-types NetworkMeasurer).

    Rates are a function of (pair, campaign number); pairs are stamped
    ``round_s`` apart in schedule order; pairs in ``degrade`` fail."""

    round_s = 2.0

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0.0
        self.degrade: set = set()
        self.asked: List[List[Tuple[str, str]]] = []

    def measure(self, vm_names, background=(), pairs=None):
        pairs = list(pairs)
        self.asked.append(pairs)
        rates, stamps, degraded = {}, {}, {}
        for position, pair in enumerate(pairs):
            if pair in self.degrade:
                degraded[pair] = "scripted loss"
                continue
            rng = random.Random(f"{self.seed}:{pair}:{len(self.asked)}")
            rates[pair] = rng.uniform(1e7, 1e9)
            stamps[pair] = self.now + position * self.round_s
        return NetworkProfile(
            vms=list(vm_names), rates_bps=rates, measured_at=self.now,
            measurement_duration_s=len(pairs) * self.round_s,
            pair_measured_at=stamps, degraded_pairs=degraded,
        )


def _twin_caches(vms, ttl_s):
    ours = MeasurementCache(_ScriptedMeasurer(), list(vms), ttl_s=ttl_s)
    reference = DictMeasurementCache(_ScriptedMeasurer(), list(vms), ttl_s=ttl_s)
    return ours, reference


def _assert_same_view(ours, reference, now):
    assert ours.vms == reference.vms
    assert ours.stale_pairs(now) == reference.stale_pairs(now)
    assert ours.stats == reference.stats
    for pair in reference.mesh_pairs():
        assert ours.age_of(pair, now) == reference.age_of(pair, now)


class TestCacheAgainstDictCache:
    def test_random_service_life_matches_the_dict_cache(self):
        """Refreshes, invalidations, probe loss and VM removal in a random
        order: same campaign schedules (the probe RNG stream hangs off
        them), same counters, same ages, same merged profile."""
        rng = random.Random(2)
        vms = [f"vm-{i}" for i in (3, 10, 1, 7, 12, 5)]
        ours, reference = _twin_caches(vms, ttl_s=30.0)
        fallback = lambda pair: 123.0 if pair[0] < pair[1] else None  # noqa: E731
        now = 0.0
        for step in range(120):
            now += rng.choice([1.0, 7.0, 15.0, 30.0, 31.0])
            action = rng.random()
            mesh = reference.mesh_pairs()
            if action < 0.6:
                lost = set(rng.sample(mesh, rng.randint(0, 3)))
                for cache in (ours, reference):
                    cache.measurer.now = now
                    cache.measurer.degrade = lost
                force = rng.random() < 0.1
                got = ours.refresh(now, force=force, fallback=fallback)
                expected = reference.refresh(now, force=force, fallback=fallback)
                assert ours.measurer.asked == reference.measurer.asked
                # Same pairs, same rates.  (The dict cache listed pairs in
                # first-measured order, the matrix lists them row-major; no
                # consumer reads the order of a profile's pairs.)
                assert dict(got.rates_bps) == expected.rates_bps
                assert got.vms == expected.vms
                assert got.measured_at == expected.measured_at == now
            elif action < 0.85:
                victims = rng.sample(mesh, rng.randint(1, 6))
                victims += victims[:1] + [("ghost", vms[0])]  # duplicate, unknown
                assert ours.invalidate_pairs(victims) == (
                    reference.invalidate_pairs(victims)
                )
            elif len(reference.vms) > 3:
                gone = rng.choice(reference.vms)
                ours.remove_vm(gone)
                reference.remove_vm(gone)
            _assert_same_view(ours, reference, now)
        assert ours.stats.pairs_degraded > 0 and len(ours.vms) < len(vms)

    def test_stale_pairs_come_in_mesh_order(self):
        ours, _ = _twin_caches(["b", "a", "c", "d"], ttl_s=10.0)
        assert ours.stale_pairs(0.0) == ours.mesh_pairs()  # never measured
        ours.refresh(0.0)
        # Stamps are 0, 2, ..., 22: at t=15 exactly the pairs stamped before
        # t=5 are stale, and they come in list-comprehension order.
        stamp = {pair: -ours.age_of(pair, 0.0) for pair in ours.mesh_pairs()}
        assert ours.stale_pairs(15.0) == [
            pair for pair in ours.mesh_pairs() if 15.0 - stamp[pair] > 10.0
        ] == ours.mesh_pairs()[:3]

    def test_exact_ttl_boundary_is_still_fresh(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=60.0)
        ours.refresh(0.0)
        last = ours.mesh_pairs()[-1]
        stamped = -ours.age_of(last, 0.0)  # the newest stamp
        assert last not in ours.stale_pairs(stamped + 60.0)
        assert last in ours.stale_pairs(math.nextafter(stamped + 60.0, math.inf))

    def test_invalidated_pairs_keep_their_rate_as_a_fallback(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=1e6)
        before = ours.refresh(0.0)
        assert ours.invalidate_pairs([("a", "b"), ("a", "b"), ("b", "z")]) == 1
        assert ours.stale_pairs(1.0) == [("a", "b")]
        assert ours.age_of(("a", "b"), 1.0) is None
        assert dict(ours.profile(1.0).rates_bps) == dict(before.rates_bps)

    def test_remove_vm_drops_a_row_and_a_column(self):
        ours, _ = _twin_caches(["a", "b", "c", "d"], ttl_s=1e6)
        before = ours.refresh(0.0)
        ages = {pair: ours.age_of(pair, 5.0) for pair in ours.mesh_pairs()}
        ours.remove_vm("b")
        assert ours.vms == ["a", "c", "d"]
        after = ours.profile(5.0)
        assert dict(after.rates_bps) == {
            pair: rate for pair, rate in before.rates_bps.items() if "b" not in pair
        }
        assert all(ours.age_of(p, 5.0) == ages[p] for p in ours.mesh_pairs())
        assert ours.age_of(("a", "b"), 5.0) is None
        with pytest.raises(ServiceError, match="does not cover"):
            ours.remove_vm("b")
        ours.remove_vm("c")
        with pytest.raises(ServiceError, match="at least two"):
            ours.remove_vm("a")

    def test_degraded_pairs_coast_fall_back_or_floor(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=10.0)
        ours.measurer.degrade = {("a", "b"), ("b", "a"), ("c", "a")}
        predicted = {("a", "b"): 4e8, ("b", "a"): -1.0}
        first = ours.refresh(0.0, fallback=predicted.get)
        # No cached rate: the forecast, or the floor when there is none
        # (or it is not positive).
        assert first.rate("a", "b") == 4e8
        assert first.rate("b", "a") == DEGRADED_FLOOR_BPS
        assert first.rate("c", "a") == DEGRADED_FLOOR_BPS
        assert ours.stats.pairs_degraded == 3 and ours.stats.pairs_measured == 3
        # Degraded pairs are left stale: the next refresh re-probes them
        # (and only them), and this time they answer.
        ours.measurer.degrade = set()
        second = ours.refresh(1.0, fallback=predicted.get)
        assert ours.measurer.asked[-1] == [("a", "b"), ("b", "a"), ("c", "a")]
        assert second.rate("a", "b") != 4e8
        # With a cached rate a degraded pair coasts on it, fallback or not.
        ours.measurer.degrade = {("a", "b")}
        third = ours.refresh(100.0, fallback=lambda pair: 7.0)
        assert third.rate("a", "b") == second.rate("a", "b")
        assert ("a", "b") in ours.stale_pairs(100.0)

    def test_profile_needs_a_full_mesh_and_does_not_alias_the_cache(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=10.0)
        with pytest.raises(ServiceError, match="never measured 6 pair"):
            ours.profile(0.0)
        early = ours.refresh(0.0)
        snapshot = dict(early.rates_bps)
        ours.measurer.now = 50.0
        late = ours.refresh(50.0)
        assert dict(early.rates_bps) == snapshot  # a later refresh did not reach it
        assert dict(late.rates_bps) != snapshot
        with pytest.raises(ValueError):
            early.rate_matrix()[0, 1] = 1.0  # read-only, too
        assert isinstance(ours.stats, CacheStats)


# ---------------------------------------------------------------------------
# A profile built from an array == the same profile built from a mapping
# ---------------------------------------------------------------------------
class TestMatrixProfileRatesView:
    def _pair(self):
        vms = ["b", "a", "c"]
        rates = {
            ("b", "a"): 1e9, ("b", "c"): 2e9, ("a", "b"): 3e9, ("c", "a"): 4e9,
        }
        matrix = np.full((3, 3), math.nan)
        for (src, dst), rate in rates.items():
            matrix[vms.index(src), vms.index(dst)] = rate
        return NetworkProfile(vms, matrix), NetworkProfile(vms, dict(rates))

    def test_rates_bps_is_a_read_only_view_of_the_measured_pairs(self):
        dense, sparse = self._pair()
        view = dense.rates_bps
        assert list(view.items()) == list(sparse.rates_bps.items())  # row-major
        assert view == sparse.rates_bps and len(view) == 4
        assert ("a", "b") in view
        for absent in (("a", "c"), ("a", "a"), ("a", "zz"), ("a",), 7):
            assert absent not in view
        with pytest.raises(TypeError):
            view[("a", "c")] = 1.0
        with pytest.raises(AttributeError):
            dense.rates_bps = {}
        assert dense.pairs() == sparse.pairs()
        assert dense.fastest_pairs(2) == sparse.fastest_pairs(2)
        assert dense.hose_rate("b") == sparse.hose_rate("b") == 2e9

    def test_the_forecaster_records_a_matrix_profile(self):
        dense, sparse = self._pair()
        from_dense, from_sparse = RateForecaster("stale"), RateForecaster("stale")
        from_dense.record_epoch(0, dense)
        from_sparse.record_epoch(0, sparse)
        for pair in [("b", "a"), ("c", "a"), ("a", "c")]:
            assert from_dense.forecast_pair(pair, 1) == (
                from_sparse.forecast_pair(pair, 1)
            ) == sparse.rates_bps.get(pair)

    def test_matrix_profile_keeps_its_own_copy_and_validates(self):
        matrix = np.array([[math.nan, 1e9], [2e9, math.nan]])
        profile = NetworkProfile(["a", "b"], matrix)
        matrix[0, 1] = 5.0
        assert profile.rate("a", "b") == 1e9
        with pytest.raises(MeasurementError, match="positive"):
            NetworkProfile(["a", "b"], np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(MeasurementError, match="duplicate"):
            NetworkProfile(["a", "a"], matrix)
        with pytest.raises(MeasurementError, match="sharing_model"):
            NetworkProfile(["a", "b"], matrix, sharing_model="tube")
