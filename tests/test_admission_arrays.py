"""Oracle tests for the admission path on one rate matrix (PR 15).

The TTL cache and Algorithm 1 were rewritten from per-pair Python (dicts
of tuples, lists of floats, candidate tuple lists) to NumPy expressions over
one dense rate matrix.  The claim is *bit-identical*, so the scalar code
they replaced lives on here, moved verbatim from the parent commit, as the
reference: every comparison below is ``==`` — never ``approx`` — and covers
dict order, exception types and messages.
"""

import math
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from helpers import age_of, pair_matrix, stale_pairs
from oracles.effective_rate import ConnectionLoad, effective_rate
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
from repro.core.placement.greedy import GreedyPlacer
from repro.errors import PlacementError, ReproError, ServiceError
from repro.service.cache import DEGRADED_FLOOR_BPS, CacheStats, MeasurementCache
from repro.workloads.application import Application, Task, TrafficMatrix

_EPS = 1e-9


# ---------------------------------------------------------------------------
# References: the scalar code of the parent commit, verbatim
# ---------------------------------------------------------------------------
class ScalarGreedyPlacer(Placer):
    """Algorithm 1 as tuple-list enumeration (the parent's ``GreedyPlacer``
    with the rate table off: every candidate's rate through
    :func:`effective_rate`).  Its ``model`` and ``prefer_colocation``
    options are gone with ``GreedyPlacer``'s: the hose model, colocation
    preferred on ties, and among colocated ties the machine whose median
    rate to the other machines is fastest."""

    name = "scalar-greedy"

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
            return effective_rate(profile, src_machine, dst_machine, load)

        def record_connection(src_machine: str, dst_machine: str) -> None:
            load.add(src_machine, dst_machine)

        def cpu_fits(task_name: str, machine: str, pending_same: float = 0.0) -> bool:
            return app.cpu_demand(task_name) + pending_same <= free_cpu[machine] + _EPS

        def assign(task_name: str, machine: str) -> None:
            assignments[task_name] = machine
            free_cpu[machine] -= app.cpu_demand(task_name)

        rates, at = profile.rate_matrix(), profile.vms.index

        def egress(machine: str) -> float:
            """The lower median of the machine's rates to the others, an
            unmeasured pair read as 0."""
            out = sorted(
                0.0 if math.isnan(rate) else rate
                for rate in (
                    rates.item(at(machine), at(other))
                    for other in machines
                    if other != machine
                )
            )
            return out[(len(out) - 1) // 2]

        # Line 2: walk transfers in descending order of volume.
        for src_task, dst_task, _volume in app.transfers():
            src_placed = assignments.get(src_task)
            dst_placed = assignments.get(dst_task)

            if src_placed is not None and dst_placed is not None:
                # Both endpoints already pinned; just account for the
                # connection so later rate estimates see it.
                record_connection(src_placed, dst_placed)
                continue

            candidates = self._candidate_paths(
                app, src_task, dst_task, src_placed, dst_placed,
                machines, cpu_fits,
            )
            best = (
                self._pick_best(candidates, rate_of, egress) if candidates else None
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
        egress,
    ) -> Tuple[str, str]:
        """Lines 12-14: choose the candidate path with the highest rate."""
        def sort_key(pair: Tuple[str, str]):
            src, dst = pair
            rate = rate_of(src, dst)
            colocated = 1 if src == dst else 0
            # Highest rate first, then colocation, then the colocated
            # machine's egress, then deterministic names.
            return (-rate, -colocated, -egress(src) if colocated else 0.0, src, dst)

        return min(candidates, key=sort_key)


class DictMeasurementCache:
    """The dict-backed TTL cache the arrays replaced (the oracle): a pair at
    a time, reading the campaign's profile off its matrices."""

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
        self.stats = CacheStats()

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
    def refresh(self, now: float, background: Sequence[VMFlow] = ()) -> NetworkProfile:
        """Re-probe stale pairs and return the merged full-mesh profile.

        Args:
            now: current provider time (ages are computed against it).
            background: flows the campaign should see as cross traffic.

        A degraded pair coasts on its cached rate, or takes the floor
        without one.  Either way its timestamp is *not* advanced, so it
        stays stale and is re-probed on the next refresh.
        """
        stale = self.stale_pairs(now)
        with obs.span("service.cache_refresh", stale=len(stale)):
            if stale:
                fresh = self.measurer.measure(
                    self.vms, background=background, pairs=stale
                )
                rates, stamps = fresh.rate_matrix(), fresh.measured_at_matrix()
                for i, j in np.argwhere(~np.isnan(stamps)).tolist():
                    pair = (fresh.vms[i], fresh.vms[j])
                    self._rates[pair] = rates.item(i, j)
                    self._measured_at[pair] = stamps.item(i, j)
                for pair in fresh.degraded_pairs:
                    self._rates.setdefault(pair, DEGRADED_FLOOR_BPS)
                self.stats.campaigns += 1
                self.stats.pairs_measured += len(stale) - len(fresh.degraded_pairs)
                self.stats.pairs_degraded += len(fresh.degraded_pairs)
                self.stats.measurement_time_s += fresh.measurement_duration_s
            self.stats.pairs_reused += len(self.mesh_pairs()) - len(stale)
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
            rates_bps=pair_matrix(self.vms, self._rates),
            measured_at=now,
            measurement_duration_s=0.0,
            pair_measured_at=pair_matrix(self.vms, self._measured_at),
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
    rng.random()  # picked between two spellings of the profile: the draw keeps the instances
    profile = NetworkProfile(machines, pair_matrix(machines, rates), intra_vm_rate_bps=intra)

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


def _declaration_orders(rng: random.Random, cluster: ClusterState, count: int = 6):
    """The cluster as generated, then declared in ``count - 1`` shuffled
    orders: the array placer ranks machines by name, while the scalar walks
    them in declaration order and reports the first unmeasured candidate it
    meets."""
    yield cluster
    for _ in range(count - 1):
        yield ClusterState(
            machines=rng.sample(cluster.machines, len(cluster.machines)),
            cpu_used=dict(cluster.cpu_used),
        )


class TestGreedyAgainstScalarAlgorithm1:
    @pytest.mark.parametrize("unmeasured", [False, True])
    def test_same_assignments_in_the_same_order_and_the_same_errors(self, unmeasured):
        seen = {"placed": 0, "PlacementError": 0, "MeasurementError": 0}
        for trial in range(160):
            rng = random.Random((7000 if unmeasured else 3000) + trial)
            app, cluster, profile = _greedy_instance(rng, unmeasured)
            for declared in _declaration_orders(rng, cluster):
                expected = _outcome(ScalarGreedyPlacer(), app, declared, profile)
                got = _outcome(GreedyPlacer(), app, declared, profile)
                assert got == expected, trial
                seen[expected[0]] += 1
        # The instances reach what they are meant to reach.
        assert seen["placed"] > 100 and seen["PlacementError"] > 20
        assert (seen["MeasurementError"] > 20) == unmeasured

    def test_first_maximum_is_the_lexicographic_pick_under_ties(self):
        """All rates equal: the key falls through to the machine *names*,
        whatever order the cluster declares them in."""
        machines = ["vm-2", "vm-10", "vm-1"]
        profile = NetworkProfile(machines, np.full((3, 3), 1e9))
        cluster = ClusterState(machines=[Machine(m, 1.0) for m in machines])
        traffic = TrafficMatrix()
        traffic.add("a", "b", 1e6)
        app = Application("app", [Task("a", 1.0), Task("b", 1.0)], traffic)
        got = GreedyPlacer().place(app, cluster, profile).assignments
        assert got == {"a": "vm-1", "b": "vm-10"}
        assert got == ScalarGreedyPlacer().place(app, cluster, profile).assignments

    def test_colocation_wins_only_a_tie(self):
        machines = ["m1", "m2"]
        cluster = ClusterState(
            machines=[Machine("m1", 4.0), Machine("m2", 4.0)], cpu_used={"m1": 3.0}
        )
        traffic = TrafficMatrix()
        traffic.add("a", "b", 1e6)
        app = Application("app", [Task("a", 1.0), Task("b", 1.0)], traffic)
        for intra, expected in (
            (1e9, {"a": "m2", "b": "m2"}),  # tied at 1e9: the diagonal wins
            (5e8, {"a": "m1", "b": "m2"}),  # slower: first maximum in name order
        ):
            profile = NetworkProfile(
                machines, np.full((2, 2), 1e9), intra_vm_rate_bps=intra
            )
            got = GreedyPlacer().place(app, cluster, profile)
            assert got.assignments == expected
            assert got.assignments == ScalarGreedyPlacer().place(
                app, cluster, profile
            ).assignments

    def test_egress_is_the_lower_median_with_unmeasured_pairs_as_zero(self):
        """``_egress``'s one ``partition`` over the matrix is the scalar
        placer's sorted row: the ``(k - 1) // 2``-th of a machine's ``k``
        rates to the others, an unmeasured pair read as 0, the diagonal
        left out."""
        from repro.core.placement.greedy import _egress

        for trial in range(60):
            rng = random.Random(9100 + trial)
            n = rng.randint(2, 12)
            single = np.array(
                [[rng.choice(_RATE_LEVELS) for _ in range(n)] for _ in range(n)]
            )
            for _ in range(rng.randint(0, n)):
                single[rng.randrange(n), rng.randrange(n)] = math.nan
            expected = []
            for i in range(n):
                out = sorted(
                    0.0 if math.isnan(single[i, j]) else single[i, j]
                    for j in range(n) if j != i
                )
                expected.append(out[(len(out) - 1) // 2])
            assert _egress(single).tolist() == expected, trial

    def test_a_rack_shaped_datacenter_places_as_the_scalar_does(self):
        """128 machines in 8 racks of 16, fast inside a rack and slow
        between: far past the small instances above, every colocated
        transfer ties across the racks' machines and the egress median
        decides it.  The placement is the scalar one and fits every
        machine's CPU."""
        n = 128
        vms = [f"m{i}" for i in range(n)]
        rack = np.arange(n) // 16
        base = np.where(rack[:, None] == rack[None, :], 9e8, 2e8)
        for seed in (7, 8):
            noise = np.random.default_rng(seed).uniform(0.95, 1.05, (n, n))
            profile = NetworkProfile(vms, base * noise)
            rng = random.Random(seed)
            cluster = ClusterState(
                machines=[Machine(m, cores=rng.choice([2.0, 4.0])) for m in vms]
            )
            tasks = [Task(f"t{i}", rng.choice([0.5, 1.0, 2.0])) for i in range(10)]
            traffic = TrafficMatrix()
            for i in range(10):
                for j in range(10):
                    if i != j and rng.random() < 0.4:
                        traffic.add(f"t{i}", f"t{j}", rng.uniform(1, 50) * 1e6)
            app = Application("app", tasks, traffic)
            expected = _outcome(ScalarGreedyPlacer(), app, cluster, profile)
            assert expected[0] == "placed", seed
            assert _outcome(GreedyPlacer(), app, cluster, profile) == expected
            used: Dict[str, float] = {}
            for task, vm in expected[1]:
                used[vm] = used.get(vm, 0.0) + app.cpu_demand(task)
            for machine in cluster.machines:
                assert used.get(machine.name, 0.0) <= machine.cores + _EPS

    def test_traffic_edited_to_name_an_unknown_task_fails_the_same_way(self):
        machines = ["m1", "m2"]
        profile = NetworkProfile(machines, np.full((2, 2), 1e9))
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
# (b) The TTL cache: two arrays vs two dicts
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
        if pairs is None:  # the full mesh, in the campaign's row-major order
            pairs = _mesh(vm_names)
        elif isinstance(pairs, np.ndarray):  # positions in vm_names
            pairs = [(vm_names[s], vm_names[d]) for s, d in pairs.tolist()]
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
            vms=list(vm_names), rates_bps=pair_matrix(vm_names, rates),
            measured_at=self.now, measurement_duration_s=len(pairs) * self.round_s,
            pair_measured_at=pair_matrix(vm_names, stamps), degraded_pairs=degraded,
        )


def _twin_caches(vms, ttl_s):
    ours = MeasurementCache(_ScriptedMeasurer(), list(vms), ttl_s=ttl_s)
    reference = DictMeasurementCache(_ScriptedMeasurer(), list(vms), ttl_s=ttl_s)
    return ours, reference


def _mesh(vms):
    """Every ordered pair of ``vms``, row-major."""
    return [(s, d) for s in vms for d in vms if s != d]


def _assert_same_view(ours, reference, now):
    assert ours.vms == reference.vms
    assert stale_pairs(ours, now) == reference.stale_pairs(now)
    assert ours.stats == reference.stats
    for pair in reference.mesh_pairs():
        assert age_of(ours, pair, now) == reference.age_of(pair, now)


class TestCacheAgainstDictCache:
    def test_random_service_life_matches_the_dict_cache(self):
        """Refreshes, invalidations, probe loss and VM removal in a random
        order: same campaign schedules (the probe RNG stream hangs off
        them), same counters, same ages, same merged profile."""
        rng = random.Random(2)
        vms = [f"vm-{i}" for i in (3, 10, 1, 7, 12, 5)]
        ours, reference = _twin_caches(vms, ttl_s=30.0)
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
                rng.random()  # once drew a forced refresh: the draw keeps the life
                got = ours.refresh(now)
                expected = reference.refresh(now)
                assert ours.measurer.asked == reference.measurer.asked
                assert got.vms == expected.vms
                np.testing.assert_array_equal(got.rate_matrix(), expected.rate_matrix())
                assert got.measured_at == expected.measured_at == now
            elif action < 0.85:
                # What a link degradation does: every pair touching one VM.
                vm = rng.choice(reference.vms)
                assert ours.invalidate_vm(vm) == reference.invalidate_pairs(
                    [pair for pair in mesh if vm in pair]
                )
            elif len(reference.vms) > 3:
                gone = rng.choice(reference.vms)
                ours.remove_vm(gone)
                reference.remove_vm(gone)
            _assert_same_view(ours, reference, now)
        assert ours.stats.pairs_degraded > 0 and len(ours.vms) < len(vms)

    def test_refresh_hands_the_campaign_the_mesh_or_positions(self):
        """A refresh with every pair stale hands the campaign ``pairs=None``
        (its own full-mesh schedule); a partial one hands it the stale pairs
        as an ``(m, 2)`` position array in ``vms`` order — ``stale_pairs``,
        row for row — not a list of name pairs."""
        ours, _ = _twin_caches(["b", "a", "c", "d"], ttl_s=10.0)
        asked = []
        measure = ours.measurer.measure

        def spy(vm_names, background=(), pairs=None):
            asked.append(pairs)
            return measure(vm_names, background, pairs)

        ours.measurer.measure = spy
        wanted = []
        for now in (0.0, 15.0, 1000.0):
            wanted.append(stale_pairs(ours, now))
            ours.refresh(now)
        assert [len(pairs) for pairs in wanted] == [12, 3, 12]
        full, partial, expired = asked
        assert full is None and expired is None
        assert isinstance(partial, np.ndarray) and partial.shape == (3, 2)
        assert [(ours.vms[s], ours.vms[d]) for s, d in partial.tolist()] == wanted[1]
        assert ours.measurer.asked[0] == ours.measurer.asked[2] == _mesh(ours.vms)

    def test_exact_ttl_boundary_is_still_fresh(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=60.0)
        ours.refresh(0.0)
        last = _mesh(ours.vms)[-1]
        stamped = -age_of(ours, last, 0.0)  # the newest stamp
        assert last not in stale_pairs(ours, stamped + 60.0)
        assert last in stale_pairs(ours, math.nextafter(stamped + 60.0, math.inf))

    def test_invalidated_pairs_keep_their_rate_as_a_fallback(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=1e6)
        before = ours.refresh(0.0)
        assert ours.invalidate_vm("a") == 4
        assert ours.invalidate_vm("a") == 0  # already stale
        touched = [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")]
        assert stale_pairs(ours, 1.0) == touched
        assert all(age_of(ours, pair, 1.0) is None for pair in touched)
        assert age_of(ours, ("b", "c"), 1.0) is not None  # untouched
        np.testing.assert_array_equal(ours.profile(1.0).rate_matrix(), before.rate_matrix())
        with pytest.raises(ServiceError, match="does not cover VM 'z'"):
            ours.invalidate_vm("z")

    def test_remove_vm_drops_a_row_and_a_column(self):
        ours, _ = _twin_caches(["a", "b", "c", "d"], ttl_s=1e6)
        before = ours.refresh(0.0)
        ages = {pair: age_of(ours, pair, 5.0) for pair in _mesh(ours.vms)}
        ours.remove_vm("b")
        assert ours.vms == ["a", "c", "d"]
        np.testing.assert_array_equal(
            ours.profile(5.0).rate_matrix(), before.rate_matrix(["a", "c", "d"])
        )
        assert all(age_of(ours, p, 5.0) == ages[p] for p in _mesh(ours.vms))
        assert age_of(ours, ("a", "b"), 5.0) is None
        with pytest.raises(ServiceError, match="does not cover"):
            ours.remove_vm("b")
        ours.remove_vm("c")
        with pytest.raises(ServiceError, match="at least two"):
            ours.remove_vm("a")

    def test_degraded_pairs_coast_or_floor(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=10.0)
        ours.measurer.degrade = {("a", "b"), ("b", "a"), ("c", "a")}
        first = ours.refresh(0.0).rate_matrix()
        # No cached rate: the floor.
        assert first[0, 1] == first[1, 0] == first[2, 0] == DEGRADED_FLOOR_BPS
        assert ours.stats.pairs_degraded == 3 and ours.stats.pairs_measured == 3
        # Degraded pairs are left stale: the next refresh re-probes them
        # (and only them), and this time they answer.
        ours.measurer.degrade = set()
        second = ours.refresh(1.0).rate_matrix()
        assert ours.measurer.asked[-1] == [("a", "b"), ("b", "a"), ("c", "a")]
        assert second[0, 1] != DEGRADED_FLOOR_BPS
        # With a cached rate a degraded pair coasts on it.
        ours.measurer.degrade = {("a", "b")}
        third = ours.refresh(100.0).rate_matrix()
        assert third[0, 1] == second[0, 1]
        assert ("a", "b") in stale_pairs(ours, 100.0)

    def test_profile_needs_a_full_mesh_and_does_not_alias_the_cache(self):
        ours, _ = _twin_caches(["a", "b", "c"], ttl_s=10.0)
        with pytest.raises(ServiceError, match="never measured 6 pair"):
            ours.profile(0.0)
        early = ours.refresh(0.0)
        snapshot = early.rate_matrix().copy()
        ours.measurer.now = 50.0
        late = ours.refresh(50.0)
        # A later refresh did not reach the early profile.
        np.testing.assert_array_equal(early.rate_matrix(), snapshot)
        assert not np.array_equal(late.rate_matrix(), snapshot)
        with pytest.raises(ValueError):
            early.rate_matrix()[0, 1] = 1.0  # read-only, too
        assert isinstance(ours.stats, CacheStats)
