"""Tests for the datacenter-scale hot paths: the array-backed (vectorised)
max-min solve and the hierarchical greedy placer.

The central property, as everywhere in this suite: the fast paths are
*exact*.  The vector solve must be bit-identical to the scalar solve (not
merely close), and hierarchical greedy with singleton clusters must
reproduce flat greedy assignment-for-assignment.
"""

import functools
import math
import random

import pytest

from repro.cloud import provider as provider_mod
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Machine
from repro.core.placement.greedy import GreedyPlacer, cluster_vms_by_rate_profile
from repro.errors import MeasurementError, PlacementError, SimulationError
from repro.net import alloc, topology
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand, max_min_allocation
from repro.net.flows import Flow
from repro.net.fluid import (
    ALLOCATOR_INCREMENTAL,
    ALLOCATOR_REFERENCE,
    ALLOCATOR_VECTOR,
    FluidSimulation,
)
from repro.net.topology import build_two_rack_cloud, clear_route_cache
from repro.units import GBITPS, MBYTE

np = pytest.importorskip("numpy")


def _random_instance(rng, n_links_max=14, n_flows_max=30):
    """Capacities and demands covering caps, empty-link flows, zero-capacity
    edges, and shared bottlenecks — the same families the reference property
    tests use."""
    n_links = rng.randint(1, n_links_max)
    caps = {}
    for i in range(n_links):
        roll = rng.random()
        if roll < 0.08:
            caps[f"l{i}"] = 0.0
        elif roll < 0.12:
            caps[f"l{i}"] = math.inf
        else:
            caps[f"l{i}"] = rng.uniform(0.05 * GBITPS, 4 * GBITPS)
    link_ids = list(caps)
    demands = {}
    for f in range(rng.randint(1, n_flows_max)):
        if rng.random() < 0.06:
            links = ()
        else:
            links = tuple(
                rng.sample(link_ids, rng.randint(1, min(4, n_links)))
            )
        cap = rng.uniform(0.01 * GBITPS, 1 * GBITPS) if rng.random() < 0.35 else None
        demands[f"f{f}"] = FlowDemand(links=links, max_rate=cap)
    return caps, demands


class TestVectorSolveBitIdentity:
    def test_vector_matches_scalar_bitwise_on_random_instances(self):
        """The headline invariant: dict-equality (==), not approximate."""
        for trial in range(120):
            rng = random.Random(1000 + trial)
            caps, demands = _random_instance(rng)
            scalar = IncrementalAllocator(caps, mode="scalar")
            vector = IncrementalAllocator(caps, mode="vector")
            for fid, demand in demands.items():
                scalar.add_demand(fid, demand)
                vector.add_demand(fid, demand)
            assert scalar.solve() == vector.solve(), f"trial {trial}"

    def test_vector_matches_scalar_bitwise_under_churn(self):
        rng = random.Random(77)
        caps, demands = _random_instance(rng, n_links_max=20, n_flows_max=60)
        scalar = IncrementalAllocator(caps, mode="scalar")
        vector = IncrementalAllocator(caps, mode="vector")
        active = []
        pool = list(demands)
        for step in range(200):
            if pool and (not active or rng.random() < 0.55):
                fid = pool.pop(rng.randrange(len(pool)))
                scalar.add_demand(fid, demands[fid])
                vector.add_demand(fid, demands[fid])
                active.append(fid)
            else:
                fid = active.pop(rng.randrange(len(active)))
                scalar.remove_flow(fid)
                vector.remove_flow(fid)
                pool.append(fid)
            assert scalar.solve() == vector.solve(), f"step {step}"

    def test_vector_agrees_with_reference_allocator(self):
        for trial in range(40):
            rng = random.Random(9000 + trial)
            caps, demands = _random_instance(rng)
            vector = IncrementalAllocator(caps, mode="vector")
            for fid, demand in demands.items():
                vector.add_demand(fid, demand)
            got = vector.solve()
            ref = max_min_allocation(demands, caps)
            assert set(ref) == set(got)
            for fid, expected in ref.items():
                actual = got[fid]
                if math.isinf(expected) or math.isinf(actual):
                    assert expected == actual, fid
                else:
                    assert abs(expected - actual) <= 1e-9 * max(1.0, expected), fid

    def test_duplicate_link_paths_fall_back_to_scalar(self):
        """A path crossing the same link twice drains capacity twice; only
        the scalar solver models that, so the vector allocator must defer."""
        caps = {"a": 1 * GBITPS, "b": 2 * GBITPS}
        allocator = IncrementalAllocator(caps, mode="vector")
        allocator.add_flow("loop", ["a", "b", "a"])
        allocator.add_flow("plain", ["b"])
        assert not allocator.uses_vector_path()
        scalar = IncrementalAllocator(caps, mode="scalar")
        scalar.add_flow("loop", ["a", "b", "a"])
        scalar.add_flow("plain", ["b"])
        assert allocator.solve() == scalar.solve()
        # Removing the duplicate-link flow re-enables the vector path.
        allocator.remove_flow("loop")
        assert allocator.uses_vector_path()

    def test_infinite_capacity_universe(self):
        caps = {"a": math.inf, "b": math.inf}
        scalar = IncrementalAllocator(caps, mode="scalar")
        vector = IncrementalAllocator(caps, mode="vector")
        for alloc in (scalar, vector):
            alloc.add_flow("x", ["a"])
            alloc.add_flow("y", ["a", "b"])
            alloc.add_demand("z", FlowDemand(links=("b",), max_rate=3.0))
        assert scalar.solve() == vector.solve()
        assert vector.solve()["x"] == math.inf
        assert vector.solve()["z"] == 3.0


def _force_vector_solves(patch):
    """``mode="auto"`` allocators vectorise at every size."""
    patch.setattr(alloc, "_VECTOR_MIN_FLOWS", 0)
    patch.setattr(alloc, "_VECTOR_MIN_LINKS", 0)


class TestVectorModeSelection:
    def test_mode_validation(self):
        with pytest.raises(SimulationError):
            IncrementalAllocator({"l": 1.0}, mode="simd")

    def test_auto_thresholds_gate_the_vector_path(self, monkeypatch):
        caps = {f"l{i}": 1 * GBITPS for i in range(8)}
        allocator = IncrementalAllocator(caps)
        for f in range(8):
            allocator.add_flow(f"f{f}", [f"l{f}"])
        assert not allocator.uses_vector_path()  # below default thresholds
        with monkeypatch.context() as patch:
            _force_vector_solves(patch)
            assert allocator.uses_vector_path()
        assert not allocator.uses_vector_path()

    def test_forced_vector_below_thresholds_still_exact(self):
        caps = {"l": 1 * GBITPS}
        vector = IncrementalAllocator(caps, mode="vector")
        vector.add_flow("a", ["l"])
        vector.add_flow("b", ["l"])
        assert vector.uses_vector_path()
        assert vector.solve() == {"a": 0.5 * GBITPS, "b": 0.5 * GBITPS}


class TestFluidVectorAllocator:
    def _flows(self, seed, n_pairs, n_flows):
        rng = random.Random(seed)
        flows = []
        for i in range(n_flows):
            src = f"s{rng.randint(1, n_pairs)}"
            dst = f"r{rng.randint(1, n_pairs)}"
            start = rng.uniform(0.0, 3.0)
            if rng.random() < 0.2:
                flows.append(
                    Flow(
                        flow_id=f"bg{i}", src=src, dst=dst, size_bytes=None,
                        start_time=start, end_time=start + rng.uniform(0.5, 2.0),
                    )
                )
            else:
                flows.append(
                    Flow(
                        flow_id=f"x{i}", src=src, dst=dst,
                        size_bytes=rng.uniform(2, 60) * MBYTE,
                        start_time=start,
                    )
                )
        return flows

    def test_vector_allocator_mode_matches_reference_and_incremental(self):
        topo = build_two_rack_cloud(n_pairs=6)
        flows = self._flows(5, 6, 40)
        results = {}
        for mode in (ALLOCATOR_REFERENCE, ALLOCATOR_INCREMENTAL, ALLOCATOR_VECTOR):
            sim = FluidSimulation(topo, allocator=mode)
            sim.add_flows(flows)
            results[mode] = sim.run()
        ref = results[ALLOCATOR_REFERENCE]
        for mode in (ALLOCATOR_INCREMENTAL, ALLOCATOR_VECTOR):
            got = results[mode]
            assert set(ref.completion_times) == set(got.completion_times)
            for fid, t in ref.completion_times.items():
                assert abs(t - got.completion_times[fid]) <= 1e-9 * max(1.0, t)
            assert abs(ref.end_time - got.end_time) <= 1e-9 * max(1.0, ref.end_time)

    def test_unknown_allocator_mode_rejected(self):
        topo = build_two_rack_cloud(n_pairs=2)
        with pytest.raises(SimulationError):
            FluidSimulation(topo, allocator="gpu")


class TestRateMatrix:
    def _profile(self, n=5, seed=3):
        rng = random.Random(seed)
        vms = [f"m{i}" for i in range(n)]
        rates = {
            (a, b): rng.uniform(0.1 * GBITPS, 1 * GBITPS)
            for a in vms for b in vms if a != b
        }
        return vms, rates, NetworkProfile(vms=vms, rates_bps=rates)

    def test_matrix_matches_pairwise_rates(self):
        vms, rates, profile = self._profile()
        matrix = profile.rate_matrix()
        for i, a in enumerate(vms):
            for j, b in enumerate(vms):
                if i == j:
                    assert math.isinf(matrix[i, j])
                else:
                    assert matrix[i, j] == rates[(a, b)]

    def test_matrix_reorders_and_rejects_unknown_vms(self):
        vms, rates, profile = self._profile()
        order = list(reversed(vms))
        matrix = profile.rate_matrix(order=order)
        assert matrix[0, 1] == rates[(vms[-1], vms[-2])]
        with pytest.raises(MeasurementError):
            profile.rate_matrix(order=["nope"])

    def test_matrix_profile_equivalent_to_dict_profile(self):
        vms, rates, profile = self._profile(n=6, seed=11)
        matrix = profile.rate_matrix()
        dense = NetworkProfile(vms, matrix)
        for a in vms:
            for b in vms:
                if a != b:
                    assert dense.rate(a, b) == profile.rate(a, b)
                    assert dense.has_pair(a, b)
        assert set(dense.pairs()) == set(profile.pairs())
        np.testing.assert_array_equal(dense.rate_matrix(), matrix)

    def test_a_profile_cannot_be_changed_after_construction(self):
        vms, rates, profile = self._profile(n=3)
        pair = (vms[0], vms[1])
        for view in (
            profile.rates_bps, profile.pair_measured_at, profile.cross_traffic
        ):
            with pytest.raises(TypeError):
                view[pair] = 42.0
        assert not profile.rate_matrix().flags.writeable
        with pytest.raises(ValueError):
            profile.rate_matrix()[0, 1] = 42.0
        assert profile.rate(*pair) == profile.rate_matrix()[0, 1] == rates[pair]
        # A reordered matrix is the caller's own copy.
        profile.rate_matrix(order=vms)[0, 1] = 42.0
        assert profile.rate(*pair) == rates[pair]

    def test_per_pair_times_and_cross_traffic_in_either_spelling(self):
        vms = ["a", "b", "c"]
        rates = {("a", "b"): 1e9, ("b", "a"): 2e9, ("c", "a"): 3e9}
        times = {("a", "b"): 7.0, ("c", "a"): 9.0}
        cross = {("b", "a"): 0.0, ("c", "a"): 1.5}

        def scatter(values):
            matrix = np.full((3, 3), math.nan)
            for (src, dst), value in values.items():
                matrix[vms.index(src), vms.index(dst)] = value
            return matrix

        for profile in (
            NetworkProfile(
                vms, rates, measured_at=5.0, pair_measured_at=times,
                cross_traffic=cross,
            ),
            NetworkProfile(
                vms, scatter(rates), measured_at=5.0,
                pair_measured_at=scatter(times), cross_traffic=scatter(cross),
            ),
        ):
            assert dict(profile.rates_bps) == rates
            assert dict(profile.pair_measured_at) == times
            assert dict(profile.cross_traffic) == cross  # a zero estimate is kept
            assert list(profile.rates_bps) == [("a", "b"), ("b", "a"), ("c", "a")]
            stamps = profile.measured_at_matrix()
            for i, src in enumerate(vms):
                for j, dst in enumerate(vms):
                    assert profile.cross(src, dst) == cross.get((src, dst), 0.0)
                    if src != dst and profile.has_pair(src, dst):
                        assert stamps[i, j] == profile.measured_at_pair(src, dst)
                        assert stamps[i, j] == times.get((src, dst), 5.0)
                    else:
                        assert math.isnan(stamps[i, j])
            np.testing.assert_array_equal(
                profile.cross_matrix(["c", "a"]), [[0.0, 1.5], [0.0, 0.0]]
            )
        bare = NetworkProfile(vms, rates)
        assert not bare.cross_traffic and not bare.pair_measured_at
        np.testing.assert_array_equal(bare.cross_matrix(vms), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(rates_bps={("a", "b"): math.nan}), "NaN"),
            (dict(rates_bps={("a", "b"): 0.0}), "positive"),
            (dict(rates_bps={("a", "zz"): 1.0}), "unknown VM 'zz'"),
            (dict(rates_bps={("a", "a"): 1.0}), "self pairs"),
            (dict(rates_bps=np.ones((3, 3))), "shape"),
            (dict(cross_traffic={("a", "b"): -0.5}), "cross traffic"),
            (dict(cross_traffic={("a", "b"): math.nan}), "NaN"),
            (dict(pair_measured_at={("b", "a"): 1.0}), "unmeasured pair"),
            (dict(degraded_pairs={("a", "zz"): "lost"}), "unknown VM"),
            (dict(degraded_pairs={("b", "b"): "lost"}), "self pairs"),
            (dict(degraded_pairs={("a", "b"): "lost"}), "both measured and degraded"),
        ],
    )
    def test_constructor_rejects_inconsistent_measurements(self, kwargs, message):
        fields = dict(vms=["a", "b"], rates_bps={("a", "b"): 1e9})
        with pytest.raises(MeasurementError, match=message):
            NetworkProfile(**{**fields, **kwargs})


class TestHierarchicalGreedyEquivalence:
    def _instance(self, rng, n_machines):
        from repro.workloads.application import Application, Task, TrafficMatrix

        vms = [f"m{i}" for i in range(n_machines)]
        rates = {
            (a, b): rng.choice([0.2, 0.5, 0.9]) * GBITPS * rng.uniform(0.9, 1.1)
            for a in vms for b in vms if a != b
        }
        profile = NetworkProfile(vms=vms, rates_bps=rates)
        cluster = ClusterState(
            machines=[Machine(m, cores=rng.choice([2.0, 4.0])) for m in vms]
        )
        n_tasks = rng.randint(2, min(8, n_machines))
        tasks = [Task(f"t{i}", rng.choice([0.5, 1.0])) for i in range(n_tasks)]
        traffic = TrafficMatrix()
        for i in range(n_tasks):
            for j in range(n_tasks):
                if i != j and rng.random() < 0.5:
                    traffic.add(f"t{i}", f"t{j}", rng.uniform(1, 50) * MBYTE)
        return Application("app", tasks, traffic), cluster, profile

    def test_singleton_clusters_reproduce_flat_exactly(self):
        """Hierarchical greedy with one VM per cluster IS flat greedy."""
        for trial in range(40):
            rng = random.Random(4000 + trial)
            n = rng.randint(3, 16)
            app, cluster, profile = self._instance(rng, n)
            flat = GreedyPlacer(cluster_threshold=10**9)
            hier = GreedyPlacer(cluster_threshold=1, n_clusters=n)
            try:
                expected = flat.place(app, cluster, profile)
            except PlacementError:
                with pytest.raises(PlacementError):
                    hier.place(app, cluster, profile)
                continue
            got = hier.place(app, cluster, profile)
            assert expected.assignments == got.assignments, f"trial {trial}"

    def test_below_threshold_instances_take_the_flat_path(self):
        rng = random.Random(5)
        app, cluster, profile = self._instance(rng, 12)
        placer = GreedyPlacer()  # default threshold is far above 12 machines
        placement = placer.place(app, cluster, profile)
        assert placer.last_cluster_stats is None
        flat = GreedyPlacer(cluster_threshold=10**9).place(app, cluster, profile)
        assert placement.assignments == flat.assignments

    def test_hierarchical_placements_remain_feasible_at_scale(self):
        rng = random.Random(7)
        n = 128
        vms = [f"m{i}" for i in range(n)]
        rack = np.arange(n) // 16
        base = np.where(rack[:, None] == rack[None, :], 0.9 * GBITPS, 0.2 * GBITPS)
        noise = np.random.default_rng(7).uniform(0.95, 1.05, (n, n))
        profile = NetworkProfile(vms, base * noise)
        cluster = ClusterState(machines=[Machine(m, cores=2.0) for m in vms])
        app, _, _ = self._instance(rng, 8)
        placer = GreedyPlacer(cluster_threshold=64)
        placement = placer.place(app, cluster, profile)
        stats = placer.last_cluster_stats
        assert stats is not None and stats["n_clusters"] > 1
        assert set(placement.assignments.values()) <= set(vms)
        # Every task lands on a machine with enough CPU headroom.
        used = {}
        for task, vm in placement.assignments.items():
            used[vm] = used.get(vm, 0.0) + app.cpu_demand(task)
        for vm, cores in ((m.name, m.cores) for m in cluster.machines):
            assert used.get(vm, 0.0) <= cores + 1e-9


def _reference_engine(patch):
    """What the fluid engine did before any optimisation: max-min from
    scratch at every event, the scalar loop, every route a graph search."""
    patch.setattr(
        provider_mod, "FluidSimulation",
        functools.partial(FluidSimulation, allocator=ALLOCATOR_REFERENCE),
    )
    patch.setattr(topology, "_structured_routers", {})
    patch.setattr(topology, "_register_tree_router", lambda topo, spec: None)


class TestTierOneScenarioBitIdentity:
    @staticmethod
    def _trial_metrics(scenario):
        from repro.experiments.trials import run_trial

        clear_route_cache()
        record = run_trial(scenario, "greedy", trial=0, base_seed=42)
        assert record.ok, record.error
        return (
            record.status,
            record.makespan_s,
            record.total_running_time_s,
            record.n_apps,
            record.n_vms,
        )

    @pytest.mark.parametrize("scenario", ["smoke", "all-to-all"])
    def test_forced_vector_reproduces_scalar_trial_records(
        self, scenario, monkeypatch
    ):
        """Tier-1 scenarios produce the same trial metrics whether the auto
        thresholds leave everything scalar (default at these sizes) or force
        the vector solve onto every allocation."""
        baseline = self._trial_metrics(scenario)
        _force_vector_solves(monkeypatch)
        assert self._trial_metrics(scenario) == baseline

    @pytest.mark.parametrize(
        "scenario", ["smoke", "all-to-all", "multi-app-sequence"]
    )
    def test_reference_engine_reproduces_default_trial_records(
        self, scenario, monkeypatch
    ):
        """... and on the reference engine, cold route cache included."""
        baseline = self._trial_metrics(scenario)
        _reference_engine(monkeypatch)
        assert self._trial_metrics(scenario) == baseline


class TestClusteringHeuristic:
    def test_partition_is_deterministic_and_covers_all_vms(self):
        n = 48
        vms = [f"m{i}" for i in range(n)]
        rack = np.arange(n) // 12
        base = np.where(rack[:, None] == rack[None, :], 1.0 * GBITPS, 0.1 * GBITPS)
        profile = NetworkProfile(vms, base)
        reps_a, members_a = cluster_vms_by_rate_profile(profile, vms, 4)
        reps_b, members_b = cluster_vms_by_rate_profile(profile, vms, 4)
        assert reps_a == reps_b and members_a == members_b
        flattened = sorted(vm for group in members_a for vm in group)
        assert flattened == sorted(vms)
        # The rack structure is strong enough that the 4 clusters ARE racks.
        assert {frozenset(g) for g in members_a} == {
            frozenset(vms[i * 12:(i + 1) * 12]) for i in range(4)
        }

    def test_representatives_belong_to_their_clusters(self):
        rng = random.Random(9)
        vms = [f"m{i}" for i in range(20)]
        rates = {
            (a, b): rng.uniform(0.1, 1.0) * GBITPS
            for a in vms for b in vms if a != b
        }
        profile = NetworkProfile(vms=vms, rates_bps=rates)
        reps, members = cluster_vms_by_rate_profile(profile, vms, 5)
        assert len(reps) == len(members)
        for rep, group in zip(reps, members):
            assert rep in group
