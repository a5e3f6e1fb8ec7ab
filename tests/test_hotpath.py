"""Tests for the hot-path performance work: the incremental allocator, the
routing/path caches, the effective-rate matrix, the batched measurement
mesh, the timeline bisection, and the runner's trial memoization.

The central property: every optimisation must be *exact* — same rates, same
placements, same profiles, same trial records as the reference code paths.
"""

import math
import random

import pytest

from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Machine
from repro.core.rate_model import ConnectionLoad, EffectiveRateMatrix, effective_rate
from repro.cloud.registry import make_provider
from repro.errors import MeasurementError, PlacementError, SimulationError
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.net import topology
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand, max_min_allocation
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation, RateTimeline
from repro.net.topology import (
    build_two_rack_cloud,
    build_multi_rooted_tree,
    clear_route_cache,
    route_cache_info,
)
from repro.units import GBITPS, MBYTE
from repro.workloads.generator import HPCloudWorkloadGenerator, WorkloadSpec
from repro.workloads.patterns import scatter_gather, uniform_mesh


def _assert_allocations_match(reference, got, context=""):
    assert set(reference) == set(got), context
    for fid, expected in reference.items():
        actual = got[fid]
        if math.isinf(expected) or math.isinf(actual):
            assert expected == actual, f"{context}: {fid}"
        else:
            scale = max(1.0, abs(expected))
            assert abs(expected - actual) <= 1e-9 * scale, (
                f"{context}: {fid}: {expected} != {actual}"
            )


def _random_instance(rng):
    """Capacities and demands covering caps, empty-link flows, and
    zero-capacity edges."""
    n_links = rng.randint(1, 14)
    caps = {}
    for i in range(n_links):
        roll = rng.random()
        if roll < 0.08:
            caps[f"l{i}"] = 0.0  # zero-capacity edge
        else:
            caps[f"l{i}"] = rng.uniform(0.05, 10.0)
    demands = {}
    for f in range(rng.randint(1, 40)):
        if rng.random() < 0.12:
            links = ()  # flow crossing no shared resource
        else:
            links = tuple(rng.sample(list(caps), rng.randint(1, min(5, n_links))))
        cap = rng.uniform(0.01, 4.0) if rng.random() < 0.45 else None
        demands[f"f{f}"] = FlowDemand(links=links, max_rate=cap)
    return caps, demands


class TestIncrementalAllocator:
    def test_matches_reference_on_randomized_instances(self):
        """~200 random instances: the incremental solve must agree with the
        reference progressive-filling allocator within 1e-9."""
        rng = random.Random(0xA110C)
        for trial in range(200):
            caps, demands = _random_instance(rng)
            allocator = IncrementalAllocator(caps)
            for fid, demand in demands.items():
                allocator.add_demand(fid, demand)
            _assert_allocations_match(
                max_min_allocation(demands, caps), allocator.solve(), f"trial {trial}"
            )

    def test_matches_reference_under_churn(self):
        """Interleaved add/remove deltas keep agreeing with from-scratch."""
        rng = random.Random(7)
        for trial in range(40):
            caps, demands = _random_instance(rng)
            allocator = IncrementalAllocator(caps)
            active = {}
            pool = list(demands)
            events = 0
            while events < 60 and (pool or active):
                if pool and (not active or rng.random() < 0.55):
                    fid = pool.pop(rng.randrange(len(pool)))
                    active[fid] = demands[fid]
                    allocator.add_demand(fid, active[fid])
                else:
                    fid = rng.choice(sorted(active))
                    del active[fid]
                    allocator.remove_flow(fid)
                events += 1
                _assert_allocations_match(
                    max_min_allocation(active, caps),
                    allocator.solve(),
                    f"trial {trial} event {events}",
                )

    def test_solution_cached_until_flow_set_changes(self):
        allocator = IncrementalAllocator({"l0": 1.0})
        allocator.add_flow("a", ["l0"])
        first = allocator.solve()
        assert allocator.solve() is first  # cached
        allocator.add_flow("b", ["l0"])
        second = allocator.solve()
        assert second is not first
        assert second["a"] == pytest.approx(0.5)

    def test_errors(self):
        allocator = IncrementalAllocator({"l0": 1.0})
        allocator.add_flow("a", ["l0"])
        with pytest.raises(SimulationError):
            allocator.add_flow("a", ["l0"])  # duplicate
        with pytest.raises(SimulationError):
            allocator.add_flow("b", ["nope"])  # unknown link
        with pytest.raises(SimulationError):
            allocator.remove_flow("ghost")  # unknown flow

    def test_duplicate_links_on_a_path(self):
        """A flow crossing the same link twice voids the share-heap
        monotonicity invariant; the solver must detect it and still match
        the reference (which subtracts the level once per occurrence)."""
        caps = {"L": 10.0, "M": 9.0}
        demands = {
            "A": FlowDemand(links=("L", "L"), max_rate=4.0),
            "C": FlowDemand(links=("M",)),
            "D": FlowDemand(links=("L", "M")),
        }
        allocator = IncrementalAllocator(caps)
        for fid, demand in demands.items():
            allocator.add_demand(fid, demand)
        _assert_allocations_match(
            max_min_allocation(demands, caps), allocator.solve(), "dup links"
        )
        # Removing the duplicate-link flow restores the fast path.
        allocator.remove_flow("A")
        del demands["A"]
        _assert_allocations_match(
            max_min_allocation(demands, caps), allocator.solve(), "dup removed"
        )

    def test_matches_reference_with_random_duplicate_links(self):
        rng = random.Random(0xD0B)
        for trial in range(60):
            caps, demands = _random_instance(rng)
            # Duplicate a random prefix of some flows' paths.
            mutated = {}
            for fid, demand in demands.items():
                links = demand.links
                if links and rng.random() < 0.4:
                    links = links + links[: rng.randint(1, len(links))]
                mutated[fid] = FlowDemand(links=links, max_rate=demand.max_rate)
            allocator = IncrementalAllocator(caps)
            for fid, demand in mutated.items():
                allocator.add_demand(fid, demand)
            _assert_allocations_match(
                max_min_allocation(mutated, caps),
                allocator.solve(),
                f"dup trial {trial}",
            )

    def test_clear_keeps_capacities(self):
        allocator = IncrementalAllocator({"l0": 2.0})
        allocator.add_flow("a", ["l0"])
        allocator.clear()
        assert len(allocator) == 0
        allocator.add_flow("b", ["l0"])
        assert allocator.solve()["b"] == pytest.approx(2.0)


class TestRateTimelineBisect:
    def _brute_rate_at(self, segments, t):
        for seg in segments:
            if seg.start <= t < seg.end:
                return seg.rate_bps
        return 0.0

    def _brute_average(self, segments, start, end):
        moved = 0.0
        for seg in segments:
            lo, hi = max(start, seg.start), min(end, seg.end)
            if hi > lo:
                moved += seg.rate_bps * (hi - lo)
        return moved / (end - start)

    def test_matches_linear_scan_with_gaps(self):
        rng = random.Random(3)
        for _ in range(50):
            timeline = RateTimeline()
            t = 0.0
            for _ in range(rng.randint(1, 30)):
                t += rng.uniform(0.0, 0.5)  # gaps allowed
                width = rng.uniform(0.01, 1.0)
                timeline.append(t, t + width, rng.choice([0.0, 1e9, rng.uniform(0, 2e9)]))
                t += width
            for _ in range(20):
                q = rng.uniform(-0.5, t + 0.5)
                assert timeline.rate_at(q) == self._brute_rate_at(timeline.segments, q)
                hi = q + rng.uniform(0.01, 2.0)
                assert timeline.average_rate(q, hi) == pytest.approx(
                    self._brute_average(timeline.segments, q, hi)
                )

    def test_boundaries_and_merging(self):
        timeline = RateTimeline()
        timeline.append(0.0, 1.0, 100.0)
        timeline.append(1.0, 2.0, 100.0)  # merges
        assert len(timeline.segments) == 1
        assert timeline.rate_at(0.0) == 100.0
        assert timeline.rate_at(2.0) == 0.0  # end-exclusive
        assert timeline.rate_at(-1.0) == 0.0

    def test_out_of_order_append_rejected(self):
        timeline = RateTimeline()
        timeline.append(1.0, 2.0, 5.0)
        with pytest.raises(SimulationError):
            timeline.append(0.0, 0.5, 5.0)


class TestFluidAllocatorEquivalence:
    def test_incremental_and_reference_runs_agree(self):
        topo = build_two_rack_cloud(n_pairs=6)
        rng = random.Random(21)
        flows = []
        for i in range(60):
            src = f"s{rng.randint(1, 6)}"
            dst = f"r{rng.randint(1, 6)}"
            start = rng.uniform(0.0, 2.0)
            if rng.random() < 0.2:
                flows.append(Flow(f"bg{i}", src, dst, size_bytes=None,
                                  start_time=start, end_time=start + rng.uniform(0.2, 2.0)))
            else:
                cap = 0.1 * GBITPS if rng.random() < 0.3 else None
                flows.append(Flow(f"x{i}", src, dst, size_bytes=rng.uniform(1, 40) * MBYTE,
                                  start_time=start, max_rate_bps=cap))

        def run(mode):
            sim = FluidSimulation(topo, allocator=mode)
            sim.add_flows(flows)
            return sim.run()

        ref, got = run("reference"), run("incremental")
        assert set(ref.completion_times) == set(got.completion_times)
        for fid, expected in ref.completion_times.items():
            assert got.completion_times[fid] == pytest.approx(expected, abs=1e-9)
        assert got.end_time == pytest.approx(ref.end_time, abs=1e-9)
        for fid in ref.timelines:
            assert got.timelines[fid].total_bytes() == pytest.approx(
                ref.timelines[fid].total_bytes(), rel=1e-9, abs=1e-6
            )

    def test_unknown_allocator_rejected(self):
        topo = build_two_rack_cloud(n_pairs=2)
        with pytest.raises(SimulationError):
            FluidSimulation(topo, allocator="wat")


class TestTopologyCaches:
    def test_path_links_memoized_and_invalidated(self):
        topo = build_two_rack_cloud(n_pairs=3)
        first = topo.path_links("s1", "r1")
        assert topo.path_links("s1", "r1") is first
        # Mutating the graph must clear the memo.
        from repro.net.topology import NodeKind
        topo.add_node("extra", NodeKind.HOST)
        topo.add_link("extra", "torS", 1 * GBITPS)
        assert topo.path_links("s1", "r1") is not first

    def test_route_cache_shared_across_identical_structures(self, monkeypatch):
        clear_route_cache()
        a = build_multi_rooted_tree()
        b = build_multi_rooted_tree()
        assert a.structure_token() == b.structure_token()
        # The structured router would answer tree routes arithmetically;
        # drop it so this exercises the generic shared cache.
        monkeypatch.setattr(topology, "_structured_routers", {})
        before = route_cache_info()
        path = a.node_path("host0", "host5")
        after_first = route_cache_info()
        assert after_first["misses"] == before["misses"] + 1
        assert b.node_path("host0", "host5") == path
        after_second = route_cache_info()
        assert after_second["hits"] == after_first["hits"] + 1
        assert after_second["misses"] == after_first["misses"]  # no second computation
        # Clearing drops the entries; the counters are monotonic.
        clear_route_cache()
        assert route_cache_info() == {**after_second, "entries": 0}


class TestEffectiveRateMatrix:
    """The matrix the greedy placer ranks on ``==`` the scalar definition.

    (That placements are unchanged is checked against the scalar
    Algorithm 1 in ``tests/test_admission_arrays.py``.)
    """

    def _profile(self, machines, seed, cross=False):
        rng = random.Random(seed)
        pairs = [(a, b) for a in machines for b in machines if a != b]
        return NetworkProfile(
            vms=list(machines),
            rates_bps={
                pair: rng.uniform(0.05 * GBITPS, 1 * GBITPS) for pair in pairs
            },
            cross_traffic=(
                {pair: rng.uniform(0.0, 3.0) for pair in pairs[::2]}
                if cross else {}
            ),
            intra_vm_rate_bps=4 * GBITPS if cross else math.inf,
        )

    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("model", ["hose", "pipe"])
    def test_matrix_matches_direct_computation_under_load(self, model, cross):
        machines = [f"m{i}" for i in range(6)]
        profile = self._profile(machines, 2, cross=cross)
        board = EffectiveRateMatrix(profile, machines, model=model)
        shadow = ConnectionLoad()
        rng = random.Random(4)
        for _ in range(60):
            i, j = rng.randrange(6), rng.randrange(6)
            board.record(i, j)
            shadow.add(machines[i], machines[j])
            for a, src in enumerate(machines):
                for b, dst in enumerate(machines):
                    assert board.rates[a, b] == effective_rate(
                        profile, src, dst, shadow, model=model
                    )

    def test_unmeasured_pairs_stay_nan_and_unknown_model_is_rejected(self):
        machines = ["a", "b", "c"]
        profile = NetworkProfile(
            vms=machines, rates_bps={("a", "b"): 1e9, ("b", "a"): 2e9}
        )
        board = EffectiveRateMatrix(profile, machines)
        board.record(0, 1)
        assert board.rates[0, 1] == 1e9 * 1.0 / 2.0
        assert math.isnan(board.rates[0, 2]) and math.isnan(board.rates[2, 1])
        assert board.rates[2, 2] == math.inf
        with pytest.raises(PlacementError):
            EffectiveRateMatrix(profile, machines, model="tube")


class TestBatchedMeasurementMesh:
    def _measurer(self, parallelism, seed=3, n_vms=6):
        provider = make_provider("ec2", seed=seed)
        provider.request_vms(n_vms)
        plan = MeasurementPlan(advance_clock=False, parallelism=parallelism)
        return NetworkMeasurer(provider, plan=plan)

    def test_schedule_covers_mesh_with_disjoint_rounds(self):
        measurer = self._measurer(parallelism=3)
        names = [vm.name for vm in measurer.provider.vms()]
        rounds = measurer.schedule_rounds(names)
        seen = []
        for batch in rounds:
            assert 1 <= len(batch) <= 3
            busy = set()
            for src, dst in batch:
                assert src not in busy and dst not in busy
                busy.update((src, dst))
            seen.extend(batch)
        expected = [(s, d) for s in names for d in names if s != d]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))

    def test_parallelism_one_is_the_serial_order(self):
        measurer = self._measurer(parallelism=1)
        names = [vm.name for vm in measurer.provider.vms()]
        rounds = measurer.schedule_rounds(names)
        assert [pair for batch in rounds for pair in batch] == [
            (s, d) for s in names for d in names if s != d
        ]
        assert all(len(batch) == 1 for batch in rounds)

    def test_batched_campaign_is_faster_on_the_modeled_clock(self):
        serial = self._measurer(parallelism=1)
        batched = self._measurer(parallelism=4)
        assert batched.campaign_time_s(8) < serial.campaign_time_s(8)

    def test_batched_measure_is_deterministic(self):
        profiles = [self._measurer(parallelism=4, seed=11).measure() for _ in range(2)]
        assert profiles[0].rates_bps == profiles[1].rates_bps
        assert profiles[0].measurement_duration_s == profiles[1].measurement_duration_s

    def test_batched_measure_covers_the_same_pairs_as_serial(self):
        serial = self._measurer(parallelism=1, seed=11).measure()
        batched = self._measurer(parallelism=4, seed=11).measure()
        assert set(serial.pairs()) == set(batched.pairs())
        assert batched.measurement_duration_s < serial.measurement_duration_s

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(MeasurementError):
            MeasurementPlan(parallelism=0)


class TestRunnerTrialMemoization:
    def test_duplicate_cells_simulated_once(self, monkeypatch):
        import repro.experiments.trials as trials_mod

        calls = []
        original = trials_mod.run_trial

        def counting(scenario, placer, trial, base_seed, *params, **kwargs):
            calls.append((scenario, placer, trial))
            return original(scenario, placer, trial, base_seed, *params, **kwargs)

        monkeypatch.setattr(trials_mod, "run_trial", counting)
        config = ExperimentConfig(
            scenarios=("smoke",),
            placers=("random", "random"),
            trials=2,
            baseline="random",
            workers=1,
        )
        result = ExperimentRunner(config).run()
        assert len(calls) == 2  # 2 trials, each simulated once despite 4 cells
        assert len(result.records) == 4
        by_trial = {}
        for record in result.records:
            by_trial.setdefault(record.trial, []).append(record)
        for trial, records in by_trial.items():
            assert len(records) == 2
            assert records[0].makespan_s == records[1].makespan_s
            assert records[0] is not records[1]

    def test_distinct_cells_not_merged(self, monkeypatch):
        import repro.experiments.trials as trials_mod

        calls = []
        original = trials_mod.run_trial

        def counting(scenario, placer, trial, base_seed, *params, **kwargs):
            calls.append((scenario, placer, trial))
            return original(scenario, placer, trial, base_seed, *params, **kwargs)

        monkeypatch.setattr(trials_mod, "run_trial", counting)
        config = ExperimentConfig(
            scenarios=("smoke",), placers=("random",), trials=2,
            baseline="random", workers=1,
        )
        ExperimentRunner(config).run()
        assert sorted(calls) == [("smoke", "random", 0), ("smoke", "random", 1)]


class TestFluidZenoRegression:
    def test_coincident_finish_times_terminate(self):
        """Flows whose finish times collapse within a float ulp of ``now``
        must complete instead of livelocking (Zeno steps)."""
        topo = build_two_rack_cloud(n_pairs=4)
        sim = FluidSimulation(topo)
        rng = random.Random(99)
        # Many same-path flows with sizes differing by sub-byte amounts
        # produce finish events separated by less than the ulp of the clock.
        for i in range(30):
            sim.add_flow(
                Flow(
                    f"f{i}", "s1", "r1",
                    size_bytes=10 * MBYTE + rng.uniform(0.0, 1e-5),
                    start_time=1000.0,
                )
            )
        result = sim.run()
        assert len(result.completion_times) == 30
