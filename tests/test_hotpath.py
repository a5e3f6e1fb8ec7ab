"""Tests for the hot-path performance work: the incremental allocator, the
routing/path caches, the effective-rate matrix, the timeline bisection, and
the runner's trial memoization.

The central property: every optimisation must be *exact* — same rates, same
placements, same profiles, same trial records as the reference code paths.
"""

import math
import random

import pytest

from helpers import build_two_rack_cloud, pair_matrix
from oracles.effective_rate import ConnectionLoad, effective_rate
from oracles.graph_search import build_searched_tree, use_graph_search
from oracles.max_min import max_min_allocation, use_reference_engine
from repro.core.network_profile import NetworkProfile
from repro.core.rate_model import EffectiveRateMatrix
from repro.cloud.registry import make_provider
from repro.errors import ExperimentError, MeasurementError, SimulationError
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.net import topology
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation, RateTimeline
from repro.units import GBITPS, MBYTE


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
    """Capacities and demands covering empty-link flows and zero-capacity
    edges."""
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
        demands[f"f{f}"] = FlowDemand(links=links)
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
                allocator.add_flow(fid, demand.links)
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
                    active[fid] = demand = demands[fid]
                    allocator.add_flow(fid, demand.links)
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

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    @pytest.mark.parametrize("via", ["constructor", "update"])
    def test_nan_and_negative_capacities_are_rejected_by_name(self, via, bad):
        """A NaN capacity used to read as unlimited, and a negative one
        solved to a negative rate beside a rate above the other link's
        capacity.  Both are refused, naming the link, before any entry of
        the mapping is applied."""
        if via == "constructor":
            with pytest.raises(SimulationError, match="'l1'"):
                IncrementalAllocator({"l2": 10.0, "l1": bad})
            return
        allocator = IncrementalAllocator({"l1": 4.0, "l2": 10.0})
        allocator.add_flow("f", ["l1", "l2"])
        allocator.add_flow("g", ["l2"])
        assert allocator.solve() == {"f": 4.0, "g": 6.0}
        with pytest.raises(SimulationError, match="'l1'"):
            allocator.update_capacities({"l2": 5.0, "l1": bad})
        assert allocator.solve() == {"f": 4.0, "g": 6.0}


class TestRateTimelineBisect:

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
                hi = q + rng.uniform(0.01, 2.0)
                assert timeline.average_rate(q, hi) == pytest.approx(
                    self._brute_average(timeline.segments, q, hi)
                )

    def test_boundaries_and_merging(self):
        timeline = RateTimeline()
        timeline.append(0.0, 1.0, 100.0)
        timeline.append(1.0, 2.0, 100.0)  # merges
        assert len(timeline.segments) == 1
        assert timeline.average_rate(1.5, 2.5) == 50.0  # end-exclusive

    def test_out_of_order_append_rejected(self):
        timeline = RateTimeline()
        timeline.append(1.0, 2.0, 5.0)
        with pytest.raises(SimulationError):
            timeline.append(0.0, 0.5, 5.0)


class TestFluidAllocatorEquivalence:
    def test_incremental_and_reference_runs_agree(self, monkeypatch):
        topo = build_two_rack_cloud(n_pairs=6)
        rng = random.Random(21)
        flows = []
        for i in range(60):
            src = f"s{rng.randint(1, 6)}"
            dst = f"r{rng.randint(1, 6)}"
            start = rng.uniform(0.0, 2.0)
            if rng.random() < 0.2:
                flows.append(Flow(f"bg{i}", src, dst, size_bytes=rng.uniform(40, 200) * MBYTE,
                                  start_time=start))
            else:
                flows.append(Flow(f"x{i}", src, dst, size_bytes=rng.uniform(1, 40) * MBYTE,
                                  start_time=start))

        def run(reference):
            with monkeypatch.context() as patch:
                if reference:
                    use_reference_engine(patch)
                sim = FluidSimulation(topo)
                sim.add_flows(flows)
                return sim.run()

        ref, got = run(True), run(False)
        assert set(ref.completion_times) == set(got.completion_times)
        for fid, expected in ref.completion_times.items():
            assert got.completion_times[fid] == pytest.approx(expected, abs=1e-9)
        assert got.end_time == pytest.approx(ref.end_time, abs=1e-9)
        def moved(timeline):
            return sum(s.rate_bps * (s.end - s.start) / 8 for s in timeline.segments)

        for fid in ref.timelines:
            assert moved(got.timelines[fid]) == pytest.approx(
                moved(ref.timelines[fid]), rel=1e-9, abs=1e-6
            )


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

    def test_graph_search_routes_are_memoised_per_topology(self, monkeypatch):
        """With no router, a route is searched once per topology: again on
        a fresh copy of the same graph, never again on one that has it (and
        providers of one shape share their tree, so its routes)."""
        use_graph_search(monkeypatch)
        searched = []
        search = topology._lazy_kth_shortest_path

        def counting(adjacency, src, dst, k=None):
            searched.append((src, dst))
            return search(adjacency, src, dst, k)

        monkeypatch.setattr(topology, "_lazy_kth_shortest_path", counting)
        a = build_searched_tree()
        b = build_searched_tree()
        assert a.links() == b.links()
        path = a.node_path("host0", "host5")
        assert a.node_path("host0", "host5") is path
        assert b.node_path("host0", "host5") == path
        assert searched == [("host0", "host5")] * 2
        first, second = make_provider("ec2", seed=0), make_provider("ec2", seed=1)
        assert first.topology is second.topology
        first.topology.node_path("host0", "host5")
        assert second.topology.node_path("host0", "host5") == path
        assert len(searched) == 3


class TestEffectiveRateMatrix:
    """The matrix the greedy placer ranks on ``==`` the scalar definition.

    (That placements are unchanged is checked against the scalar
    Algorithm 1 in ``tests/test_admission_arrays.py``.)
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_records_and_reads_equal_the_scalar_rate(self, seed):
        """Connections recorded between reads of one row, one column and
        the whole matrix, in random order, on random profiles with
        unmeasured pairs: every entry a read returns ``==`` the scalar rate
        at that moment (``NaN`` where the scalar model has no measurement),
        however many connections a source recorded since its row was last
        divided."""
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        machines = [f"m{i}" for i in range(n)]
        rates = {
            (a, b): rng.uniform(0.05 * GBITPS, 1 * GBITPS)
            for a in machines for b in machines if a != b and rng.random() > 0.2
        }
        intra = rng.choice([math.inf, 4 * GBITPS])
        profile = NetworkProfile(
            machines, pair_matrix(machines, rates), intra_vm_rate_bps=intra
        )
        board = EffectiveRateMatrix(profile, machines)
        shadow = ConnectionLoad()

        def scalar(a, b):
            try:
                return effective_rate(profile, machines[a], machines[b], shadow)
            except MeasurementError:
                return math.nan

        def same(got, a, b):
            want = scalar(a, b)
            return got == want or (math.isnan(got) and math.isnan(want))

        for _ in range(200):
            action = rng.random()
            if action < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                board.record(i, j)
                shadow.add(machines[i], machines[j])
            elif action < 0.7:
                a = rng.randrange(n)
                row = board.row(a)
                assert all(same(row[b], a, b) for b in range(n))
            elif action < 0.9:
                b = rng.randrange(n)
                column = board.column(b)
                assert all(same(column[a], a, b) for a in range(n))
            else:
                matrix = board.rates
                assert all(same(matrix[a, b], a, b) for a in range(n) for b in range(n))


class TestRunnerTrialMemoization:
    @pytest.mark.parametrize(
        "grid, named",
        [
            ({"placers": ("random", "random")}, "placer 'random'"),
            ({"placers": ("ilp", "choreo-optimal")}, "placer 'ilp'"),
            ({"scenarios": ("smoke", "all-to-all", "smoke")}, "scenario 'smoke'"),
        ],
    )
    def test_duplicate_cells_are_refused_by_name(self, grid, named):
        """A repeated scenario or placer (after alias canonicalisation) would
        put the same cells in the grid twice and count one trial twice in
        the summary: the config refuses it and names it."""
        config = dict(scenarios=("smoke",), trials=1, baseline="random", workers=1)
        config.update(grid)
        with pytest.raises(ExperimentError, match=f"{named} is listed more than once"):
            ExperimentConfig(**config)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "smoke", "--placers", "greedy,greedy"],
            ["--scenario", "smoke", "--scenario", "smoke", "--placers", "greedy"],
        ],
    )
    def test_the_cli_refuses_a_repeated_name(self, argv, capsys):
        from repro.experiments.cli import main

        assert main(["run", "--trials", "1", "--output", "", *argv]) == 2
        assert "is listed more than once" in capsys.readouterr().err

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
