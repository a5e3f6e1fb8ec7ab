"""Tests for the datacenter-scale hot path: the array-backed (vectorised)
max-min solve.

The central property, as everywhere in this suite: the fast path is
*exact*.  The vector solve must be bit-identical to the scalar solve (not
merely close).
"""

import math
import random

import pytest

from helpers import build_two_rack_cloud, pair_matrix
from oracles.graph_search import use_graph_search
from oracles.max_min import (
    force_solves,
    max_min_allocation,
    use_reference_engine,
)
from repro.core.network_profile import NetworkProfile
from repro.errors import MeasurementError, SimulationError
from repro.net.alloc import _BATCH_MIN, IncrementalAllocator
from repro.net.fairness import FlowDemand, max_min_violations, segment_violations
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation
from repro.net.topology import TreeSpec, build_multi_rooted_tree
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
        demands[f"f{f}"] = FlowDemand(links=links)
    return caps, demands


def _solves(patch, vector, caps, script, every=True):
    """Replay an edit ``script`` — ``(flow id, demand)`` adds and
    ``(flow id, None)`` removals — on one allocator whose solves are all
    forced onto one path; the rates after every edit (``every``) or after
    the last one only."""
    with patch.context() as forced:
        force_solves(forced, vector)
        allocator = IncrementalAllocator(caps)
        rates = []
        for fid, demand in script:
            if demand is None:
                allocator.remove_flow(fid)
            else:
                allocator.add_flow(fid, demand.links)
            if every:
                rates.append(dict(allocator.solve()))
        return rates if every else [dict(allocator.solve())]


class TestVectorSolveBitIdentity:
    def test_vector_matches_scalar_bitwise_on_random_instances(self, monkeypatch):
        """The headline invariant: dict-equality (==), not approximate."""
        for trial in range(120):
            rng = random.Random(1000 + trial)
            caps, demands = _random_instance(rng)
            script = list(demands.items())
            scalar = _solves(monkeypatch, False, caps, script, every=False)
            vector = _solves(monkeypatch, True, caps, script, every=False)
            assert scalar == vector, f"trial {trial}"

    def test_vector_matches_scalar_bitwise_under_churn(self, monkeypatch):
        rng = random.Random(77)
        caps, demands = _random_instance(rng, n_links_max=20, n_flows_max=60)
        script = []
        active = []
        pool = list(demands)
        for step in range(200):
            if pool and (not active or rng.random() < 0.55):
                fid = pool.pop(rng.randrange(len(pool)))
                script.append((fid, demands[fid]))
                active.append(fid)
            else:
                fid = active.pop(rng.randrange(len(active)))
                script.append((fid, None))
                pool.append(fid)
        scalar = _solves(monkeypatch, False, caps, script)
        vector = _solves(monkeypatch, True, caps, script)
        for step, (want, got) in enumerate(zip(scalar, vector)):
            assert want == got, f"step {step}"

    def test_vector_agrees_with_reference_allocator(self, monkeypatch):
        force_solves(monkeypatch, True)
        for trial in range(40):
            rng = random.Random(9000 + trial)
            caps, demands = _random_instance(rng)
            vector = IncrementalAllocator(caps)
            for fid, demand in demands.items():
                vector.add_flow(fid, demand.links)
            got = vector.solve()
            ref = max_min_allocation(demands, caps)
            assert set(ref) == set(got)
            for fid, expected in ref.items():
                actual = got[fid]
                if math.isinf(expected) or math.isinf(actual):
                    assert expected == actual, fid
                else:
                    assert abs(expected - actual) <= 1e-9 * max(1.0, expected), fid

    def test_infinite_capacity_universe(self, monkeypatch):
        caps = {"a": math.inf, "b": math.inf}
        script = [
            ("x", FlowDemand(links=("a",))),
            ("y", FlowDemand(links=("a", "b"))),
            ("z", FlowDemand(links=("b",))),
        ]
        scalar = _solves(monkeypatch, False, caps, script, every=False)
        vector = _solves(monkeypatch, True, caps, script, every=False)
        assert scalar == vector
        assert vector[-1] == {"x": math.inf, "y": math.inf, "z": math.inf}


def _pod_instance(seed):
    """384 flows between random host pairs of one 4 × 20 pod, 50 of them
    then retired: the family on which a scalar heap that corrected only
    stale entries *above* a link's share took a tied bottleneck out of
    ``argmin``'s order (seed 145 parted in 42 rates)."""
    topo = build_multi_rooted_tree(TreeSpec(pods=1, racks_per_pod=4, hosts_per_rack=20))
    hosts = topo.hosts()
    rng = random.Random(seed)
    flows = {}
    for f in range(384):
        src, dst = rng.sample(hosts, 2)
        flows[f"f{f}"] = FlowDemand(links=tuple(link.link_id for link in topo.path_links(src, dst)))
    return topo.capacities(), flows, rng.sample(list(flows), 50)


def _fresh(caps, demands, vector):
    with pytest.MonkeyPatch.context() as patch:
        force_solves(patch, vector)
        allocator = IncrementalAllocator(caps)
        for fid, demand in demands.items():
            allocator.add_flow(fid, demand.links)
        return allocator.solve()


class TestOneBottleneckRule:
    @pytest.mark.parametrize("seed", [119, 145, 167, 186, *range(20)])
    def test_full_scalar_full_vector_and_live_solves_are_equal(self, seed):
        caps, demands, retired = _pod_instance(seed)
        live = IncrementalAllocator(caps)
        for fid, demand in demands.items():
            live.add_flow(fid, demand.links)
        live.solve()
        for fid in retired:
            live.remove_flow(fid)
            del demands[fid]
            live.solve()
        scalar = _fresh(caps, demands, vector=False)
        vector = _fresh(caps, demands, vector=True)
        assert scalar == vector == live.solve()
        assert max_min_violations(demands, caps, scalar) == []
        stats = live.solver_stats()
        assert stats["full_solves"] + stats["partial_solves"] == 1 + len(retired)

    @pytest.mark.parametrize("edit", ["add_flow", "small batch", "big batch"])
    def test_a_path_that_repeats_a_link_is_refused_by_name(self, edit):
        caps = {f"l{i}": float(i + 1) for i in range(8)}
        allocator = IncrementalAllocator(caps)
        for i in range(4):
            allocator.add_flow(f"kept{i}", [f"l{i}", f"l{i + 4}"])
        before = dict(allocator.solve())
        bad = [2, 5, 2]
        with pytest.raises(SimulationError, match=r"'loop'.*'l2'"):
            if edit == "add_flow":
                allocator.add_flow("loop", [f"l{i}" for i in bad])
            else:
                n = 3 if edit == "small batch" else _BATCH_MIN + 1
                assert (n < _BATCH_MIN) == (edit == "small batch")
                # The offending row comes last, after rows that are valid.
                ids = [f"new{i}" for i in range(n - 1)] + ["loop"]
                rows = [i % 8 for i in range(n - 1)] + bad
                lengths = [1] * (n - 1) + [len(bad)]
                allocator.add_flows(ids, np.array(rows), np.array(lengths))
        assert len(allocator) == 4
        assert allocator.solve() == before
        assert allocator.add_flow("loop", ["l2", "l5"]) >= 0


class TestVectorModeSelection:
    def test_auto_thresholds_gate_the_vector_path(self, monkeypatch):
        caps = {f"l{i}": 1 * GBITPS for i in range(8)}
        allocator = IncrementalAllocator(caps)
        for f in range(8):
            allocator.add_flow(f"f{f}", [f"l{f}"])
        assert not allocator.uses_vector_path()  # below default thresholds
        with monkeypatch.context() as patch:
            force_solves(patch, True)
            assert allocator.uses_vector_path()
        assert not allocator.uses_vector_path()

    def test_forced_vector_below_thresholds_still_exact(self, monkeypatch):
        force_solves(monkeypatch, True)
        caps = {"l": 1 * GBITPS}
        vector = IncrementalAllocator(caps)
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
                        flow_id=f"bg{i}", src=src, dst=dst,
                        size_bytes=rng.uniform(60, 240) * MBYTE, start_time=start,
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

    def test_vector_allocator_mode_matches_reference_and_incremental(
        self, monkeypatch
    ):
        topo = build_two_rack_cloud(n_pairs=6)
        flows = self._flows(5, 6, 40)

        def run(engine):
            with monkeypatch.context() as patch:
                engine(patch)
                sim = FluidSimulation(topo)
                sim.add_flows(flows)
                return sim.run()

        ref = run(use_reference_engine)
        paths = {
            f.flow_id: [link.link_id for link in topo.path_links(f.src, f.dst)]
            for f in flows
        }
        for engine in (lambda patch: None, lambda patch: force_solves(patch, True)):
            got = run(engine)
            assert segment_violations(got, paths, topo.capacities()) == []
            assert set(ref.completion_times) == set(got.completion_times)
            for fid, t in ref.completion_times.items():
                assert abs(t - got.completion_times[fid]) <= 1e-9 * max(1.0, t)
            assert abs(ref.end_time - got.end_time) <= 1e-9 * max(1.0, ref.end_time)


class TestRateMatrix:
    def _profile(self, n=5, seed=3):
        rng = random.Random(seed)
        vms = [f"m{i}" for i in range(n)]
        rates = {
            (a, b): rng.uniform(0.1 * GBITPS, 1 * GBITPS)
            for a in vms for b in vms if a != b
        }
        return vms, rates, NetworkProfile(vms, pair_matrix(vms, rates))

    def test_matrix_matches_pairwise_rates(self):
        vms, rates, profile = self._profile()
        matrix = profile.rate_matrix()
        for i, a in enumerate(vms):
            for j, b in enumerate(vms):
                if i == j:
                    assert math.isinf(matrix[i, j])
                else:
                    assert matrix[i, j] == rates[(a, b)]
        assert profile.hose_rate(vms[0]) == max(rates[(vms[0], b)] for b in vms[1:])
        # A profile built from another's matrix is the same profile.
        np.testing.assert_array_equal(NetworkProfile(vms, matrix).rate_matrix(), matrix)

    def test_matrix_reorders_and_rejects_unknown_vms(self):
        vms, rates, profile = self._profile()
        order = list(reversed(vms))
        matrix = profile.rate_matrix(order=order)
        assert matrix[0, 1] == rates[(vms[-1], vms[-2])]
        with pytest.raises(MeasurementError):
            profile.rate_matrix(order=["nope"])

    def test_a_profile_cannot_be_changed_after_construction(self):
        vms, rates, _ = self._profile(n=3)
        pair = (vms[0], vms[1])
        matrix = pair_matrix(vms, rates)
        profile = NetworkProfile(vms, matrix)
        matrix[0, 1] = 42.0  # the profile holds its own copy
        assert not profile.rate_matrix().flags.writeable
        with pytest.raises(ValueError):
            profile.rate_matrix()[0, 1] = 42.0
        assert profile.rate_matrix()[0, 1] == rates[pair]
        # A reordered matrix is the caller's own copy.
        profile.rate_matrix(order=vms)[0, 1] = 42.0
        assert profile.rate_matrix()[0, 1] == rates[pair]

    def test_per_pair_times_fall_back_to_measured_at(self):
        vms = ["a", "b", "c"]
        rates = {("a", "b"): 1e9, ("b", "a"): 2e9, ("c", "a"): 3e9}
        times = {("a", "b"): 7.0, ("c", "a"): 9.0}
        timed = NetworkProfile(
            vms, pair_matrix(vms, rates), measured_at=5.0,
            pair_measured_at=pair_matrix(vms, times),
        )
        untimed = NetworkProfile(vms, pair_matrix(vms, rates), measured_at=5.0)
        assert timed.rates_bps == rates
        assert list(timed.rates_bps) == [("a", "b"), ("b", "a"), ("c", "a")]
        for profile, stamp in ((timed, times.get), (untimed, lambda _, at: at)):
            stamps = profile.measured_at_matrix()
            for i, src in enumerate(vms):
                for j, dst in enumerate(vms):
                    if (src, dst) in rates:
                        assert stamps[i, j] == stamp((src, dst), 5.0)
                    else:
                        assert math.isnan(stamps[i, j])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(rates_bps={("a", "b"): 1e9}), r"rates_bps must be an \(2, 2\) array"),
            (dict(rates_bps=[[1.0, 2.0], [3.0]]), "rates_bps must be an"),
            (dict(rates_bps=[[1.0, 0.0], [1.0, 1.0]]), "positive"),
            (dict(rates_bps=np.ones((3, 3))), r"shape \(3, 3\)"),
            (dict(pair_measured_at={("a", "b"): 1.0}), "pair_measured_at must be an"),
            (
                dict(pair_measured_at=[[math.nan, math.nan], [1.0, math.nan]]),
                "unmeasured pair",
            ),
            (dict(vms=["a", "a"]), "duplicate VM names"),
            (dict(degraded_pairs={("a", "zz"): "lost"}), "unknown VM"),
            (dict(degraded_pairs={("b", "b"): "lost"}), "self pairs"),
            (dict(degraded_pairs={("a", "b"): "lost"}), "both measured and degraded"),
        ],
    )
    def test_constructor_rejects_inconsistent_measurements(self, kwargs, message):
        fields = dict(vms=["a", "b"], rates_bps=[[math.nan, 1e9], [math.nan, math.nan]])
        with pytest.raises(MeasurementError, match=message):
            NetworkProfile(**{**fields, **kwargs})


def _reference_engine(patch):
    """What the fluid engine did before any optimisation: max-min from
    scratch at every event, the scalar loop, every route a graph search
    (on hand-built trees of its own: no shared tree carries a router or a
    route in)."""
    use_reference_engine(patch)
    use_graph_search(patch)


class TestTierOneScenarioBitIdentity:
    @staticmethod
    def _trial_metrics(scenario):
        from repro.experiments.trials import run_trial

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
        force_solves(monkeypatch, True)
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
