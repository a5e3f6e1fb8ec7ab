"""Million-flow engine properties: vector event loop + structured routing.

Two contracts underpin the large-scale fast paths:

* the vectorised fluid event loop must be *bit-identical* to the scalar
  loop (same completion times, remaining bytes, states, end time, and
  rate-timeline segments) on arbitrary workloads, and
* the arithmetic tree-topology router must reproduce the graph-search
  routes exactly, pair for pair, over entire host meshes.

Both are checked property-style over randomised instances here.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from repro.errors import RoutingError, TopologyError

from repro.net import fluid, topology
from repro.net.flows import Flow
from repro.net.fluid import (
    ALLOCATOR_REFERENCE,
    FluidSimulation,
    LOOP_SCALAR,
    LOOP_VECTOR,
    RateTimeline,
    SimulationError,
)
from repro.net.hose import HoseModel
from repro.net.topology import (
    TreeSpec,
    _lazy_kth_shortest_path,
    build_dumbbell,
    build_multi_rooted_tree,
    clear_route_cache,
    structured_routing_info,
)


def _timelines_equal(a: RateTimeline, b: RateTimeline) -> bool:
    if len(a.segments) != len(b.segments):
        return False
    return all(
        sa.start == sb.start and sa.end == sb.end and sa.rate_bps == sb.rate_bps
        for sa, sb in zip(a.segments, b.segments)
    )


def _assert_results_identical(reference, got, context=""):
    assert got.completion_times == reference.completion_times, context
    assert got.remaining_bytes == reference.remaining_bytes, context
    assert got.end_time == reference.end_time, context
    assert got.states == reference.states, context
    assert set(got.timelines) == set(reference.timelines), context
    for fid in reference.timelines:
        assert _timelines_equal(reference.timelines[fid], got.timelines[fid]), (
            context,
            fid,
            reference.timelines[fid].segments,
            got.timelines[fid].segments,
        )


class TestVectorLoopBitIdentity:
    """Scalar and vector event loops agree exactly, field for field."""

    N_INSTANCES = 200

    def _run_case(self, seed: int) -> None:
        rng = random.Random(seed)
        spec = TreeSpec(
            pods=rng.choice([1, 2, 3]),
            racks_per_pod=rng.choice([1, 2]),
            hosts_per_rack=rng.choice([2, 4]),
            num_cores=rng.choice([1, 2]),
        )
        topo = build_multi_rooted_tree(spec)
        hosts = topo.hosts()
        hose = None
        if rng.random() < 0.4:
            hose = HoseModel.uniform(hosts, rng.choice([0.5e9, 1e9]))
        sim_s = FluidSimulation(topo, hose=hose, loop=LOOP_SCALAR)
        sim_v = FluidSimulation(topo, hose=hose, loop=LOOP_VECTOR)
        for i in range(rng.randint(1, 40)):
            src = rng.choice(hosts)
            dst = rng.choice([h for h in hosts if h != src])
            start = rng.choice([0.0, rng.uniform(0, 2.0), rng.choice([0.5, 1.0])])
            if rng.random() < 0.3:
                # Unbounded flow; include zero-length and near-Zeno windows.
                end = start + rng.choice([0.0, 1e-13, rng.uniform(0.01, 2.0)])
                flow = Flow(
                    flow_id=f"u{i}", src=src, dst=dst, size_bytes=None,
                    start_time=start, end_time=end,
                )
            else:
                size = rng.choice(
                    [0.0, 1e-7, rng.uniform(1, 1e6), rng.choice([1e5, 2e5])]
                )
                max_rate = None
                if rng.random() < 0.2:
                    max_rate = rng.choice([1e6, 1e9, math.inf])
                flow = Flow(
                    flow_id=f"f{i}", src=src, dst=dst, size_bytes=size,
                    start_time=start, max_rate_bps=max_rate,
                )
            sim_s.add_flow(flow)
            sim_v.add_flow(flow)
        until = rng.uniform(0.0, 1.5) if rng.random() < 0.4 else None
        _assert_results_identical(
            sim_s.run(until=until), sim_v.run(until=until), context=f"seed={seed}"
        )

    def test_randomized_instances_bit_identical(self):
        for seed in range(self.N_INSTANCES):
            self._run_case(seed)


class TestLoopPlumbing:
    """Loop selection: the size threshold and the reference pairing."""

    def test_unknown_loop_rejected(self):
        topo = build_multi_rooted_tree(TreeSpec(1, 1, 2, 1))
        with pytest.raises(SimulationError):
            FluidSimulation(topo, loop="turbo")

    def _loop_taken(self, monkeypatch, **kwargs) -> str:
        topo = build_multi_rooted_tree(TreeSpec(1, 1, 4, 1))
        sim = FluidSimulation(topo, **kwargs)
        hosts = topo.hosts()
        for i, (a, b) in enumerate(itertools.permutations(hosts[:3], 2)):
            sim.add_flow(Flow(
                flow_id=f"f{i}", src=a, dst=b, size_bytes=1e5, start_time=0.0,
            ))
        taken = []
        scalar, vector = FluidSimulation._run_scalar, FluidSimulation._run_vector
        monkeypatch.setattr(
            FluidSimulation, "_run_scalar",
            lambda self, *args: taken.append("scalar") or scalar(self, *args),
        )
        monkeypatch.setattr(
            FluidSimulation, "_run_vector",
            lambda self, *args: taken.append("vector") or vector(self, *args),
        )
        sim.run()
        assert len(taken) == 1
        return taken[0]

    def test_auto_obeys_the_flow_threshold(self, monkeypatch):
        monkeypatch.setattr(fluid, "_LOOP_MIN_FLOWS", 0)
        assert self._loop_taken(monkeypatch, loop="auto") == "vector"
        monkeypatch.setattr(fluid, "_LOOP_MIN_FLOWS", 10_000)
        assert self._loop_taken(monkeypatch, loop="auto") == "scalar"

    def test_reference_allocator_forces_the_scalar_loop(self, monkeypatch):
        taken = self._loop_taken(
            monkeypatch, loop=LOOP_VECTOR, allocator=ALLOCATOR_REFERENCE
        )
        assert taken == "scalar"


#: Assorted tree shapes: single rack, ECMP cores, asymmetric pod counts.
_ROUTING_SPECS = (
    TreeSpec(pods=1, racks_per_pod=1, hosts_per_rack=4, num_cores=1),
    TreeSpec(pods=2, racks_per_pod=2, hosts_per_rack=2, num_cores=2),
    TreeSpec(pods=2, racks_per_pod=2, hosts_per_rack=4, num_cores=3),
    TreeSpec(pods=3, racks_per_pod=2, hosts_per_rack=2, num_cores=4),
)

#: More shapes for the array router: a second aggregation tier, one core,
#: more than ten cores ("core10" sorts before "core2"), mixed capacities.
_MATRIX_SPECS = (
    TreeSpec(pods=2, racks_per_pod=2, hosts_per_rack=2, extra_agg_layer=True),
    TreeSpec(pods=3, racks_per_pod=1, hosts_per_rack=2, num_cores=1),
    TreeSpec(pods=2, racks_per_pod=1, hosts_per_rack=3, num_cores=12,
             extra_agg_layer=True, tor_agg_link_bps=5e8, agg_core_link_bps=2e8),
)


class TestStructuredRouting:
    """The arithmetic tree router reproduces graph search exactly."""

    @pytest.mark.parametrize("spec", _ROUTING_SPECS, ids=str)
    def test_matches_networkx_over_the_full_mesh(self, spec, monkeypatch):
        fast = build_multi_rooted_tree(spec)
        slow = build_multi_rooted_tree(spec)
        assert structured_routing_info()["routers"] >= 1
        # With no router registered and a cold shared cache, every route
        # is a graph search.
        with monkeypatch.context() as patch:
            patch.setattr(topology, "_structured_routers", {})
            clear_route_cache()
            expected = {pair: slow.node_path(*pair) for pair in slow.host_pairs()}
        hits = structured_routing_info()["hits"]
        for (src, dst), path in expected.items():
            assert fast.node_path(src, dst) == path, (src, dst)
            assert fast.hop_count(src, dst) == len(path) - 1
        assert structured_routing_info()["hits"] - hits == len(expected)

    @pytest.mark.parametrize("structured", [True, False])
    @pytest.mark.parametrize("spec", _ROUTING_SPECS + _MATRIX_SPECS, ids=str)
    def test_path_links_matrix_agrees_with_path_links(
        self, spec, structured, monkeypatch
    ):
        """The array rows are ``path_links``'s, pair by pair: every relation
        (same rack / pod / cross-pod), loopback pairs, and pairs the tree
        arithmetic does not cover (a switch endpoint: graph search)."""
        topo = build_multi_rooted_tree(spec)
        if not structured:
            monkeypatch.setattr(topology, "_structured_routers", {})
        hosts = topo.hosts()
        tor = topo.rack_of(hosts[0])
        pairs = (
            topo.host_pairs()
            + [(h, h) for h in hosts[:2]]
            + [(tor, hosts[-1]), (hosts[-1], tor)]
        )
        arithmetic = len(topo.host_pairs())
        hits = structured_routing_info()["hits"]
        rows, lengths, link_ids = topo.path_links_matrix(pairs)
        counted = structured_routing_info()["hits"] - hits
        assert counted == (arithmetic if structured else 0)
        assert link_ids == list(topo.capacities())
        assert rows.shape == (len(pairs), lengths.max())
        assert rows.dtype == lengths.dtype == np.int32
        for i, (src, dst) in enumerate(pairs):
            expected = [link.link_id for link in topo.path_links(src, dst)]
            got = [link_ids[j] for j in rows[i, : lengths[i]]]
            assert got == expected, (src, dst)
            assert (rows[i, lengths[i]:] == -1).all()
        bottlenecks = topo.path_bottlenecks(pairs)
        assert bottlenecks.tolist() == [
            min(link.capacity_bps for link in topo.path_links(src, dst))
            for src, dst in pairs
        ]
        # "host01" parses to host 1 but is not its canonical name.
        with pytest.raises(TopologyError, match="host01"):
            topo.path_links_matrix([(hosts[0], hosts[-1]), ("host01", hosts[0])])

    @pytest.mark.parametrize("structured", [True, False])
    @pytest.mark.parametrize("spec", _ROUTING_SPECS[1:] + _MATRIX_SPECS, ids=str)
    def test_host_positions_route_as_their_names_do(
        self, spec, structured, monkeypatch
    ):
        """An ``(m, 2)`` array of ``host_index`` positions gives the rows of
        the name pairs it stands for — loopbacks included, batches under the
        array router's minimum included, and on a tree whose hosts were
        added in another order than ``host0, host1, ...``."""
        built = build_multi_rooted_tree(spec)
        shuffled = topology.Topology(intra_host_bps=spec.intra_host_bps)
        rng = random.Random(5)
        for name in rng.sample(built.nodes(), len(built.nodes())):
            shuffled.add_node(name, built.node_kind(name))
        for link in rng.sample(built.links(), len(built.links())):
            if link.src < link.dst:
                shuffled.add_link(link.src, link.dst, link.capacity_bps, link.kind)
        assert shuffled.structure_token() == built.structure_token()
        if not structured:
            monkeypatch.setattr(topology, "_structured_routers", {})
        for topo in (built, shuffled):
            hosts = topo.hosts()
            pairs = topo.host_pairs() + [(h, h) for h in hosts[:3]]
            at = np.array(
                [(topo.host_index(a), topo.host_index(b)) for a, b in pairs]
            )
            hits = structured_routing_info()["hits"]
            rows, lengths, link_ids = topo.path_links_matrix(at)
            counted = structured_routing_info()["hits"] - hits
            assert counted == (len(topo.host_pairs()) if structured else 0)
            by_name = topo.path_links_matrix(pairs)
            assert (rows == by_name[0]).all() and (lengths == by_name[1]).all()
            assert link_ids == by_name[2]
            few = topo.path_links_matrix(at[:5])
            assert (few[0] == topo.path_links_matrix(pairs[:5])[0]).all()
            assert (
                topo.path_bottlenecks(at) == topo.path_bottlenecks(pairs)
            ).all()
        assert [built.host_index(f"host{i}") for i in range(spec.num_hosts)] == list(
            range(spec.num_hosts)
        )

    def test_host_positions_on_a_topology_without_a_router(self):
        topo = build_dumbbell(n_pairs=3)
        order = ["s1", "r1", "s2", "r2", "s3", "r3"]  # as added
        assert [topo.host_index(name) for name in order] == list(range(6))
        at = np.array([(0, 1), (2, 5), (4, 4), (1, 0)] * 5)
        pairs = [(order[a], order[b]) for a, b in at.tolist()]
        assert (
            topo.path_links_matrix(at)[0] == topo.path_links_matrix(pairs)[0]
        ).all()
        empty = topo.path_links_matrix(np.zeros((0, 2), dtype=np.intp))
        assert empty[0].shape == (0, 0) and empty[1].shape == (0,)
        with pytest.raises(TopologyError, match="unknown host 'swL'"):
            topo.host_index("swL")
        for bad in (
            np.array([[0, 6]]), np.array([[-1, 0]]), np.array([0, 1]),
            np.array([[0.0, 1.0]]), np.zeros((2, 3), dtype=np.intp),
        ):
            with pytest.raises(RoutingError, match="host positions"):
                topo.path_links_matrix(bad)

    def test_path_links_matrix_of_nothing(self):
        topo = build_multi_rooted_tree(_ROUTING_SPECS[1])
        rows, lengths, _ = topo.path_links_matrix([])
        assert rows.shape == (0, 0) and lengths.shape == (0,)
        assert topo.path_bottlenecks([]).shape == (0,)

    def test_lazy_kth_path_matches_eager_sort(self):
        nx = pytest.importorskip("networkx")  # the oracle; a ``dev`` extra
        topo = build_multi_rooted_tree(_ROUTING_SPECS[3])
        graph = nx.Graph(
            (link.src, link.dst) for link in topo.links() if link.src != link.dst
        )
        rng = random.Random(11)
        for src, dst in rng.sample(topo.host_pairs(), 25):
            eager = sorted(nx.all_shortest_paths(graph, src, dst))
            for k in range(len(eager)):
                assert _lazy_kth_shortest_path(graph, src, dst, k) == eager[k]
            digest = hashlib.sha256(f"{src}|{dst}".encode()).digest()
            k = int.from_bytes(digest[:4], "big") % len(eager)
            assert _lazy_kth_shortest_path(graph, src, dst) == eager[k]
