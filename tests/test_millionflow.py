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
import random

import numpy as np
import pytest

from helpers import build_dumbbell
from oracles.graph_search import hand_built
from oracles.max_min import run_loop
from repro.errors import RoutingError, TopologyError

from repro import obs
from repro.net import fluid
from repro.net.fairness import segment_violations
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation, RateTimeline
from repro.net.links import hose_link_id
from repro.net.topology import (
    NodeKind,
    TreeSpec,
    _lazy_kth_shortest_path,
    build_multi_rooted_tree,
)


def _structured_hits() -> int:
    return obs.metrics.snapshot().get("repro.routes.structured_hits", 0)


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
        # A hose on every host, as the provider builds one per VM.
        hose = {}
        if rng.random() < 0.4:
            rate = rng.choice([0.5e9, 1e9])
            hose = {hose_link_id(host): rate for host in hosts}
        sim_s = FluidSimulation(topo, extra_capacities=hose)
        sim_v = FluidSimulation(topo, extra_capacities=hose)
        paths = {}
        for i in range(rng.randint(1, 40)):
            src = rng.choice(hosts)
            dst = rng.choice([h for h in hosts if h != src])
            start = rng.choice([0.0, rng.uniform(0, 2.0), rng.choice([0.5, 1.0])])
            if rng.random() < 0.3:
                # A long transfer: it runs past most ``until`` cuts.
                size = rng.uniform(1e7, 1e8)
            else:
                size = rng.choice(
                    [0.0, 1e-7, rng.uniform(1, 1e6), rng.choice([1e5, 2e5])]
                )
            flow = Flow(
                flow_id=f"f{i}", src=src, dst=dst, size_bytes=size, start_time=start
            )
            extra = [hose_link_id(src)] if hose else []
            paths[flow.flow_id] = [l.link_id for l in topo.path_links(src, dst)] + extra
            sim_s.add_flow(flow, extra)
            sim_v.add_flow(flow, extra)
        until = rng.uniform(0.0, 1.5) if rng.random() < 0.4 else None
        got = run_loop(sim_v, vector=True, until=until)
        _assert_results_identical(
            run_loop(sim_s, vector=False, until=until), got, context=f"seed={seed}"
        )
        assert segment_violations(got, paths, sim_v.capacities) == [], seed

    def test_randomized_instances_bit_identical(self):
        for seed in range(self.N_INSTANCES):
            self._run_case(seed)


class TestLoopPlumbing:
    """Loop selection: the size threshold alone picks the loop."""

    def _loop_taken(self, monkeypatch) -> str:
        topo = build_multi_rooted_tree(TreeSpec(1, 1, 4, 1))
        sim = FluidSimulation(topo)
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
        assert self._loop_taken(monkeypatch) == "vector"
        monkeypatch.setattr(fluid, "_LOOP_MIN_FLOWS", 10_000)
        assert self._loop_taken(monkeypatch) == "scalar"


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

    @pytest.mark.parametrize("spec", _ROUTING_SPECS + _MATRIX_SPECS, ids=str)
    def test_a_hand_built_copy_routes_every_pair_as_the_tree_does(self, spec):
        """A copy of the tree added node by node, in a shuffled order, has
        no router: it routes by graph search.  For every ordered pair of
        hosts, by name and by position, the copy's rows are the tree's, and
        so are its node paths and hop counts, which the tree's router answers."""
        built = build_multi_rooted_tree(spec)
        copy = hand_built(built, seed=5)
        assert copy._router is None
        assert copy._host_names != built._host_names  # other positions
        hosts = built.hosts()
        pairs = list(itertools.product(hosts, hosts))
        hits = _structured_hits()
        want = copy.path_links_matrix(pairs)
        assert _structured_hits() == hits
        got = built.path_links_matrix(pairs)
        assert _structured_hits() - hits == len(built.host_pairs())

        def by_id(rows, lengths, link_ids):
            return [tuple(link_ids[j] for j in row[:n]) for row, n in zip(rows, lengths)]

        assert by_id(*got) == by_id(*want)
        for topo, rows in ((built, got), (copy, want)):
            at = np.array([(topo.host_index(a), topo.host_index(b)) for a, b in pairs])
            assert by_id(*topo.path_links_matrix(at)) == by_id(*rows)
        # The array route leaves the scalar path memo empty, so every scalar
        # answer below comes from the router: hop counts without a node path
        # (no hit), then one hit per node path.
        assert not built._path_cache
        ordered = built.host_pairs()
        hits = _structured_hits()
        hops = [built.hop_count(src, dst) for src, dst in ordered]
        assert _structured_hits() == hits
        paths = [built.node_path(src, dst) for src, dst in ordered]
        assert _structured_hits() - hits == len(ordered)
        for (src, dst), hop, path in zip(ordered, hops, paths):
            want = copy.node_path(src, dst)
            assert path == want, (src, dst)
            assert hop == copy.hop_count(src, dst) == len(want) - 1

    @pytest.mark.parametrize("structured", [True, False])
    @pytest.mark.parametrize("spec", _ROUTING_SPECS + _MATRIX_SPECS, ids=str)
    def test_path_links_matrix_agrees_with_path_links(self, spec, structured):
        """The array rows are ``path_links``'s, pair by pair: every relation
        (same rack / pod / cross-pod), loopback pairs, and pairs the tree
        arithmetic does not cover (a switch endpoint: graph search)."""
        topo = build_multi_rooted_tree(spec)
        if not structured:
            topo = hand_built(topo)
        hosts = topo.hosts()
        tor = topo.rack_of(hosts[0])
        pairs = (
            topo.host_pairs()
            + [(h, h) for h in hosts[:2]]
            + [(tor, hosts[-1]), (hosts[-1], tor)]
        )
        arithmetic = len(topo.host_pairs())
        hits = _structured_hits()
        rows, lengths, link_ids = topo.path_links_matrix(pairs)
        counted = _structured_hits() - hits
        assert counted == (arithmetic if structured else 0)
        assert link_ids == list(topo.capacities())
        assert rows.shape == (len(pairs), lengths.max())
        assert rows.dtype == lengths.dtype == np.int32
        for i, (src, dst) in enumerate(pairs):
            expected = [link.link_id for link in topo.path_links(src, dst)]
            got = [link_ids[j] for j in rows[i, : lengths[i]]]
            assert got == expected, (src, dst)
            assert (rows[i, lengths[i]:] == -1).all()
        # "host01" names no host (host 1 is "host1").
        with pytest.raises(TopologyError, match="host01"):
            topo.path_links_matrix([(hosts[0], hosts[-1]), ("host01", hosts[0])])

    @pytest.mark.parametrize("structured", [True, False])
    @pytest.mark.parametrize("spec", _ROUTING_SPECS[1:] + _MATRIX_SPECS, ids=str)
    def test_host_positions_route_as_their_names_do(self, spec, structured):
        """An ``(m, 2)`` array of ``host_index`` positions gives the rows of
        the name pairs it stands for — loopbacks included, batches under the
        array router's minimum included, and on a hand-built copy whose
        hosts were added in another order than ``host0, host1, ...``."""
        built = build_multi_rooted_tree(spec)
        shuffled = hand_built(built, seed=5)
        for topo in (built, shuffled):
            if topo is built and not structured:
                topo = hand_built(built)
            hosts = topo.hosts()
            pairs = topo.host_pairs() + [(h, h) for h in hosts[:3]]
            at = np.array(
                [(topo.host_index(a), topo.host_index(b)) for a, b in pairs]
            )
            hits = _structured_hits()
            rows, lengths, link_ids = topo.path_links_matrix(at)
            counted = _structured_hits() - hits
            assert counted == (len(topo.host_pairs()) if topo is built else 0)
            by_name = topo.path_links_matrix(pairs)
            assert (rows == by_name[0]).all() and (lengths == by_name[1]).all()
            assert link_ids == by_name[2]
            few = topo.path_links_matrix(at[:5])
            assert (few[0] == topo.path_links_matrix(pairs[:5])[0]).all()
        assert [built.host_index(f"host{i}") for i in range(spec.num_hosts)] == list(
            range(spec.num_hosts)
        )

    @pytest.mark.parametrize("edit", ["node", "link"])
    def test_an_edit_drops_the_router(self, edit):
        """A tree from ``build_multi_rooted_tree`` routes arithmetically
        until its graph is edited; from then on it routes by graph search, as
        a hand-built copy of the edited graph does."""
        topo = build_multi_rooted_tree(_ROUTING_SPECS[2])
        topo.node_path("host0", "host15")
        if edit == "node":
            topo.add_node("extra", NodeKind.HOST)  # position 16, no cable yet
            with pytest.raises(RoutingError, match="no path"):
                topo.path_links_matrix(np.array([[0, 16]] * 20))
            topo.add_link("extra", "tor0.0", 1e9)
        else:
            topo.add_link("host0", "tor1.0", 1e9)  # a shortcut into pod 1
        assert topo._router is None
        copy = hand_built(topo)
        pairs = topo.host_pairs()
        hits = _structured_hits()
        for src, dst in pairs:
            assert topo.node_path(src, dst) == copy.node_path(src, dst), (src, dst)
            assert topo.hop_count(src, dst) == copy.hop_count(src, dst)
        assert (topo.path_links_matrix(pairs)[0] == copy.path_links_matrix(pairs)[0]).all()
        assert _structured_hits() == hits

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
