"""A campaign's bottlenecks: each block of trains reads its own probes'.

``TrainPass.send`` reads the narrowest link of each of its block's probes
(and, on a lossy provider, its hop count) off the tree's tables in one
``Topology.narrowest`` call, which routes nothing; the provider keeps only
the floats, and a changed VM set needs no cache dropped.  Every read is
held here to routing the same pairs and reducing each route
(``oracles.narrowest``), campaigns to the per-probe loop of
``tests/test_campaign_batch.py`` and to paths routed by name, and the
largest campaign the benchmark runs to its traced memory peak.  The tree
router reads a rack pair's row from one small table: its loopback and
cross-pod rows are held to single-pair routes, and the cross-pod rows take
their core from the router's ECMP pick, held here to an even spread over
``pipeline_dc``'s cores and pinned on one tree.
"""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import scalar_train
from oracles.graph_search import hand_built, route_ids
from oracles.narrowest import routed_narrowest
from test_campaign_batch import (
    build_provider, campaign, oracle_campaign, simulated_snapshot,
)
from test_snapshot_invariants import violations

from repro.cloud.ec2 import ec2_params
from repro.net.flows import Flow
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer, orchestrator
from repro.net.links import loopback_link_id
from repro.net.packets import PacketTrainSpec
from repro.net.topology import Topology, TreeSpec, build_multi_rooted_tree
from repro.units import MBYTE


def rack_local(provider, names):
    """Ordered pairs of ``names`` in one rack (on one host too): the
    shortest rows a tree has, however many tiers it climbs elsewhere."""
    rack = {vm.name: provider.topology.rack_of(vm.host) for vm in provider.vms()}
    return [(s, d) for s in names for d in names if s != d and rack[s] == rack[d]]


def ends_of(names, pairs):
    """A campaign's probes: ``pairs``, or the full mesh of ``names``."""
    return pairs or [(s, d) for s in names for d in names if s != d]


@pytest.fixture
def routed_batches(monkeypatch):
    """Every batch of host positions ``path_links_matrix`` routes, with the
    rows it returned: ``[(hosts, rows, lengths), ...]``."""
    batches = []
    route = Topology.path_links_matrix

    def recorded(self, pairs):
        rows, lengths, link_ids = route(self, pairs)
        if isinstance(pairs, np.ndarray):
            batches.append((self, pairs.copy(), rows, lengths))
        return rows, lengths, link_ids

    monkeypatch.setattr(Topology, "path_links_matrix", recorded)
    return batches


@pytest.fixture
def table_reads(monkeypatch):
    """Every batch of host positions ``Topology.narrowest`` reads, with what
    it returned: ``[(topology, hosts, hops, narrowest, lengths), ...]``."""
    reads = []
    read = Topology.narrowest

    def recorded(self, pairs, hops=False):
        narrowest, lengths = read(self, pairs, hops)
        reads.append((self, pairs.copy(), hops, narrowest, lengths))
        return narrowest, lengths

    monkeypatch.setattr(Topology, "narrowest", recorded)
    return reads


def assert_reads_are_the_routed_minima(reads):
    """Each read is its pairs' routes, routed and reduced to their
    narrowest links (and lengths), bit for bit."""
    for topology, hosts, hops, narrowest, lengths in reads:
        want, want_lengths = routed_narrowest(topology, hosts, hops)
        assert narrowest.tobytes() == want.tobytes()
        assert (lengths is None) == (not hops)
        if hops:
            assert lengths.tolist() == want_lengths.tolist()


def assert_rows_are_the_named_routes(topology, hosts, rows, lengths):
    """Each row is its pair of hosts' route routed alone, -1 padded to the
    batch's longest route and no wider."""
    names = topology._host_names
    link_ids = list(topology.capacities())
    for (a, b), row, length in zip(hosts.tolist(), rows, lengths.tolist()):
        assert [link_ids[j] for j in row[:length]] == route_ids(topology, names[a], names[b])
        assert (row[length:] == -1).all()
    assert rows.shape[1] == lengths.max()


@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("shape", ["colocated", "extra-agg"])
def test_each_block_reads_its_probes_bottlenecks_across_vm_set_changes(
    shape, loaded, monkeypatch, routed_batches, table_reads
):
    """Blocks of seven trains, each reading its probes' bottlenecks off the
    tree's tables when it is sent.  After ``request_vms`` and
    ``release_vm`` the next campaign is the per-probe loop's, bit for bit —
    on colocated VMs (loopback links), and on a two-tier aggregation tree
    probed and loaded in its racks alone.  Every block's read is its
    probes' routes reduced to their narrowest links.  Of what was read the
    provider keeps each pair's narrowest link alone, and the next campaign
    on the VM set reads nothing.  Only a loaded pass routes: its snapshot
    routes the probes and the background together, and the loop reads its
    loaded snapshots off the same provider, so those are held to paths
    routed by name as well."""
    monkeypatch.setattr(orchestrator, "_TRAIN_BLOCK", 7)

    def build():
        if shape == "colocated":
            provider, names = build_provider("rackspace", n_vms=10, colocate=0.6)
        else:
            provider = make_provider(
                "ec2", seed=5,
                params=ec2_params(extra_agg_layer=True, colocation_probability=0.4),
            )
            provider.request_vms(14)
            names = [vm.name for vm in provider.vms()]
        NetworkMeasurer(provider, MeasurementPlan()).measure(names)
        provider.request_vms(2)
        NetworkMeasurer(provider, MeasurementPlan()).measure()
        provider.release_vm(names[3])
        return provider, [vm.name for vm in provider.vms()]

    provider, names = build()
    pairs = rack_local(provider, names) if shape == "extra-agg" else None
    assert len({vm.host for vm in provider.vms()}) < len(names)  # some share a host

    def background(names):
        if not loaded:
            return ()
        ends = ends_of(names, pairs)
        picks = np.random.default_rng(4).choice(len(ends), size=8, replace=False)
        return [
            Flow(f"bg{i}", *ends[k], 50 * MBYTE) for i, k in enumerate(picks.tolist())
        ]

    oracle_provider, _ = build()
    del routed_batches[:], table_reads[:]
    plan = MeasurementPlan()
    got = campaign(NetworkMeasurer(provider, plan), names, background(names), pairs)
    batches, reads = routed_batches[:], table_reads[:]
    assert got == oracle_campaign(
        NetworkMeasurer(oracle_provider, plan), names, background(names), pairs
    )
    # One table read per block, and a route batch only for the snapshot.
    probes = len(pairs) if pairs else len(names) * (len(names) - 1)
    assert len(reads) == -(-probes // 7) and all(hosts.shape[0] <= 7 for _, hosts, *_ in reads)
    assert len(batches) == loaded
    assert any((hosts[:, 0] == hosts[:, 1]).any() for _, hosts, *_ in reads)
    assert_reads_are_the_routed_minima(reads)
    for topology, hosts, rows, lengths in batches:
        assert_rows_are_the_named_routes(topology, hosts, rows, lengths)
    # What outlives the campaign is the bottleneck matrix alone: one float
    # per ordered pair of VMs, each read pair's narrowest link by name.
    n = len(names)
    kept = {name for name, value in vars(provider).items() if np.size(value) >= n * n}
    assert kept == {"_bottleneck"} and provider._bottleneck.dtype == np.float64
    for src, dst in ends_of(names, pairs):
        s, d = provider.vm_positions([src, dst]).tolist()
        path = route_ids(provider.topology, provider.vm(src).host, provider.vm(dst).host)
        capacities = provider.topology.capacities()
        assert provider._bottleneck[s * n + d] == min(capacities[link] for link in path)
    # A second campaign on the VM set reads nothing and routes only its
    # snapshot.
    del routed_batches[:], table_reads[:]
    campaign(NetworkMeasurer(provider, plan), names, background(names), pairs)
    assert len(routed_batches) == loaded and table_reads == []
    # The snapshot keeps its bounds (paths routed by name) and is a fresh
    # simulation's, on probes and background both in racks.
    ends = ends_of(names, pairs)
    flows = background(names)
    fill = scalar_train.snapshot_rates(provider, ends, flows, window_s=1.0)
    assert violations(provider, ends, flows, fill) == []
    for i in range(0, len(ends), max(1, len(ends) // 10)):
        assert (0.0 + fill[i] * 0.1) / 0.1 == simulated_snapshot(provider, *ends[i], flows)


#: Tree shapes whose narrowest link sits at each tier in turn: the host
#: link, the ToR uplinks (one tier and two), the core links, and a loopback
#: that never binds; several cores, so the ECMP pick decides a route's.
NARROWEST_SPECS = (
    TreeSpec(pods=3, racks_per_pod=2, hosts_per_rack=2, num_cores=3, host_link_bps=5e8),
    TreeSpec(pods=2, racks_per_pod=3, hosts_per_rack=2, tor_agg_link_bps=4e8),
    TreeSpec(pods=2, racks_per_pod=2, hosts_per_rack=2, extra_agg_layer=True,
             tor_agg_link_bps=3e8, intra_host_bps=math.inf),
    TreeSpec(pods=3, racks_per_pod=2, hosts_per_rack=2, num_cores=4, agg_core_link_bps=2e8),
)


@pytest.mark.parametrize("spec", NARROWEST_SPECS, ids=str)
def test_the_table_read_is_the_routed_minimum(spec):
    """Over every ordered pair of hosts (one host to itself included), in
    one batch and in a few, with hop counts and without, the table read is
    each route's narrowest link and length — on the tree, and on its
    hand-built copy, which routes by graph search."""
    tree = build_multi_rooted_tree(spec)
    hosts = np.array(list(itertools.product(range(spec.num_hosts), repeat=2)))
    copy = hand_built(tree)
    for batch in (hosts, hosts[::7], hosts[:0]):
        for hops in (False, True):
            got = tree.narrowest(batch, hops)
            reads = [(tree, batch, hops, *got)]
            assert_reads_are_the_routed_minima(reads)
            want = copy.narrowest(batch, hops)
            assert got[0].tobytes() == want[0].tobytes()
    narrowest = tree.narrowest(hosts)[0]
    capacities = set(tree.capacities().values())
    assert set(narrowest.tolist()) <= capacities and len(set(narrowest.tolist())) > 1


@pytest.mark.parametrize("structured", [True, False])
def test_loopback_rows_are_the_hosts_loopback_links(structured, routed_batches, table_reads):
    """The rows of a VM mesh with colocated VMs — its diagonal and every
    pair of VMs on one host cross that host's loopback link — are the
    pairs' routes, routed one by one: given as host positions and as names,
    in a batch of every pair and in one of a few, on the provider's tree
    (whose router writes the loopback rows itself) and on a hand-built
    copy that routes by graph search.  A campaign routes none of them: its
    one block reads a loopback's capacity for every pair on one host."""
    provider, names = build_provider("rackspace", n_vms=12, colocate=0.6)
    host = [vm.host for vm in provider.vms()]
    topo = provider.topology if structured else hand_built(provider.topology)
    pairs = [(host[s], host[d]) for s in range(len(host)) for d in range(len(host))]
    colocated = [i for i, (a, b) in enumerate(pairs) if a == b]
    assert len(colocated) > len(host)  # the diagonal and some shared hosts
    at = np.array([(topo.host_index(a), topo.host_index(b)) for a, b in pairs])
    want = [route_ids(topo, a, b) for a, b in pairs]
    few = colocated[:3] + [i for i in range(len(pairs)) if i not in colocated][:4]
    for batch in (list(range(len(pairs))), few, colocated[:2]):
        for given in (at[batch], [pairs[i] for i in batch]):
            rows, lengths, link_ids = topo.path_links_matrix(given)
            got = [[link_ids[j] for j in row[:k]] for row, k in zip(rows, lengths)]
            assert got == [want[i] for i in batch]
            assert all((row[k:] == -1).all() for row, k in zip(rows, lengths))
            assert rows.shape[1] == lengths.max()
    if structured:
        del routed_batches[:]
        NetworkMeasurer(provider, MeasurementPlan()).measure(names)
        assert routed_batches == []
        ((topology, hosts, hops, narrowest, lengths),) = table_reads
        same = hosts[:, 0] == hosts[:, 1]
        assert same.sum() == len(colocated) - len(host)
        loopback = provider.topology.capacities()[loopback_link_id(provider.vms()[0].host)]
        assert (narrowest[same] == loopback).all()
        assert_reads_are_the_routed_minima(table_reads)


def test_a_lossy_train_reads_its_rtt_off_its_blocks_rows():
    """The Mathis bound's RTT: a route's length is the paper's hop count
    (1 between VMs on one host), as the per-probe loop computes it — in
    blocks of five trains, each routed on its own, as in one."""
    def lossy():
        provider, names = build_provider(
            "ec2-legacy", n_vms=12, colocate=0.5, loss_rate=0.05
        )
        provider.request_vms(2)
        provider.release_vm(names[0])
        return provider, [vm.name for vm in provider.vms()]

    provider, names = lossy()
    pairs = [(s, d) for s in names for d in names if s != d]
    batch = provider.train_pass(pairs, PacketTrainSpec()).send(len(pairs))
    lossy_at = np.flatnonzero(~np.isnan(batch.rtt_s))
    hops = {scalar_train.path_hop_count(provider, *pairs[i]) for i in lossy_at.tolist()}
    assert 1 in hops and len(hops) > 1
    assert [batch.rtt_s[i] for i in lossy_at.tolist()] == [
        scalar_train.rtt(provider, *pairs[i]) for i in lossy_at.tolist()
    ]
    trains = lossy()[0].train_pass(pairs, PacketTrainSpec())
    rtt = np.concatenate([trains.send(5).rtt_s for _ in range(-(-len(pairs) // 5))])
    np.testing.assert_array_equal(rtt, batch.rtt_s)


#: The tree ``benchmark/workloads.py``'s ``pipeline_dc`` runs on: 512 hosts
#: in 4 pods under 4 cores.
PIPELINE_DC_TREE = dataclasses.replace(
    ec2_params().tree_spec, hosts_per_rack=16, racks_per_pod=8, pods=4, num_cores=4
)


def traced_campaign_peak(n_vms, tree):
    """Traced peak (MiB) of one ``n_vms`` full-mesh campaign on ``tree``,
    the tree's shared tables warmed by another tenant's two-VM campaign."""
    params = dataclasses.replace(ec2_params(), tree_spec=tree)

    def tenant(seed, n):
        provider = make_provider("ec2", seed=seed, params=params)
        provider.request_vms(n)
        return NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))

    tenant(1, 2).measure()
    measurer = tenant(0, n_vms)
    tracemalloc.start()
    try:
        profile = measurer.measure()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(profile.vms) == n_vms and not np.isnan(profile.rate_matrix()).any()
    return peak


#: Traced peak (``tracemalloc``) of one 256-VM full-mesh campaign on the
#: ``pipeline_dc`` tree, as this test's body measures it on the code whose
#: blocks route their own probes and keep only each pair's narrowest link
#: (0.5 MB at 256 VMs): 5.04 MiB on x86-64, Python 3.11.7, NumPy 2.4.6.  It
#: was 12.35 MiB while a route table of the whole VM mesh was built before
#: the first pass (2.3 MB kept, 9.4 MiB at its build); the campaign as one
#: program over the whole mesh measured 31.34 MiB.  The bound allows 5 %
#: over the figure, so one whole-mesh (bursts, trains) array (5.2 MB at
#: 65 280 trains) fails it, as would a mesh-sized table of routes.  The
#: figure depends on the NumPy build: when the installed NumPy changes,
#: re-measure it with this body on this code.
PARENT_PEAK_MB = 5.04


def test_a_datacenter_campaign_peaks_no_higher_than_before():
    peak = traced_campaign_peak(256, PIPELINE_DC_TREE)
    assert peak <= PARENT_PEAK_MB * 1.05, f"{peak:.2f} MB"


#: The same at 1 024 VMs, on the ``pipeline_dc`` tree with 32 hosts a rack
#: (1 024 hosts): 43.13 MiB (same platform), while the pass runs: the two
#: ``(n, n)`` results (16 MiB), the schedule of 1 047 552 probes (16 MiB),
#: the bottleneck matrix (8 MiB) and one block.  With the route table the
#: campaign peaked at 197.69 MiB (the table kept 36.2 MiB and peaked at
#: 149.9 MiB while it was built).  Re-measure as above.
PEAK_1024_MB = 43.13


def test_a_1024_vm_campaign_holds_its_results_and_its_schedule():
    tree = dataclasses.replace(PIPELINE_DC_TREE, hosts_per_rack=32)
    peak = traced_campaign_peak(1024, tree)
    assert peak <= PEAK_1024_MB * 1.05, f"{peak:.2f} MB"


# --------------------------------------------------------------- core picks
def far_picks(spec):
    """The tree router's core pick of every ordered cross-pod pair of
    ``spec``'s hosts, source-major, with each pair's source."""
    per_pod = spec.hosts_per_rack * spec.racks_per_pod
    src, dst = np.divmod(np.arange(spec.num_hosts**2), spec.num_hosts)
    far = src // per_pod != dst // per_pod
    router = build_multi_rooted_tree(spec)._router
    return src[far], router.core_picks(src[far], dst[far])


def test_ecmp_spreads_every_source_over_the_cores():
    """Over all 196 608 cross-pod pairs each core carries a quarter, to
    within a point, and no source leans on one core (or avoids one) much."""
    cores = PIPELINE_DC_TREE.num_cores
    src, picks = far_picks(PIPELINE_DC_TREE)
    assert picks.shape == (512 * 384,)
    share = np.bincount(picks, minlength=cores) / picks.shape[0]
    assert np.abs(share - 1 / cores).max() <= 0.01, share
    per_source = np.bincount(src * cores + picks).reshape(-1, cores)
    per_source = per_source / per_source.sum(axis=1, keepdims=True)
    assert 0.15 <= per_source.min() and per_source.max() <= 0.35


#: SHA-256 of every cross-pod core pick of ``TreeSpec(pods=3, num_cores=3)``
#: (24 hosts, 384 pairs), one byte a pick: the pick is a definition, the
#: same on every Python and NumPy the project supports.
PINNED_PICKS_SHA256 = "e85bb9f0e15b7fa7f8eadb087f77b52f0239f21ba26a0702a61633bbf5638699"


def test_the_core_picks_of_a_fixed_tree_are_pinned():
    _, picks = far_picks(TreeSpec(pods=3, num_cores=3))
    assert picks.shape == (384,) and set(picks.tolist()) == {0, 1, 2}
    digest = hashlib.sha256(picks.astype(np.uint8).tobytes()).hexdigest()
    assert digest == PINNED_PICKS_SHA256
