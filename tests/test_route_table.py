"""The provider's route table: the tenant's VM mesh, routed once.

``CloudProvider`` routes every ordered pair of its VMs the first time a
campaign needs a path and keeps the rows, their lengths and bottlenecks
until ``request_vms`` or ``release_vm`` changes the VM set.  Every campaign
after that gathers from the table: its probes' bottlenecks, the loaded
snapshot's rows, the lossy trains' hop counts.  Held here to the per-probe
loop of ``tests/test_campaign_batch.py``, to paths routed by name, and to
the traced memory peak of the largest campaign the benchmark runs.  The
cross-pod rows take their core from the tree router's ECMP pick: held here
to an even spread over ``pipeline_dc``'s cores, and pinned on one tree.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import scalar_train
from oracles.graph_search import hand_built
from test_campaign_batch import (
    assert_campaign_matches_oracle, build_provider, simulated_snapshot,
)
from test_snapshot_invariants import violations

from repro.cloud.ec2 import ec2_params
from repro.cloud.provider import VMFlow
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.net.packets import PacketTrainSpec
from repro.net.topology import TreeSpec, build_multi_rooted_tree
from repro.units import MBYTE


def rack_local(provider, names):
    """Ordered pairs of ``names`` in one rack (on one host too): the
    shortest rows a tree has, however many tiers it climbs elsewhere."""
    rack = {vm.name: provider.topology.rack_of(vm.host) for vm in provider.vms()}
    return [(s, d) for s in names for d in names if s != d and rack[s] == rack[d]]


@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("shape", ["colocated", "extra-agg"])
def test_the_route_table_lives_as_long_as_the_vm_set(shape, loaded):
    """A campaign routes the tenant's VM mesh once and keeps the table
    until the VM set changes.  After ``request_vms`` and ``release_vm`` the
    next campaign is the per-probe loop's, bit for bit — on colocated VMs
    (loopback rows), and on a two-tier aggregation tree probed and loaded
    in its racks alone, whose table is wider than the campaign's own rows.
    The loop reads its loaded snapshots off the same provider, so those are
    held to paths routed by name as well: a stale table passes the loop
    and fails these."""

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
        assert provider._routes.links.shape[0] == len(names) ** 2
        provider.request_vms(2)
        assert provider._routes is None
        NetworkMeasurer(provider, MeasurementPlan()).measure()
        provider.release_vm(names[3])
        assert provider._routes is None
        return provider, [vm.name for vm in provider.vms()]

    provider, names = build()
    pairs = rack_local(provider, names) if shape == "extra-agg" else None
    assert len({vm.host for vm in provider.vms()}) < len(names)  # some share a host

    def background(names):
        if not loaded:
            return ()
        ends = pairs or [(s, d) for s in names for d in names if s != d]
        picks = np.random.default_rng(4).choice(len(ends), size=8, replace=False)
        return [
            VMFlow(f"bg{i}", *ends[k], 50 * MBYTE) for i, k in enumerate(picks.tolist())
        ]

    assert_campaign_matches_oracle(
        build, MeasurementPlan(), background=background,
        pairs=(lambda _names: pairs) if pairs else None,
    )
    # Row ``s * n + d``: the VMs' route by name, its hop count and its
    # narrowest link.
    routes = provider._route_table()
    assert routes.links.shape[0] == len(names) ** 2
    link_ids = list(provider.topology.capacities())
    for k, (src, dst) in enumerate((s, d) for s in names for d in names):
        path = provider.topology.path_links(provider.vm(src).host, provider.vm(dst).host)
        length = routes.lengths[k]
        assert length == len(path) == scalar_train.path_hop_count(provider, src, dst)
        assert [link_ids[j] for j in routes.links[k, :length]] == [
            link.link_id for link in path
        ]
        assert (routes.links[k, length:] == -1).all()
        assert routes.bottleneck[k] == min(link.capacity_bps for link in path)
    if shape == "extra-agg":
        assert routes.links.shape[1] == 8 > max(
            len(provider.topology.path_links(provider.vm(s).host, provider.vm(d).host))
            for s, d in pairs
        )
    # The snapshot the table serves keeps its bounds (paths routed by name)
    # and is a fresh simulation's, on probes and background both in racks.
    ends = pairs or [(s, d) for s in names for d in names if s != d]
    flows = background(names)
    fill = scalar_train.snapshot_rates(provider, ends, flows, window_s=1.0)
    assert violations(provider, ends, flows, fill) == []
    for i in range(0, len(ends), max(1, len(ends) // 10)):
        assert (0.0 + fill[i] * 0.1) / 0.1 == simulated_snapshot(provider, *ends[i], flows)


@pytest.mark.parametrize("structured", [True, False])
def test_loopback_rows_are_the_hosts_loopback_links(structured):
    """The rows of a VM mesh with colocated VMs — its diagonal and every
    pair of VMs on one host cross that host's loopback link — are
    ``path_links``'s, pair by pair: given as host positions and as names,
    in a batch the tree router takes and in one too small for it, on the
    provider's tree and on a hand-built copy that routes by graph search.
    So is the provider's route table."""
    provider, names = build_provider("rackspace", n_vms=12, colocate=0.6)
    host = [vm.host for vm in provider.vms()]
    topo = provider.topology if structured else hand_built(provider.topology)
    pairs = [(host[s], host[d]) for s in range(len(host)) for d in range(len(host))]
    colocated = [i for i, (a, b) in enumerate(pairs) if a == b]
    assert len(colocated) > len(host)  # the diagonal and some shared hosts
    at = np.array([(topo.host_index(a), topo.host_index(b)) for a, b in pairs])
    want = [[link.link_id for link in topo.path_links(a, b)] for a, b in pairs]
    few = colocated[:3] + [i for i in range(len(pairs)) if i not in colocated][:4]
    for batch in (list(range(len(pairs))), few):
        for given in (at[batch], [pairs[i] for i in batch]):
            rows, lengths, link_ids = topo.path_links_matrix(given)
            got = [[link_ids[j] for j in row[:k]] for row, k in zip(rows, lengths)]
            assert got == [want[i] for i in batch]
            assert all((row[k:] == -1).all() for row, k in zip(rows, lengths))
    if structured:
        table = provider._route_table()
        link_ids = [link.link_id for link in topo.links()]
        assert [
            [link_ids[j] for j in row[:k]] for row, k in zip(table.links, table.lengths)
        ] == want


def test_a_lossy_train_reads_its_rtt_off_the_route_table():
    """The Mathis bound's RTT: a route's length is the paper's hop count
    (1 between VMs on one host), as the per-probe loop computes it."""
    provider, names = build_provider("ec2-legacy", n_vms=12, colocate=0.5, loss_rate=0.05)
    provider.request_vms(2)
    provider.release_vm(names[0])
    names = [vm.name for vm in provider.vms()]
    pairs = [(s, d) for s in names for d in names if s != d]
    batch = provider.train_pass(pairs, PacketTrainSpec()).send(len(pairs))
    lossy = np.flatnonzero(~np.isnan(batch.rtt_s))
    hops = {scalar_train.path_hop_count(provider, *pairs[i]) for i in lossy.tolist()}
    assert 1 in hops and len(hops) > 1
    assert [batch.rtt_s[i] for i in lossy.tolist()] == [
        scalar_train.rtt(provider, *pairs[i]) for i in lossy.tolist()
    ]


#: The tree ``benchmark/workloads.py``'s ``pipeline_dc`` runs on: 512 hosts
#: in 4 pods under 4 cores.
PIPELINE_DC_TREE = dataclasses.replace(
    ec2_params().tree_spec, hosts_per_rack=16, racks_per_pod=8, pods=4, num_cores=4
)


#: Traced peak (``tracemalloc``) of one 256-VM full-mesh campaign on the
#: ``pipeline_dc`` tree, its tree warmed by another tenant's campaign, as
#: this test's body measures it on the code that sends a pass in blocks of
#: ``_TRAIN_BLOCK`` trains: 12.35 MiB on x86-64, Python 3.11.7, NumPy
#: 2.4.6.  The campaign as one program over the whole mesh measured 31.34
#: MiB; with a (bursts, trains) jitter scratch beside it, 36.32; the
#: per-burst loop before the route table, 42.21.  The peak is now the
#: route table's build (≈2.3 MB kept at 256 VMs), which the first pass
#: runs before its own arrays exist; the blocks peak ≈7 MiB above the
#: table.  The bound allows 5 % over the figure, so one whole-mesh
#: (bursts, trains) array (5.2 MB at 65 280 trains) fails it.  The figure
#: depends on the NumPy build: when the installed NumPy changes,
#: re-measure it with this body on this code.
PARENT_PEAK_MB = 12.35


def test_a_datacenter_campaign_peaks_no_higher_than_before():
    params = dataclasses.replace(ec2_params(), tree_spec=PIPELINE_DC_TREE)

    def tenant(seed):
        provider = make_provider("ec2", seed=seed, params=params)
        provider.request_vms(256)
        return NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))

    tenant(1).measure()
    measurer = tenant(0)
    tracemalloc.start()
    try:
        profile = measurer.measure()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(profile.vms) == 256 and not np.isnan(profile.rate_matrix()).any()
    assert peak <= PARENT_PEAK_MB * 1.05, f"{peak:.2f} MB"


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
