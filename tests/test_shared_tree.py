"""One network per shape: every provider of a ``(TreeSpec, name)`` shares one
frozen tree.

A sweep's trials, a service session and any threads of one process all
build providers of a handful of shapes; the first provider of a shape builds the
tree and every later one reads it, with the tables the tree derives lazily
(link index, capacity vector, tree tables, routes).  These tests hold the
sharing to what it must not change: which trees are shared, that nothing
edits them, that a sweep builds each shape once, that a session and a sweep
leave the shared capacities as built, that concurrent readers see what a
serial run sees, and that the draws rewritten alongside read the same
streams.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.cloud import provider as cloud_provider
from repro.cloud.ec2 import ec2_hose_sampler, ec2_params
from repro.cloud.provider import CloudProvider
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.errors import TopologyError
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.net.topology import NodeKind, TreeSpec, build_multi_rooted_tree
from repro.service.engine import PlacementService
from repro.service.session import _resolve_placer, build_churn_session
from repro.units import MBITPS
from repro.workloads.generator import HPCloudWorkloadGenerator, WorkloadSpec


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty shared-tree table, and a count of the trees providers build."""
    built = Counter()
    build = cloud_provider.build_multi_rooted_tree

    def counting(spec, name="dc"):
        built[(spec, name)] += 1
        return build(spec, name=name)

    monkeypatch.setattr(cloud_provider, "_shared_trees", {})
    monkeypatch.setattr(cloud_provider, "build_multi_rooted_tree", counting)
    return built


def _spec(provider):
    return dataclasses.replace(
        provider.params.tree_spec, intra_host_bps=provider.params.intra_host_rate_bps
    )


def _as_built(provider):
    """The provider's tree as the builder makes it: a fresh one."""
    return build_multi_rooted_tree(_spec(provider), name=provider.params.name)


# ------------------------------------------------------------- what is shared
def test_providers_of_one_shape_share_one_tree(fresh_table):
    first, second = make_provider("ec2", seed=0), make_provider("ec2", seed=1)
    assert first.topology is second.topology
    assert list(fresh_table.values()) == [1]
    # Each keeps its own free-host list: one tenant's VMs are not the other's.
    first.request_vms(5)
    assert len(first._free_hosts) < len(second._free_hosts) == len(first.topology.hosts())
    assert cloud_provider._shared_trees[(_spec(first), "ec2")][1] == tuple(
        first.topology.hosts()
    )
    base = ec2_params()
    others = [
        # another tree shape, another intra-host rate (part of the spec), a
        # same-shaped tree under another name
        dataclasses.replace(
            base, tree_spec=dataclasses.replace(base.tree_spec, num_cores=3)
        ),
        dataclasses.replace(base, intra_host_rate_bps=2 * base.intra_host_rate_bps),
        dataclasses.replace(base, name="ec2-twin"),
    ]
    trees = [CloudProvider(params).topology for params in others]
    assert len({id(tree) for tree in [first.topology, *trees]}) == 4
    assert trees[2].capacities() == first.topology.capacities()
    assert sorted(fresh_table.values()) == [1, 1, 1, 1]


def test_a_shared_tree_refuses_edits_and_the_builder_stays_fresh(fresh_table):
    shared = make_provider("ec2").topology
    with pytest.raises(TopologyError, match="topology 'ec2' is shared and frozen"):
        shared.add_node("extra", NodeKind.HOST)
    with pytest.raises(TopologyError, match="topology 'ec2' is shared and frozen"):
        shared.add_link("host0", "host1", 1e9)
    assert "extra" not in shared.nodes()
    # The builder hands out a fresh, editable tree each call: what
    # fluid_giant's two trees of one spec are, and what tests edit.
    spec = TreeSpec(hosts_per_rack=2, racks_per_pod=2, pods=2, num_cores=2)
    topo, fresh = build_multi_rooted_tree(spec), build_multi_rooted_tree(spec)
    assert topo is not fresh
    fresh.add_node("extra", NodeKind.HOST)
    fresh.add_link("extra", "tor0.0", 1e9)
    assert "extra" not in topo.nodes()


# ------------------------------------------------ a sweep and a session share
#: ``sweep_paper``'s grid: 9 scenarios x 3 placers x 20 trials, plus the ILP
#: grid's 5 x 2 x 2 — 560 cells.
SWEEP = (
    ("all-to-all", "bursty-mapreduce", "multi-app-sequence", "ec2-trace-replay",
     "rack-hotspot", "cross-traffic", "partition-aggregate", "single-app-ec2",
     "hetero-topology"),
    ("all-to-all", "bursty-mapreduce", "single-app-ec2", "partition-aggregate",
     "rack-hotspot"),
)


def test_a_sweep_builds_each_shape_once_and_leaves_it_as_built(fresh_table):
    grid = ExperimentConfig(
        scenarios=SWEEP[0], placers=("greedy", "random", "round-robin"),
        trials=20, base_seed=3, baseline="random", workers=1, backend="inline",
    )
    ilp = ExperimentConfig(
        scenarios=SWEEP[1], placers=("ilp", "random"), trials=2, base_seed=0,
        baseline="random", workers=1, backend="inline",
    )
    cells = 0
    for config in (grid, ilp):
        runner = ExperimentRunner(config)
        result = runner.run()
        assert all(record.ok for record in result.records)
        cells += runner.last_stats.cells
    assert cells == 560
    # One build per distinct shape, however many trials use it.
    assert set(fresh_table.values()) == {1}
    assert set(fresh_table) == set(cloud_provider._shared_trees)
    assert 1 < len(fresh_table) < 10
    for (spec, name), (tree, hosts) in cloud_provider._shared_trees.items():
        built = build_multi_rooted_tree(spec, name=name)
        assert tree.capacities() == built.capacities()
        assert list(hosts) == built.hosts() == tree.hosts()


def test_a_rack_outage_session_leaves_the_shared_capacities_as_built(fresh_table):
    provider, cluster, apps, _ = build_churn_session(
        0, n_vms=6, hours=3.0, epoch_s=120.0, faults="rack-outage"
    )
    report = PlacementService(
        provider, cluster, _resolve_placer("greedy", 0, None), predictor="measured",
        migrate=True,
    ).run_session(apps, hours=3.0)
    assert report.recovery, "the outage should have forced a recovery"
    assert provider.topology is make_provider("ec2").topology
    assert provider.topology.capacities() == _as_built(provider).capacities()
    assert provider.topology.capacity_vector().tolist() == list(
        _as_built(provider).capacities().values()
    )


# ----------------------------------------------------------- across threads
def _measure(seed, barrier=None):
    """One tenant of the shared shape: its mesh profile, and its hosts
    routed as one array batch and in pairs (the path cache)."""
    provider = make_provider("ec2", seed=seed)
    provider.request_vms(10)
    if barrier is not None:
        barrier.wait()
    profile = NetworkMeasurer(provider, MeasurementPlan()).measure()
    topo = provider.topology
    hosts = np.array([topo.host_index(vm.host) for vm in provider.vms()])
    mesh = np.array([(a, b) for a in hosts for b in hosts], dtype=np.intp)
    rows, lengths, _ = topo.path_links_matrix(mesh)
    names = [(vm.host, other.host) for vm in provider.vms()[:3] for other in provider.vms()]
    few = [topo.path_links_matrix(names[k : k + 3]) for k in range(0, len(names), 3)]
    # (NaN marks an unmeasured pair: NaN != NaN, so it is spelled out.)
    return (
        *(np.where(np.isnan(m), -1.0, m).tolist() for m in (
            profile.rate_matrix(), profile.measured_at_matrix()
        )),
        rows.tolist(),
        lengths.tolist(),
        [(r.tolist(), n.tolist()) for r, n, _ in few],
    )


def test_threads_measuring_one_shared_shape_see_what_a_serial_run_sees(monkeypatch):
    """8 threads build providers of one shape — one tree, one router, cold
    memos — and measure their meshes at once; every profile and every
    routed row is ``==`` a serial run's."""
    seeds = range(40, 48)
    serial = {}
    with monkeypatch.context() as patch:
        patch.setattr(cloud_provider, "_shared_trees", {})
        for seed in seeds:
            serial[seed] = _measure(seed)
    monkeypatch.setattr(cloud_provider, "_shared_trees", {})
    barrier = threading.Barrier(len(seeds))
    got, errors = {}, []

    def work(seed):
        try:
            got[seed] = _measure(seed, barrier)
        except BaseException as exc:  # surfaced below, with its seed
            errors.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cloud_provider._shared_trees) == 1
    for seed in seeds:
        assert got[seed] == serial[seed], seed


# ------------------------------------------------- the draws, stream for stream
def test_the_rewritten_draws_read_the_streams_numpy_read():
    """``integers`` over a list's length is the draw ``rng.choice`` of the
    list makes, and ``min``/``max`` is a scalar ``np.clip``: same values,
    same generator state after."""
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    lo, hi = 296 * MBITPS, 1200 * MBITPS
    for _ in range(2000):
        roll = theirs.random()
        if roll < 0.62:
            rate = theirs.normal(935 * MBITPS, 25 * MBITPS)
        elif roll < 0.92:
            rate = theirs.normal(1085 * MBITPS, 25 * MBITPS)
        else:
            rate = theirs.uniform(300 * MBITPS, 900 * MBITPS)
        assert ec2_hose_sampler(ours) == float(np.clip(rate, lo, hi))
    assert ours.bit_generator.state == theirs.bit_generator.state
    spec = WorkloadSpec()
    generator = HPCloudWorkloadGenerator(spec, seed=9)
    rng = np.random.default_rng(9)
    for _ in range(500):
        assert generator._sample_cpu() == float(rng.choice(list(spec.cpu_choices)))
    assert generator._rng.bit_generator.state == rng.bit_generator.state
