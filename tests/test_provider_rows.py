"""The rows a provider hands its simulation, and the checks on the way in.

``CloudProvider.add_flows`` routes a batch of VM-level flows by host
position and gives ``FluidSimulation.add_flows`` each flow's row of link
indices: the sender's hose when the two VMs sit on different hosts, then
the route between the hosts.  Here every such row is held to the same rule
spelled pair by pair — the hose found by name among the simulation's links,
the route one ``path_links_matrix`` call on the two host names — on every
registered provider, with colocated pairs, both directions of a pair, a VM
to itself and a background registered first.  A simulation that is not of
the provider's current VM set, and ``routes`` that are not one row per flow
within the link universe, are refused before anything is registered.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers import routes_of
from repro.cloud.registry import make_provider, provider_names
from repro.errors import CloudError, SimulationError
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation
from repro.net.links import hose_link_id
from repro.net.topology import TreeSpec, build_multi_rooted_tree

#: Every registered provider, and ec2 with half its VMs colocated.
CASES = [(name, {}) for name in provider_names()] + [
    ("ec2", {"colocation_probability": 0.5})
]


def _registered(sim):
    """The live flows and the flow table, as lists."""
    return list(sim._flows), [column.tolist() for column in sim._table()]


def _rows(sim):
    """Each live flow's row of link indices, by flow id."""
    data, starts, lengths = sim._table()
    return {
        flow_id: data[start : start + length].tolist()
        for flow_id, start, length in zip(sim._flows, starts.tolist(), lengths.tolist())
    }


def _expected_row(provider, sim, flow):
    """The rule, pair by pair: the sender's hose (by name) unless the two
    VMs share a host, then the route between the two hosts."""
    src, dst = provider.vm(flow.src).host, provider.vm(flow.dst).host
    (row,), (length,), _ = provider.topology.path_links_matrix([(src, dst)])
    hose = [list(sim.capacities).index(hose_link_id(flow.src))] if src != dst else []
    return hose + row[:length].tolist()


@pytest.mark.parametrize("name, knobs", CASES, ids=[f"{n}{k or ''}" for n, k in CASES])
def test_each_flows_row_is_its_senders_hose_then_its_route(name, knobs):
    provider = make_provider(name, seed=3, **knobs)
    vms = [vm.name for vm in provider.request_vms(7)]
    pairs = list(itertools.permutations(vms, 2)) + [(vms[0], vms[0])]
    flows = [
        Flow(f"f{i}", src, dst, size_bytes=1e6 * (1 + i % 3), start_time=0.5 * (i % 2))
        for i, (src, dst) in enumerate(pairs)
    ]
    background = [
        Flow(f"bg{i}", src, dst, size_bytes=5e6)
        for i, (src, dst) in enumerate(pairs[::5])
    ]
    sim = provider.build_simulation(background)
    # The tenant's flows in two batches: a table of three chunks.
    provider.add_flows(sim, flows[:17])
    provider.add_flows(sim, flows[17:])
    rows = _rows(sim)
    assert list(rows) == [flow.flow_id for flow in background + flows]
    for flow in background + flows:
        assert rows[flow.flow_id] == _expected_row(provider, sim, flow), flow
    host = {vm: provider.vm(vm).host for vm in vms}
    colocated = sum(host[src] == host[dst] for src, dst in pairs)
    assert colocated >= (8 if knobs else 1)
    # The simulation runs the rows it was given.
    result = sim.run()
    assert set(result.completion_times) == set(rows)


@pytest.mark.parametrize("edit", ["request", "release", "order", "topology"])
def test_a_simulation_of_another_vm_set_is_refused_and_left_as_it_was(edit):
    """A VM requested or released after the simulation was built, hoses in
    another order, or another topology: the provider's rows would index
    the wrong hoses, so it refuses them and registers nothing."""
    provider = make_provider("ec2", seed=1)
    vms = [vm.name for vm in provider.request_vms(4)]
    first = [Flow("a", vms[0], vms[2], 1e6), Flow("b", vms[3], vms[1], 1e6)]
    if edit == "order":
        hoses = dict(reversed(provider.hose_capacities().items()))
        sim = FluidSimulation(provider.topology, extra_capacities=hoses)
    elif edit == "topology":
        other = build_multi_rooted_tree(provider.params.tree_spec)
        sim = FluidSimulation(other, extra_capacities=provider.hose_capacities())
    else:
        sim = provider.build_simulation(first)
        if edit == "request":
            provider.request_vms(1)
        else:
            provider.release_vm(vms[1])
    before = _registered(sim)
    more = [Flow("c", vms[2], vms[3], 1e6), Flow("d", vms[0], vms[3], 1e6)]
    with pytest.raises(CloudError, match="hoses"):
        provider.add_flows(sim, more)
    assert _registered(sim) == before
    if edit in ("request", "release"):
        # What was registered still runs, on the hoses it was given.
        assert set(sim.run().completion_times) == {"a", "b"}


def test_bad_routes_are_refused_and_change_nothing():
    topo = build_multi_rooted_tree(TreeSpec(2, 2, 2, 2))
    hosts = topo.hosts()
    sim = FluidSimulation(topo, extra_capacities={"x": 1e9})
    universe = len(topo.capacities()) + 1

    def flow(name):
        return Flow(flow_id=name, src=hosts[0], dst=hosts[5], size_bytes=1e5)

    first = [flow("a"), flow("b")]
    sim.add_flows(first, routes_of(sim, first, [["x"], []]))
    before = _registered(sim)
    batch = [flow(f"g{i}") for i in range(5)]
    data, lengths = routes_of(sim, batch, [[]] * 5)
    bad = [
        ((np.append(data[:-1], universe), lengths), "outside"),
        ((np.append(data[:-1], -1), lengths), "outside"),
        ((data, lengths[:-1]), "routes must be"),
        ((data[:-1], lengths), "routes must be"),
        ((data, np.append(lengths[:-2], [2 * lengths[-1] + 1, -1])), "routes must be"),
        ((data.astype(float), lengths), "routes must be"),
        ((data.reshape(-1, 1), lengths), "routes must be"),
        ((data, lengths.astype(float)), "routes must be"),
    ]
    for routes, message in bad:
        with pytest.raises(SimulationError, match=message):
            sim.add_flows(batch, routes)
        assert _registered(sim) == before
    # The last index of the universe is the extra link; the table keeps a
    # copy of the rows it was given.
    data[-1] = universe - 1
    sim.add_flows(batch, (data, lengths))
    data[:] = 0
    assert _rows(sim)["g4"][-1] == universe - 1
    assert set(sim.run().completion_times) == {"a", "b", *(f.flow_id for f in batch)}
