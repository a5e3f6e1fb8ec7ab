"""The loaded snapshot, held to the definition of max-min fairness.

``CloudProvider._snapshot_rates`` reads every probe's rate off one filling
of the background (``net.fairness.probe_rates_under_load``).  Nothing here
compares it with another copy of that fill: each rate is checked against
the reference solver on ``background + probe``, certified by
``max_min_violations`` (feasible, every flow bottlenecked), bracketed by the
equal-share bounds, and the instances are shown to be independent of one
another.  The bit-for-bit oracle (a fresh simulation per pair) lives in
``tests/test_campaign_batch.py``.
"""

import itertools

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider, ProviderParams, VMFlow
from repro.errors import ReproError, SimulationError
from repro.faults import PREEMPTED_RATE_BPS
from repro.net.fairness import (
    FlowDemand,
    max_min_allocation,
    max_min_violations,
    probe_rates_under_load,
)
from repro.net.links import hose_link_id
from repro.net.topology import TreeSpec
from repro.units import GBITPS, MBITPS

BACKGROUND_SIZES = (0, 1, 5, 60, 300)
HOSE_STATES = ("drifted", "preempted", "raised")


class FixedHoses:
    """A hose timeline that pins some VMs' egress caps (``None``: not covered)."""

    def __init__(self, rates):
        self.rates = rates

    def hose_rate_at(self, vm, clock):
        return self.rates.get(vm)


def random_provider(rng, hose_state):
    spec = TreeSpec(
        hosts_per_rack=int(rng.integers(1, 5)),
        racks_per_pod=int(rng.integers(1, 4)),
        pods=int(rng.integers(1, 4)),
        num_cores=int(rng.integers(1, 4)),
        host_link_bps=float(rng.choice([1, 10])) * GBITPS,
        tor_agg_link_bps=float(rng.choice([1, 10, 40])) * GBITPS,
        agg_core_link_bps=float(rng.choice([10, 40])) * GBITPS,
        extra_agg_layer=bool(rng.integers(2)),
    )
    params = ProviderParams(
        name="random-tree",
        hose_sampler=lambda r: float(r.uniform(300, 1200)) * MBITPS,
        colocation_probability=0.3,
        temporal_sigma=0.05,
        tree_spec=spec,
    )
    provider = CloudProvider(params, seed=int(rng.integers(1 << 30)))
    # More VMs than hosts now and then: the surplus must share machines.
    provider.request_vms(int(rng.integers(2, spec.num_hosts + 4)))
    provider.advance_time(float(rng.uniform(10.0, 900.0)))
    names = [vm.name for vm in provider.vms()]
    if hose_state == "preempted":
        provider.hose_timeline = FixedHoses(
            {str(rng.choice(names)): PREEMPTED_RATE_BPS}
        )
    elif hose_state == "raised":
        # Above every host link, so equal-capacity physical links tie.
        provider.hose_timeline = FixedHoses(dict.fromkeys(names, 100 * GBITPS))
    return provider, names


def random_background(names, rng, n_flows):
    flows = []
    for i in range(n_flows):
        # (``src == dst`` included: a VM talking to itself stays on its host.)
        src, dst = rng.choice(len(names), size=2)
        flows.append(
            VMFlow(flow_id=f"bg{i}", src_vm=names[src], dst_vm=names[dst], size_bytes=1e9)
        )
    return flows


def same_host_pairs(provider):
    by_host = {}
    for vm in provider.vms():
        by_host.setdefault(vm.host, []).append(vm.name)
    return [
        pair for vms in by_host.values() for pair in itertools.product(vms, repeat=2)
    ]


def demand(provider, src_vm, dst_vm):
    """The flow's links by name, routed pair by pair (``path_links``)."""
    src, dst = provider.vm(src_vm), provider.vm(dst_vm)
    hose = [] if src.host == dst.host else [hose_link_id(src_vm)]
    path = provider.topology.path_links(src.host, dst.host)
    return FlowDemand(links=tuple(hose + [link.link_id for link in path]))


def capacities(provider):
    result = provider.topology.capacities()
    result.update({hose_link_id(vm.name): provider.hose_rate(vm.name) for vm in provider.vms()})
    return result


CASES = [
    (seed, hose_state, n_flows)
    for seed, hose_state in enumerate(HOSE_STATES * 2)
    for n_flows in BACKGROUND_SIZES
]


@pytest.mark.parametrize("seed, hose_state, n_flows", CASES)
def test_rates_are_max_min_fair_bounded_and_independent(seed, hose_state, n_flows):
    rng = np.random.default_rng(1000 * seed + n_flows)
    provider, names = random_provider(rng, hose_state)
    flows = random_background(names, rng, n_flows)
    mesh = [(a, b) for a in names for b in names if a != b]
    subset = [mesh[i] for i in rng.choice(len(mesh), size=min(7, len(mesh)))]
    own = [(flow.src_vm, flow.dst_vm) for flow in flows[:20]]
    pairs = mesh + subset + own + same_host_pairs(provider)
    rates = provider._snapshot_rates(pairs, flows)
    assert rates.shape == (len(pairs),) and np.all(rates > 0)
    assert provider._snapshot_rates([], flows).shape == (0,)

    caps = capacities(provider)
    demands = {flow.flow_id: demand(provider, flow.src_vm, flow.dst_vm) for flow in flows}
    load = {}
    for row in demands.values():
        for link in row.links:
            load[link] = load.get(link, 0) + 1
    # (ii) between an equal share of every link and the narrowest link (to
    # the ulp the window average ``(0.0 + r * w) / w`` may move a rate by);
    # with (iii) no background, exactly the narrowest link.
    for (src, dst), rate in zip(pairs, rates):
        links = demand(provider, src, dst).links
        narrowest = min(caps[link] for link in links)
        fair = min(caps[link] / (load.get(link, 0) + 1) for link in links)
        assert fair * (1 - 1e-12) <= rate <= narrowest * (1 + 1e-12)
        if not flows:
            assert rate == (0.0 + narrowest * 0.1) / 0.1

    # (i) the definition: the reference solver's rate on background + probe,
    # and the certificate with *our* rate standing in for the probe's.  The
    # reference is quadratic, so big backgrounds check a few probes.
    for i in rng.choice(len(pairs), size=min(len(pairs), 2 if n_flows > 100 else 6)):
        problem = dict(demands, probe=demand(provider, *pairs[i]))
        allocation = max_min_allocation(problem, caps)
        assert rates[i] == pytest.approx(allocation["probe"], rel=1e-9)
        allocation["probe"] = float(rates[i])
        assert max_min_violations(problem, caps, allocation) == []

    # (iv) each probe is its own problem: alone it gets the same rate, and
    # reordering the probes reorders the rates.
    for i in rng.choice(len(pairs), size=min(len(pairs), 5)):
        assert provider._snapshot_rates([pairs[i]], flows)[0] == rates[i]
        assert provider.snapshot_rate(*pairs[i], background=flows) == rates[i]
    shuffled = rng.permutation(len(pairs))
    again = provider._snapshot_rates([pairs[i] for i in shuffled], flows)
    assert np.array_equal(again, rates[shuffled])


def test_a_worked_example():
    """Background: one flow on links 0 and 3, one on link 1 — it fills in
    two rounds, both at 4.  A probe over links 0 and 1 halves either (the
    lower index freezes it); one that has link 2 to itself gets it whole,
    tied with the first round's level; one on link 3 gets what is left."""
    capacity = np.array([4.0, 4.0, 2.0, 9.0])
    background = np.array([[0, 3], [1, -1]])
    probes = np.array([[0, 1, -1], [1, 2, -1], [3, -1, -1], [2, -1, -1]])
    rates, rounds = probe_rates_under_load(capacity, background, probes)
    assert rates.tolist() == [2.0, 2.0, 5.0, 2.0] and rounds == 2


@pytest.mark.parametrize(
    "rows, message",
    [([[0, 1, 0]], "repeats a link"), ([[0, 4]], "no capacity"), ([[-2, 0]], "no capacity")],
)
def test_rows_must_be_simple_paths_over_known_links(rows, message):
    capacity = np.ones(4)
    good = np.array([[1, 2]])
    for background, probes in ((np.array(rows), good), (good, np.array(rows))):
        with pytest.raises(SimulationError, match=message):
            probe_rates_under_load(capacity, background, probes)


# ------------------------------------------------------------- wrong inputs
def _provider():
    provider = CloudProvider(ProviderParams(name="t"), seed=1)
    provider.request_vms(4)
    return provider, [vm.name for vm in provider.vms()]


def _flow(flow_id, src, dst):
    return VMFlow(flow_id=flow_id, src_vm=src, dst_vm=dst, size_bytes=1e6)


@pytest.mark.parametrize(
    "case, named",
    [
        ("zero window", "0.0"),
        ("negative window", "-1.0"),
        ("nan window", "nan"),
        ("duplicate flow id", "'b0'"),
        ("unknown probe vm", "'nobody'"),
        ("unknown background vm", "'ghost'"),
    ],
)
def test_bad_input_is_a_repro_error_naming_the_offender(case, named):
    provider, names = _provider()
    a, b, c, _ = names
    background = [_flow("b0", a, b), _flow("b1", b, c)]
    pair, window_s = (a, c), 0.1
    if case.endswith("window"):
        window_s = float(named)
    elif case == "duplicate flow id":
        background.append(_flow("b0", c, a))
    elif case == "unknown probe vm":
        pair = (a, "nobody")
    else:
        background.append(_flow("b2", "ghost", a))
    with pytest.raises(ReproError, match=named):
        provider.snapshot_rate(*pair, background=background, window_s=window_s)
