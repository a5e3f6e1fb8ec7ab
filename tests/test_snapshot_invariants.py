"""The loaded snapshot, held to the definition of max-min fairness.

``CloudProvider._loaded_rates`` (by name: ``scalar_train.snapshot_rates``)
reads every probe's rate off one filling of the background (``net.fairness.probe_rates_under_load``).  Nothing here
compares it with another copy of that fill: each rate is checked against
the reference solver on ``background + probe``, certified by
``max_min_violations`` (feasible, every flow bottlenecked), bracketed by the
equal-share bounds of ``snapshot_violations``, and the instances are shown
to be independent of one another.  The bit-for-bit oracle (a fresh simulation per pair) lives in
``tests/test_campaign_batch.py``.
"""

import itertools

import numpy as np
import pytest

from oracles.max_min import max_min_allocation
from oracles.scalar_train import snapshot_rates
from repro.cloud.provider import CloudProvider, ProviderParams, VMFlow
from repro.errors import ReproError, SimulationError
from repro.net.fairness import (
    FlowDemand,
    max_min_violations,
    probe_rates_under_load,
    snapshot_violations,
)
from repro.net.links import hose_link_id
from repro.net.topology import TreeSpec
from repro.service.timeline import PREEMPTED_RATE_BPS, Timeline
from repro.units import GBITPS, MBITPS

BACKGROUND_SIZES = (0, 1, 5, 60, 300)
HOSE_STATES = ("drifted", "preempted", "raised")


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
        provider.timeline = Timeline(
            hose_epochs=[{str(rng.choice(names)): PREEMPTED_RATE_BPS}]
        )
    elif hose_state == "raised":
        # Above every host link, so equal-capacity physical links tie.
        provider.timeline = Timeline(hose_epochs=[dict.fromkeys(names, 100 * GBITPS)])
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


def violations(provider, pairs, flows, rates):
    """``snapshot_violations`` of the fill's rates for ``pairs`` under
    ``flows``, every path routed by name, pair by pair (``demand``)."""
    caps = capacities(provider)
    index = {link: i for i, link in enumerate(caps)}

    def rows(ends):
        paths = [[index[link] for link in demand(provider, *pair).links] for pair in ends]
        width = max(map(len, paths), default=0)
        padded = [path + [-1] * (width - len(path)) for path in paths]
        return np.array(padded, dtype=np.intp).reshape(len(paths), width)

    return snapshot_violations(
        np.array(list(caps.values())),
        rows([(flow.src_vm, flow.dst_vm) for flow in flows]),
        rows(pairs),
        rates,
    )


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
    rates = snapshot_rates(provider, pairs, flows)
    assert rates.shape == (len(pairs),) and np.all(rates > 0)
    assert snapshot_rates(provider, [], flows).shape == (0,)

    # (ii) between an equal share of every link and the narrowest link;
    # with (iii) no background, exactly the narrowest link.  (A one-second
    # window averages nothing: these are the fill's own rates.)
    fill = snapshot_rates(provider, pairs, flows, window_s=1.0)
    assert np.array_equal(rates, (0.0 + fill * 0.1) / 0.1)
    assert violations(provider, pairs, flows, fill) == []
    caps = capacities(provider)
    demands = {flow.flow_id: demand(provider, flow.src_vm, flow.dst_vm) for flow in flows}

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
        assert snapshot_rates(provider, [pairs[i]], flows)[0] == rates[i]
    shuffled = rng.permutation(len(pairs))
    again = snapshot_rates(provider, [pairs[i] for i in shuffled], flows)
    assert np.array_equal(again, rates[shuffled])


def test_snapshot_violations_name_each_broken_bound():
    """Links 0 (capacity 4, two background flows) and 1 (capacity 2): a
    probe over both may get between 4/3 and 2."""
    capacity = np.array([4.0, 2.0])
    background = np.array([[0], [0]])
    probes = np.array([[0, 1], [0, 1], [0, 1], [1, -1]])
    rates = np.array([1.5, 1.0, 2.5, 2.0])
    assert snapshot_violations(capacity, background, probes, rates) == [
        "probe 1: rate 1.0 below the equal share 1.3333333333333333 of its links",
        "probe 2: rate 2.5 above its narrowest link 2.0",
    ]
    idle = np.zeros((0, 1), dtype=np.intp)
    assert snapshot_violations(capacity, idle, probes, np.array([2.0, 2.0, 2.0, 2.0])) == []
    # The slack (relative 1e-12) widens the two bounds alike; with no
    # background there is none.
    near = np.array([2.0 * (1 + 1e-13), 2.0 * (1 - 1e-13)])
    assert snapshot_violations(capacity, background, probes[2:], near) == []
    assert snapshot_violations(capacity, idle, probes[2:], near) == [
        f"probe {i}: rate {float(near[i])!r} with no background, not its narrowest link 2.0"
        for i in range(2)
    ]


def test_a_flow_a_hair_below_its_bottleneck_has_none():
    """One link of capacity 2, saturated by two flows: the one 1e-6
    (relative) below the other is not the fastest on its only link, so it
    has no bottleneck.  The certificate's tolerance is 1e-9, far below."""
    demands = {"a": FlowDemand(("l",)), "b": FlowDemand(("l",))}
    slow, fast = 1.0 - 1e-6, 1.0 + 1e-6
    assert max_min_violations(demands, {"l": 2.0}, {"a": slow, "b": fast}) == [
        f"flow 'a': rate {slow!r} has no bottleneck (on no saturated link "
        f"where it is the fastest)"
    ]
    assert max_min_violations(demands, {"l": 2.0}, {"a": 1.0, "b": 1.0}) == []


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
        ("duplicate flow id", "'b0'"),
        ("unknown probe vm", "'nobody'"),
        ("unknown background vm", "'ghost'"),
    ],
)
def test_bad_input_is_a_repro_error_naming_the_offender(case, named):
    provider, names = _provider()
    a, b, c, _ = names
    background = [_flow("b0", a, b), _flow("b1", b, c)]
    pair = (a, c)
    if case == "duplicate flow id":
        background.append(_flow("b0", c, a))
    elif case == "unknown probe vm":
        pair = (a, "nobody")
    else:
        background.append(_flow("b2", "ghost", a))
    with pytest.raises(ReproError, match=named):
        snapshot_rates(provider, [pair], background)
