"""Rates do not depend on how the links are numbered.

Every max-min fill runs one round per level: it freezes the unfrozen flows
of every link at the least share together, each once, so no round reads a
link's index.  Here random instances rich in equal capacities — small
trees with host and fabric links of two sizes, a hose pair in front of
every host on half of them, a zero-capacity link and an infinite one — are
filled under their links' own numbering and under a random relabelling,
and each fill must give the same rates, bit for bit:

* the heap fill (the allocator's scalar solve);
* the array fill (its vector solve, forced at every size);
* a resumed array fill after random removals (the binding path refused, so
  the fill replays its log's prefix and searches the rest);
* :func:`~repro.net.fairness.probe_rates_under_load`, for a few probes.

The heap and the array fill must agree with each other, every fill must
pass :func:`~repro.net.fairness.max_min_violations`, and each probe's rate
must be the one a heap fill of the background and that probe gives it.
With ``hypothesis`` installed, more seeds run through the same case.
"""

import math

import numpy as np
import pytest

from oracles.graph_search import route_ids
from oracles.max_min import force_solves
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand, max_min_violations, probe_rates_under_load
from repro.net.topology import TreeSpec, build_multi_rooted_tree
from repro.units import GBITPS

SEEDS = range(24)


def instance(seed):
    """Link capacities and flow paths (link names), a tuple per flow."""
    rng = np.random.default_rng(seed)
    sizes = [1.0 * GBITPS, 2.0 * GBITPS]
    spec = TreeSpec(
        pods=int(rng.integers(1, 3)),
        racks_per_pod=int(rng.integers(1, 4)),
        hosts_per_rack=int(rng.integers(2, 4)),
        num_cores=int(rng.integers(1, 3)),
        host_link_bps=float(rng.choice(sizes)),
        tor_agg_link_bps=float(rng.choice(sizes)),
        agg_core_link_bps=float(rng.choice(sizes)),
    )
    topology = build_multi_rooted_tree(spec)
    caps = dict(topology.capacities())
    hosts = topology.hosts()
    hosed = bool(rng.integers(2))
    if hosed:
        for host in hosts:
            caps[f"out:{host}"] = caps[f"in:{host}"] = float(rng.choice(sizes)) / 2
    caps["zero"], caps["open"] = 0.0, math.inf
    paths = []
    for _ in range(int(rng.integers(12, 60))):
        roll = rng.random()
        if roll < 0.04:
            paths.append(())
            continue
        if roll < 0.08:
            paths.append(("open",))
            continue
        src, dst = (hosts[i] for i in rng.choice(len(hosts), 2, replace=False))
        links = route_ids(topology, src, dst)
        if hosed:
            links = [f"out:{src}", *links, f"in:{dst}"]
        if rng.random() < 0.05:
            links.append("zero")
        if rng.random() < 0.1:
            links.append("open")
        paths.append(tuple(links))
    return caps, paths, rng


def solved(caps, paths, vector):
    """A fresh allocator of ``paths`` over ``caps`` (in its order), solved
    on the given fill; its rates, a float per path."""
    with pytest.MonkeyPatch.context() as patch:
        force_solves(patch, vector)
        allocator = IncrementalAllocator(caps)
        slots = add(allocator, caps, paths)
        return allocator.solve_slots()[slots].tolist()


def add(allocator, caps, paths):
    index = {link: i for i, link in enumerate(caps)}
    rows = [index[link] for path in paths for link in path]
    return allocator.add_flows(np.array(rows, dtype=np.intp), [len(p) for p in paths])


def resumed(caps, paths, gone):
    """The survivors' rates after ``gone`` (path positions) leave a solved
    allocator, half one by one and half as a batch, and the rounds the
    next fill replayed: an array fill, with the binding path refused."""
    with pytest.MonkeyPatch.context() as patch:
        force_solves(patch, True)
        patch.setattr(IncrementalAllocator, "_solve_binding", lambda self: None)
        allocator = IncrementalAllocator(caps)
        slots = add(allocator, caps, paths)
        allocator.solve_slots()
        before = allocator.solver_stats()["rounds_replayed"]
        half = len(gone) // 2
        for i in gone[:half]:
            allocator.remove_flow(int(slots[i]))
        allocator.remove_flows(slots[gone[half:]])
        rates = allocator.solve_slots()
        kept = sorted(set(range(len(paths))) - set(gone))
        return {i: rates[slots[i]] for i in kept}, (
            allocator.solver_stats()["rounds_replayed"] - before
        )


def probe_rates(caps, background, probes):
    """:func:`probe_rates_under_load` over ``caps``' order."""
    index = {link: i for i, link in enumerate(caps)}

    def rows(paths):
        width = max([len(p) for p in paths] + [1])
        table = np.full((len(paths), width), -1, dtype=np.intp)
        for i, path in enumerate(paths):
            table[i, : len(path)] = [index[link] for link in path]
        return table

    capacity = np.array(list(caps.values()))
    return probe_rates_under_load(capacity, rows(background), rows(probes))[0].tolist()


def fills(caps, paths, gone, probes):
    """Every fill of the instance under ``caps``' link order."""
    survivors, replayed = resumed(caps, paths, gone)
    return {
        "heap": solved(caps, paths, vector=False),
        "array": solved(caps, paths, vector=True),
        "resumed": survivors,
        "probes": probe_rates(caps, paths, probes),
    }, replayed


def certified(caps, paths, rates):
    demands = {i: FlowDemand(paths[i]) for i in range(len(paths))}
    return max_min_violations(demands, caps, dict(enumerate(rates)))


def check_relabelling(seed):
    """Fill the instance of ``seed`` under its own link order and under a
    random relabelling; returns the rounds the resumed fills replayed."""
    caps, paths, rng = instance(seed)
    gone = sorted(rng.choice(len(paths), int(rng.integers(1, 6)), replace=False).tolist())
    routed = [path for path in paths if path]
    probes = [routed[i] for i in rng.choice(len(routed), 4)]
    names = list(caps)
    relabelled = {names[i]: caps[names[i]] for i in rng.permutation(len(names))}
    own, replayed = fills(caps, paths, gone, probes)
    other, replayed_too = fills(relabelled, paths, gone, probes)
    assert own == other, seed
    assert own["heap"] == own["array"], seed
    assert certified(caps, paths, own["heap"]) == [], seed
    kept = sorted(own["resumed"])
    assert certified(caps, [paths[i] for i in kept], [own["resumed"][i] for i in kept]) == []
    for probe, rate in zip(probes, own["probes"]):
        assert solved(caps, [*paths, probe], vector=False)[-1] == rate, seed
    return replayed + replayed_too


def test_rates_do_not_depend_on_how_links_are_numbered():
    replayed = [check_relabelling(seed) for seed in SEEDS]
    # The resumed fills did replay a logged prefix, not just start over.
    assert sum(count > 0 for count in replayed) >= len(SEEDS) // 2


def test_more_seeds_by_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(strategies.integers(min_value=100, max_value=10_000))
    def case(seed):
        check_relabelling(seed)

    case()
