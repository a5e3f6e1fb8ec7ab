"""What a simulation gives back, and what one fluid run holds at its peak.

A CPython set never shrinks on ``discard`` or ``difference_update``; only
``clear()`` frees its table.  So the allocator clears a link's member set
when the link's last flow leaves, and once every flow of a batch has left,
every member set is as small as an empty one, whichever way the flows left.

The vector event loop logs its rate segments into four columns grown in
place and hands their written rows to the timeline table, which gathers
each column once.  The traced peak of one such run is pinned here, as
``tests/test_route_table.py`` pins a campaign's.
"""

import sys
import tracemalloc

import numpy as np
import pytest

import repro.net.alloc as alloc
from repro.net.alloc import IncrementalAllocator
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation, _LOOP_MIN_FLOWS
from repro.net.topology import TreeSpec, build_multi_rooted_tree
from repro.units import GBITPS, MBYTE

EMPTY_SET_BYTES = sys.getsizeof(set())


def loaded_allocator(n_flows: int, n_links: int = 12, width: int = 3):
    """An allocator holding ``n_flows`` flows, added as one batch, each
    crossing ``width`` of ``n_links`` links, solved once."""
    allocator = IncrementalAllocator({f"l{i}": 1.0 * GBITPS for i in range(n_links)})
    rng = np.random.default_rng(n_flows)
    rows = np.concatenate(
        [rng.choice(n_links, size=width, replace=False) for _ in range(n_flows)]
    )
    flow_ids = [f"f{i}" for i in range(n_flows)]
    allocator.add_flows(flow_ids, rows, np.full(n_flows, width))
    allocator.solve()
    return allocator, flow_ids


@pytest.mark.parametrize("batched", [True, False])
def test_member_sets_are_freed_when_every_flow_leaves(batched):
    """192 flows on 12 links: every link's set grew to hold about 48 slots.
    Half leave (the sets keep the rest), then the other half, as one batch
    or flow by flow: no set is left bigger than an empty one."""
    n_flows = 192
    assert n_flows // 2 >= alloc._BATCH_MIN
    allocator, flow_ids = loaded_allocator(n_flows)
    members = allocator._members
    assert min(sys.getsizeof(m) for m in members) > EMPTY_SET_BYTES
    for half in (flow_ids[::2], flow_ids[1::2]):
        if batched:
            allocator.remove_flows(half)
        else:
            for flow_id in half:
                allocator.remove_flow(flow_id)
        allocator.solve()
    assert len(allocator) == 0 and not any(members)
    assert [sys.getsizeof(m) for m in members] == [EMPTY_SET_BYTES] * len(members)


def shuffle(n_mappers: int = 24, n_reducers: int = 24, levels: int = 16) -> FluidSimulation:
    """A ``n_mappers`` × ``n_reducers`` shuffle on a 16-host tree, flow
    sizes cycling through ``levels`` megabytes: many events, each of which
    re-rates many flows, so the run logs thousands of segments."""
    topology = build_multi_rooted_tree(
        TreeSpec(pods=2, racks_per_pod=2, hosts_per_rack=4, num_cores=2)
    )
    hosts = topology.hosts()
    sim = FluidSimulation(topology)
    sim.add_flows([
        Flow(
            f"m{i}>r{j}", hosts[i % len(hosts)], hosts[(n_mappers + j) % len(hosts)],
            size_bytes=float((1 + (i * n_reducers + j) % levels) * MBYTE),
        )
        for i in range(n_mappers)
        for j in range(n_reducers)
    ])
    return sim


#: Traced peak (``tracemalloc``) of ``shuffle().run()`` — 576 flows, so the
#: vector event loop, 4 211 segments — as this test's body measured it on
#: the code that logs segments into growable columns: 0.78 MiB on x86-64,
#: Python 3.11.7, NumPy 2.4.6 (0.77–0.79 MiB alone and inside the suite; the
#: code before it, which kept per-event arrays and concatenated them, peaked
#: at 1.16–1.19 MiB).  The bound allows 5 % over the figure.  The figure
#: depends on the NumPy build: when the installed NumPy changes, re-measure
#: it with this body on this code.
RUN_PEAK_MIB = 0.78


def test_a_vector_run_holds_its_segment_log_once():
    sim = shuffle()
    assert len(sim._flows) >= _LOOP_MIN_FLOWS
    tracemalloc.start()
    try:
        result = sim.run()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(result.completion_times) == 24 * 24
    assert result.timelines.n_segments == 4211
    assert peak <= RUN_PEAK_MIB * 1.05, f"{peak:.3f} MiB"
