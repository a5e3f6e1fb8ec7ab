"""The fluid engine's flow table: batched paths against their per-flow twins.

Three batched mechanisms carry a flow from ``FluidSimulation.add_flows`` to
``FluidResult`` and each has a per-flow oracle that must agree exactly:

* ``IncrementalAllocator.add_flows``/``remove_flows`` over the batch cut
  against the same edits row by row on a twin allocator (slots, free list,
  solve counters, rates);
* batch registration and the vector event loop against one-by-one
  registration and the scalar loop (the raw segment log each writes, as a
  multiset of rows; every ``FluidResult`` field, dict order included, and
  every rate segment), run after run, with flows withdrawn at the pauses —
  and every flow's bytes conserved;
* the timeline table's reduction of a segment log against the verbatim
  ``RateTimeline.append`` (``tests/oracles/rate_append.py``).
"""

from __future__ import annotations

import gc
import itertools
import random
import sys

import numpy as np
import pytest

from helpers import figure3_layout, traced_spans, routes_of
from oracles.graph_search import SearchedGraph, route_ids
from oracles.max_min import flow_demands, force_solves, run_loop
from oracles.rate_append import AppendedTimeline
from repro.errors import RoutingError, SimulationError
from repro.net import alloc
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import max_min_violations
from repro.net.flows import Flow, FlowState
from repro.net.fluid import _BYTE_EPS, FluidSimulation, RateTimeline, _TimelineTable
from repro.net.links import hose_link_id
from repro.net.topology import TreeSpec, build_multi_rooted_tree


# ------------------------------------------------------------ (a) allocator
N_LINKS = 300
LINK_IDS = [f"l{i}" for i in range(N_LINKS)]


def _random_row(rng: random.Random):
    """Link indices: mostly 1-6 distinct links, sometimes none."""
    if rng.random() > 0.08:
        return rng.sample(range(N_LINKS), rng.randint(1, 6))
    return []


def _membership(allocator):
    """Per link its members as a sorted list (read through
    ``_link_members``, so each link's count too), and per registered slot
    its CSR row."""
    rows = {}
    for slot in np.flatnonzero(allocator._live[: allocator._n_slots]).tolist():
        start = int(allocator._row_start[slot])
        rows[slot] = allocator._row_data[
            start : start + int(allocator._slot_nlinks[slot])
        ].tolist()
    members = [
        sorted(allocator._link_members(link).tolist())
        for link in range(len(allocator._link_ids))
    ]
    return members, rows


def _assert_same_state(batched, twin, context):
    assert batched._n_slots == twin._n_slots, context
    assert batched._free_slots == twin._free_slots, context
    members, rows = _membership(batched)
    assert (members, rows) == _membership(twin), context
    assert batched._linkless == twin._linkless, context
    assert batched._resume == twin._resume, context
    live = sorted(rows)
    assert batched.solve_slots()[live].tolist() == twin.solve_slots()[live].tolist(), context
    assert batched.solver_stats() == twin.solver_stats(), context


@pytest.mark.parametrize("mode", ["vector", "auto"])
@pytest.mark.parametrize("seed", range(3))
def test_batched_edits_leave_the_per_flow_state(mode, seed, monkeypatch):
    grouped = []
    group_by_link = alloc._group_by_link
    monkeypatch.setattr(
        alloc, "_group_by_link",
        lambda links: grouped.append(len(links)) or group_by_link(links),
    )
    # The cut is policy: lower it so that cheap batches sit on both sides.
    monkeypatch.setattr(alloc, "_BATCH_MIN", 8)
    if mode == "vector":
        force_solves(monkeypatch, True)
    rng = random.Random(seed)
    capacities = {link: rng.choice([1.0, 2.0, 5.0, 10.0]) * 100 for link in LINK_IDS}
    batched = IncrementalAllocator(capacities)
    twin = IncrementalAllocator(capacities)
    live = []
    for step in range(30):
        context = f"mode={mode} seed={seed} step={step}"
        # Adds and removals on both sides of the batch cut, removals
        # shuffled so that freed slots come back out of slot order.
        if live and rng.random() < 0.45:
            rng.shuffle(live)
            n_gone = rng.choice([1, 3, alloc._BATCH_MIN, len(live) // 2, len(live)])
            gone, live = live[:n_gone], live[n_gone:]
            batched.remove_flows(gone)
            for slot in gone:
                twin.remove_flow(slot)
        else:
            n_new = rng.choice([1, 5, alloc._BATCH_MIN, 40, 200])
            rows = [_random_row(rng) for _ in range(n_new)]
            repeated = rng.random() < 0.15
            if repeated:
                rows[rng.randrange(n_new)].extend([7, 7])
            flat = np.array(list(itertools.chain.from_iterable(rows)), dtype=np.intp)
            lengths = np.array([len(row) for row in rows])
            if repeated:
                # A row that crosses one link twice: the whole batch is
                # refused, on either side of the cut, and nothing changes.
                with pytest.raises(SimulationError, match="crosses link 'l7'"):
                    batched.add_flows(flat, lengths)
                _assert_same_state(batched, twin, context)
                continue
            slots = batched.add_flows(flat, lengths).tolist()
            expected = [int(twin.add_flows(row, [len(row)])[0]) for row in rows]
            assert slots == expected, context
            live.extend(slots)
        _assert_same_state(batched, twin, context)
    # Most edits over the cut really were grouped by link, not replayed.
    assert len(grouped) >= 6


def test_batched_edits_reject_a_bad_batch_whole(monkeypatch):
    monkeypatch.setattr(alloc, "_BATCH_MIN", 8)
    live = IncrementalAllocator({link: 1.0 for link in LINK_IDS})
    rows = np.arange(10, dtype=np.intp)
    ones = np.ones(10, dtype=np.int64)
    slots = live.add_flows(rows, ones).tolist()
    live.remove_flow(slots[9])
    before = _membership(live), list(live._free_slots)
    with pytest.raises(SimulationError, match="disagree"):
        live.add_flows(rows, ones[:9])
    with pytest.raises(SimulationError, match="unknown link index"):
        live.add_flows(rows + N_LINKS - 5, ones)
    with pytest.raises(SimulationError, match="row 9 of the batch crosses link 'l9'"):
        live.add_flows(np.append(rows, 9), np.append(ones[:9], 2))
    for gone in (slots[:8] + [slots[9]], slots[:8] + [len(slots)], slots[:8] + [-1]):
        with pytest.raises(SimulationError, match="not live"):
            live.remove_flows(gone)
    with pytest.raises(SimulationError, match="repeated"):
        live.remove_flows(slots[:9] + [slots[0]])
    for gone in (slots[9], len(slots), -1):
        with pytest.raises(SimulationError, match="not live"):
            live.remove_flow(gone)
    assert (_membership(live), live._free_slots) == before and len(live) == 9


# ----------------------------------------------------------- (b) simulation
def _segments(timeline: RateTimeline):
    return [(s.start, s.end, s.rate_bps) for s in timeline.segments]


def _assert_results_identical(reference, got, context):
    """Field by field, dict order included, segment by segment."""
    for field in ("completion_times", "remaining_bytes", "states"):
        assert list(getattr(got, field).items()) == list(
            getattr(reference, field).items()
        ), (context, field)
    assert got.end_time == reference.end_time, context
    assert list(got.timelines) == list(reference.timelines), context
    for flow_id, timeline in reference.timelines.items():
        assert _segments(got.timelines[flow_id]) == _segments(timeline), (
            context, flow_id,
        )


def _log_rows(result):
    """The raw rows of a run's segment log as a multiset (sorted), read
    before any lookup reduces it."""
    return sorted(zip(*(column.tolist() for column in result.timelines._log)))


def _mesh_topology():
    """A non-tree graph (two switches, doubly connected through a third):
    no structured router, every route comes from graph search."""
    hosts, links = figure3_layout([("swL", "swR", 2e8)], 4, "swL", "swR", 1e9)
    return SearchedGraph(
        "dumbbell", hosts, links + [("swL", "swM", 3e8), ("swM", "swR", 3e8)]
    )


def _random_flows(rng: random.Random, hosts, n_flows, staggered):
    flows = []
    for i in range(n_flows):
        src = rng.choice(hosts)
        # One pair in eight is a loopback (colocated) pair.
        dst = src if rng.random() < 0.125 else rng.choice(hosts)
        start = rng.choice([0.0, 0.0, 0.25, rng.uniform(0, 1.0)]) if staggered else 0.0
        if rng.random() < 0.25:
            # A long transfer: it outlives the pauses.
            size = rng.uniform(5e6, 5e7)
        else:
            size = rng.choice([0.0, 1e-7, rng.uniform(1, 2e6), 1e5])
        flows.append(
            Flow(flow_id=f"f{i}", src=src, dst=dst, size_bytes=size, start_time=start)
        )
    return flows


def _mass_retirement_flows(rng: random.Random, hosts):
    """A wave of equal flows on one path, which all finish in one event —
    far more than half the live set — beside a few long flows; then a
    second wave that arrives after the first has gone, into the positions
    and allocator slots it left."""
    src, dst = rng.sample(hosts, 2)
    flows = [
        Flow(flow_id=f"w{i}", src=src, dst=dst, size_bytes=2e4)
        for i in range(rng.choice([20, 40]))
    ]
    for i in range(4):
        a, b = rng.sample(hosts, 2)
        flows.append(Flow(flow_id=f"long{i}", src=a, dst=b, size_bytes=5e7))
    for i in range(rng.choice([12, 30])):
        a, b = rng.sample(hosts, 2)
        flows.append(
            Flow(
                flow_id=f"late{i}", src=a, dst=b, size_bytes=rng.uniform(1e4, 2e6),
                start_time=rng.uniform(0.2, 0.5),
            )
        )
    return flows


def _assert_bytes_conserved(flows, runs, context):
    """Each flow's bytes: what its timelines moved, over the runs it was
    live in, plus what the last of them left, is its size; a completed
    flow has nothing left (or, completed as it started, less than the
    engine's byte tolerance — it never moved)."""
    for flow in flows:
        fid = flow.flow_id
        live_in = [result for result in runs if fid in result.states]
        moved = sum(
            s.rate_bps * (s.end - s.start) / 8
            for result in live_in for s in result.timelines[fid].segments
        )
        last = live_in[-1]
        left = last.remaining_bytes[fid]
        assert moved + left == pytest.approx(flow.size_bytes, rel=1e-9), (
            context, fid,
        )
        if last.states[fid] is FlowState.COMPLETED:
            assert left == 0.0 or (moved == 0.0 and left <= _BYTE_EPS), (context, fid)


@pytest.mark.parametrize("seed", range(30))
def test_batch_registration_and_vector_loop_match_the_scalar_oracle(
    seed, monkeypatch, tmp_path
):
    # Activation and retire batches on both sides of the allocator's cut.
    monkeypatch.setattr(alloc, "_BATCH_MIN", 6)
    rng = random.Random(seed)
    # Seeds from 24 on: the mass retirement shape, paused once, with a
    # withdrawal at the pause.
    mass = seed >= 24
    if seed % 3 == 0:
        topo = _mesh_topology()
    else:
        topo = build_multi_rooted_tree(TreeSpec(
            pods=rng.choice([1, 2, 3]), racks_per_pod=rng.choice([1, 2]),
            hosts_per_rack=rng.choice([2, 4]), num_cores=rng.choice([1, 2]),
        ))
    hosts = topo.hosts()
    # Per-VM virtual links, as a provider declares its hoses.
    extra_capacities = {hose_link_id(f"vm{i}"): 3e8 for i in range(4)}
    hosed, loopback_hosed = [], False
    if seed % 2:
        # A per-host egress cap on every other host, too (on loopback
        # traffic as well, every fourth seed).
        hosed, rate = hosts[::2], rng.choice([2e8, 5e8])
        loopback_hosed = seed % 4 == 1
        extra_capacities.update((hose_link_id(host), rate) for host in hosed)
    # Few flows or many; start times staggered or all at once.
    if mass:
        flows = _mass_retirement_flows(rng, hosts)
    else:
        flows = _random_flows(
            rng, hosts, rng.choice([3, 12, 60]), staggered=rng.random() < 0.7
        )
    extras = [
        [] if mass or flow.src == flow.dst or rng.random() < 0.5
        else [hose_link_id(f"vm{rng.randrange(4)}")]
        for flow in flows
    ]
    for flow, extra in zip(flows, extras):
        if flow.src in hosed and (flow.src != flow.dst or loopback_hosed):
            extra.append(hose_link_id(flow.src))
    kwargs = dict(extra_capacities=extra_capacities)
    # One by one, a flow that crosses no extra link routed by name; in two
    # batches (so that the table has more than one chunk), every flow
    # handed over as rows.
    one_by_one = FluidSimulation(topo, **kwargs)
    for flow, extra in zip(flows, extras):
        if extra:
            one_by_one.add_flows([flow], routes_of(one_by_one, [flow], [extra]))
        else:
            one_by_one.add_flow(flow)
    batch = FluidSimulation(topo, **kwargs)
    cut = len(flows) // 2
    batch.add_flows(flows[:cut], routes_of(batch, flows[:cut], extras[:cut]))
    batch.add_flows(flows[cut:], routes_of(batch, flows[cut:], extras[cut:]))

    for a, b in zip(one_by_one._table(), batch._table()):
        assert a.tolist() == b.tolist()
    assert flow_demands(batch) == flow_demands(one_by_one)
    for flow, extra in zip(flows, extras):
        links = flow_demands(batch)[flow.flow_id].links
        path = route_ids(topo, flow.src, flow.dst)
        assert list(links) == extra + path

    # Up to two pauses, a flow withdrawn at each with even odds, then the
    # rest run to completion.
    runs, until = [], 0.0
    with traced_spans(tmp_path / "trace.jsonl") as spans:
        for step in range(3):
            if mass:
                until = 0.3 if step == 0 else None
            else:
                until = (
                    None if step == 2 or rng.random() < 0.3
                    else until + rng.uniform(0.0, 0.6)
                )
            context = f"seed={seed} step={step} until={until}"
            scalar = run_loop(one_by_one, vector=False, until=until)
            vector = run_loop(batch, vector=True, until=until)
            # Both loops write one log: the same rows, closed in its own
            # order by each.
            assert _log_rows(scalar) == _log_rows(vector), context
            _assert_results_identical(scalar, vector, context)
            runs.append(scalar)
            if until is None:
                break
            live = [
                fid for fid, state in scalar.states.items()
                if state is not FlowState.COMPLETED
            ]
            if live and (mass or rng.random() < 0.5):
                victim = rng.choice(live)
                left = one_by_one.withdraw_flows([victim])
                assert left == batch.withdraw_flows([victim])
                assert left == {victim: scalar.remaining_bytes[victim]}, context
    assert one_by_one.idle and batch.idle
    _assert_bytes_conserved(flows, runs, f"seed={seed}")
    if mass:
        # The wave went in one event, and the vector loop compacted after it.
        wave = [fid for fid in runs[0].completion_times if fid.startswith("w")]
        assert len({runs[0].completion_times[fid] for fid in wave}) == 1
        assert len(runs) == 2 and len(runs[1].states) < len(flows) - len(wave)
        assert sum(s["compactions"] for s in spans if s["loop"] == "vector") >= 1


def _registered(sim):
    return list(sim._flows), [a.tolist() for a in sim._table()]


def test_a_failed_batch_leaves_the_simulation_as_it_was():
    topo = build_multi_rooted_tree(TreeSpec(2, 2, 2, 2))
    hosts = topo.hosts()
    sim = FluidSimulation(topo, extra_capacities={"x": 1e9})

    def flow(name, src=hosts[0], dst=hosts[5]):
        return Flow(flow_id=name, src=src, dst=dst, size_bytes=1e5)

    first = [flow("a"), flow("b")]
    sim.add_flows(first, routes_of(sim, first, [["x"], []]))
    before = _registered(sim)
    good = [flow(f"g{i}") for i in range(49)]
    failures = [
        (good + [flow("g7")], SimulationError, "duplicate flow id 'g7'"),
        (good + [flow("b")], SimulationError, "duplicate flow id 'b'"),
        (good + [flow("lost", dst="nowhere")], RoutingError, "nowhere"),
        (good + [flow("loop", src="core0", dst="core0")], RoutingError, "core0"),
        (good + [flow("gone", src="nowhere", dst="nowhere")], RoutingError, "nowhere"),
    ]
    for flows, error, message in failures:
        with pytest.raises(error, match=message):
            sim.add_flows(flows)
        assert _registered(sim) == before
    with pytest.raises(SimulationError, match="duplicate flow id 'g7'"):
        sim.add_flows(good + [flow("g7")], routes_of(sim, good + [flow("g7")], [[]] * 50))
    with pytest.raises(SimulationError, match="duplicate flow id 'a'"):
        sim.add_flow(flow("a"))
    assert _registered(sim) == before
    sim.add_flows(good)
    assert len(sim.run().completion_times) == 51


def test_batch_registration_is_independent_of_the_collector():
    """No collection can start inside ``add_flows`` — however low the
    allocation threshold — and the caller's collector setting survives a
    successful and a raising call alike."""
    topo = build_multi_rooted_tree(TreeSpec(2, 2, 2, 2))
    hosts = topo.hosts()
    flows = [
        Flow(flow_id=f"f{i}", src=hosts[i % 4], dst=hosts[4 + i % 4], size_bytes=1e5)
        for i in range(400)
    ]
    body = getattr(FluidSimulation.add_flows, "__wrapped__", FluidSimulation.add_flows)
    inside = []

    def on_collection(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is body.__code__:
                inside.append(info["generation"])
                break
            frame = frame.f_back

    threshold = gc.get_threshold()
    was_enabled = gc.isenabled()
    gc.callbacks.append(on_collection)
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            sim = FluidSimulation(topo)
            gc.set_threshold(1)  # a collection at every container allocation
            sim.add_flows(flows)
            assert gc.isenabled() is enabled
            with pytest.raises(SimulationError, match="duplicate flow id 'f0'"):
                sim.add_flows(flows)
            assert gc.isenabled() is enabled
            gc.set_threshold(*threshold)
        assert inside == []
    finally:
        gc.callbacks.remove(on_collection)
        gc.set_threshold(*threshold)
        gc.enable() if was_enabled else gc.disable()


def test_first_segment_rates_are_max_min_fair():
    """The t=0 allocation of a batch-registered run (240 flows: over the
    allocator's batch cut as shipped), checked against the max-min
    certificate (feasible, and every flow has a bottleneck) and, the whole
    run, against the scalar loop."""
    topo = build_multi_rooted_tree(TreeSpec(2, 2, 4, 2))
    hosts = topo.hosts()
    rng = random.Random(7)
    flows = [
        Flow(flow_id=f"f{i}", src=a, dst=b, size_bytes=rng.choice([1e6, 2e6, 4e6]))
        for i, (a, b) in enumerate(itertools.permutations(hosts, 2))
    ]
    hose = {hose_link_id(host): 6e8 for host in hosts[:8]}
    extras = [
        [hose_link_id(flow.src)] if hose_link_id(flow.src) in hose else []
        for flow in flows
    ]
    sim = FluidSimulation(topo, extra_capacities=hose)
    sim.add_flows(flows, routes_of(sim, flows, extras))
    result = run_loop(sim, vector=True)
    oracle = FluidSimulation(topo, extra_capacities=hose)
    oracle.add_flows(flows, routes_of(oracle, flows, extras))
    _assert_results_identical(run_loop(oracle, vector=False), result, "full mesh")
    rates = {
        flow_id: timeline.segments[0].rate_bps
        for flow_id, timeline in result.timelines.items()
    }
    assert max_min_violations(flow_demands(sim), sim.capacities, rates) == []


def test_fluid_run_span_counts_batches_and_segments(tmp_path):
    topo = build_multi_rooted_tree(TreeSpec(1, 2, 2, 1))
    hosts = topo.hosts()
    flows = [
        Flow(flow_id=f"f{i}", src=a, dst=b, size_bytes=1e5 * (1 + i % 3))
        for i, (a, b) in enumerate(itertools.permutations(hosts, 2))
    ]
    results = []
    with traced_spans(tmp_path / "trace.jsonl") as spans:
        for vector in (False, True):
            sim = FluidSimulation(topo)
            sim.add_flows(flows)
            results.append(run_loop(sim, vector))
    scalar, vector = spans
    # One schema: the same keys, and the same log.
    assert scalar.keys() == vector.keys()
    assert (scalar.pop("loop"), vector.pop("loop")) == ("scalar", "vector")
    # What each loop compared: the scalar loop every active flow at every
    # event; the vector loop every live flow on the first event, then the
    # slots each solve rewrote.  A subset of those changed rate (a flow's
    # first rate counts), and each change opened a segment that a later
    # change, the flow's retirement or the run's stop closed into one row.
    # Only the vector loop compacts retired flows' positions away, and runs
    # the links that bind through their completions in lockstep.
    scalar_checked, vector_checked = scalar.pop("rates_checked"), vector.pop("rates_checked")
    assert scalar.pop("compactions") == 0
    assert 1 <= vector.pop("compactions") < vector["batches"]
    assert scalar.pop("lockstep_steps") == 0
    assert 1 <= vector.pop("lockstep_steps") < vector["batches"]
    assert scalar == vector
    assert len(flows) <= vector_checked < scalar_checked < vector["batches"] * len(flows)
    assert len(flows) <= vector["rates_changed"] == vector["log_rows"] <= vector_checked
    assert sum(
        len(timeline.segments) for timeline in results[1].timelines.values()
    ) <= vector["log_rows"]
    assert vector["batches"] > 1 and vector["flows"] == len(flows)


# ---------------------------------------------------------- (c) segment log
def _random_stream(rng: random.Random, n_flows: int, n_intervals: int):
    """Interleaved per-flow intervals in time order: gaps, zero-length and
    sub-epsilon intervals, and contiguous runs at one rate."""
    clock = [0.0] * n_flows
    last_rate = [1.0] * n_flows
    stream = []
    for _ in range(n_intervals):
        flow = rng.randrange(n_flows)
        start = clock[flow] + rng.choice([0.0, 0.0, 1e-13, 0.5])
        end = start + rng.choice([0.0, 1e-13, 0.25, rng.uniform(0.01, 2.0)])
        rate = rng.choice([last_rate[flow], last_rate[flow], 1.0, 2.0, 0.0])
        stream.append((flow, start, end, rate))
        clock[flow], last_rate[flow] = end, rate
    return stream


def _table(flow_ids, stream):
    flow, start, end, rate = (
        zip(*stream) if stream else ((), (), (), ())
    )
    return _TimelineTable(
        flow_ids, np.array(flow, dtype=np.intp), np.array(start, dtype=float),
        np.array(end, dtype=float), np.array(rate, dtype=float),
    )


@pytest.mark.parametrize("seed", range(10))
def test_segment_log_reduces_as_append_does(seed):
    rng = random.Random(seed)
    n_flows = rng.choice([1, 3, 12])
    flow_ids = [f"f{i}" for i in range(n_flows)]
    stream = _random_stream(rng, n_flows, rng.choice([0, 1, 40, 400]))
    appended = {flow_id: AppendedTimeline() for flow_id in flow_ids}
    for flow, start, end, rate in stream:
        appended[flow_ids[flow]].append(start, end, rate)
    table = _table(flow_ids, stream)
    assert sum(len(t.segments) for t in table.values()) == sum(
        len(t.segments) for t in appended.values()
    )
    for flow_id, timeline in appended.items():
        got = table[flow_id]
        assert _segments(got) == _segments(timeline)
        assert got._starts == timeline._starts


def _appended(intervals):
    timeline = AppendedTimeline()
    for start, end, rate in intervals:
        timeline.append(start, end, rate)
    return timeline


def test_segment_log_rejects_a_backwards_start():
    backwards = [(1.0, 2.0, 5.0), (0.5, 3.0, 4.0)]
    with pytest.raises(SimulationError, match="chronological"):
        _appended(backwards)
    # The table reduces its log when it is first read, and raises then
    # (and on every read after).
    table = _table(["a", "b"], [(1, 0.0, 1.0, 5.0)] + [(0, *row) for row in backwards])
    assert len(table) == 2 and list(table) == ["a", "b"]
    for _ in range(2):
        with pytest.raises(SimulationError, match="chronological"):
            table["b"]
    # append() compares with the start of the segment the previous
    # intervals merged into, not with its neighbour's start: behind the
    # neighbour but not behind the segment is accepted, by both.
    merged_first = [(0.0, 1.0, 5.0), (1.0, 2.0, 5.0), (0.5, 3.0, 4.0)]
    table = _table(["a"], [(0, *row) for row in merged_first])
    assert _segments(table["a"]) == _segments(_appended(merged_first))
    # A dropped (zero-length) interval is never compared.
    assert len(_table(["a"], [(0, *backwards[0]), (0, 0.5, 0.5, 4.0)])["a"].segments) == 1


def test_timelines_mapping_behaves_as_a_dict():
    flow_ids = ["b", "a", "never"]
    table = _table(flow_ids, [(1, 0.0, 1.0, 3.0), (0, 0.0, 2.0, 4.0)])
    as_dict = {flow_id: table[flow_id] for flow_id in flow_ids}
    assert len(table) == len(as_dict) == 3
    assert list(table) == list(as_dict) == list(table.keys())
    assert "a" in table and "zzz" not in table and 3 not in table
    assert [k for k, _ in table.items()] == flow_ids
    assert [_segments(t) for t in table.values()] == [
        [(0.0, 2.0, 4.0)], [(0.0, 1.0, 3.0)], [],
    ]
    assert table.get("zzz") is None
    with pytest.raises(KeyError) as missing:
        table["zzz"]
    assert missing.value.args == ("zzz",)
    with pytest.raises(TypeError):
        table["a"] = table["b"]
