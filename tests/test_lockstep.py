"""The links that bind, in lockstep: the vector loop's run of completions.

While B holds (each routed flow crosses exactly one link of B, and only
removals followed the last full solve), a link's members share ``C / n``
and each link of B is its own processor-sharing queue, so the vector loop
runs every link through its completions at once and hands the allocator
the retirements as one batch.  It must be invisible: on every instance
here the vector loop (lockstep) and the scalar loop (per event) agree to
the bit — completion times in their insertion order, timelines, bytes
left, states, the clock — and leave the allocator in the same state: free
list, slots, ``_resume``, ``_bind_ops``, headroom, pair counts, rates and
solver counters.  One case per hazard, where the lockstep must stop and
hand the event to the per-event path: an arrival, two links completing
within ``_TIME_EPS`` (but not at one instant: links that do are one event,
in lockstep too), a kept link whose headroom runs out, ``until`` (then a
resume), and ``_bind_ops`` over budget; then random hosed instances, with
twin hoses, staggered starts and pauses.
"""

import numpy as np
import pytest

from helpers import traced_spans
from oracles.max_min import force_loop
from repro.net import alloc
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation
from repro.net.topology import TreeSpec, build_multi_rooted_tree
from repro.units import MBYTE

GBIT = 1e9


def simulate(links, flows, paths, vector, untils=(None,), tmp_path=None, monkeypatch=None):
    """A simulation of ``flows`` on extra links alone (``links``: id ->
    capacity; ``paths[i]``: flow ``i``'s link ids), run once per entry of
    ``untils`` on one loop.  Per run: the result, the allocator's books
    after it, and the ``fluid.run`` span's attributes."""
    topology = build_multi_rooted_tree(TreeSpec(2, 1, 1, 1))
    sim = FluidSimulation(topology, extra_capacities=links)
    index = {link_id: i for i, link_id in enumerate(sim.capacities)}
    sim.add_flows(
        flows,
        (
            np.array([index[link] for path in paths for link in path], dtype=np.intp),
            np.array([len(path) for path in paths], dtype=np.int64),
        ),
    )
    force_loop(monkeypatch, vector)
    runs = []
    with traced_spans(tmp_path / f"trace{vector}.jsonl") as spans:
        for until in untils:
            result = sim.run(until=until)
            runs.append([outcome(result), books(sim)])
    for run, span in zip(runs, spans):
        run.append(span)
    return runs


def outcome(result):
    return (
        list(result.completion_times.items()),
        result.end_time,
        list(result.remaining_bytes.items()),
        list(result.states.items()),
        {fid: result.timelines[fid].segments for fid in result.timelines},
    )


def books(sim):
    """The allocator's books after a run, and the pause's flows with their
    slots and bytes."""
    allocator = sim._allocator
    bound = allocator._bind
    live = np.flatnonzero(allocator._live[: allocator._n_slots]).tolist()
    held = {
        "free": list(allocator._free_slots),
        "active": list(sim._active.items()),
        "slots": live,
        "resume": allocator._resume,
        "bind_ops": allocator._bind_ops,
        "solved": allocator._solved,
        "dirty": sorted(allocator._dirty_links),
        "rates": allocator._slot_rate[live].tolist(),
        "stats": allocator.solver_stats(),
        "bound": bool(bound),
    }
    if bound:
        held["headroom"] = bound.headroom.tolist()
        held["pair_count"] = None if bound.pair_count is None else bound.pair_count.tolist()
    return held


def both(links, flows, paths, tmp_path, monkeypatch, untils=(None,)):
    """The scalar and the vector loop's runs; they must agree to the bit.
    Returns the vector loop's."""
    scalar = simulate(links, flows, paths, False, untils, tmp_path, monkeypatch)
    vector = simulate(links, flows, paths, True, untils, tmp_path, monkeypatch)
    for (s_out, s_books, s_span), (v_out, v_books, v_span) in zip(scalar, vector):
        assert s_out == v_out
        assert s_books == v_books
        for key in ("batches", "rates_changed", "log_rows"):
            assert s_span[key] == v_span[key], key
        assert s_span["lockstep_steps"] == 0
    return vector


def hose(name, sizes_mb, extra=(), start=0.0, scale=1.0):
    """Flows ``name.i`` of ``sizes_mb[i]`` MB (× ``scale``) on hose
    ``name``, the first ``len(extra)`` of them crossing ``extra[i]`` too."""
    flows = [
        Flow(f"{name}.{i}", "host0", "host1", size_bytes=size * scale * MBYTE, start_time=start)
        for i, size in enumerate(sizes_mb)
    ]
    paths = [
        [name] + ([extra[i]] if i < len(extra) and extra[i] else []) for i in range(len(flows))
    ]
    return flows, paths


def join(*parts):
    flows, paths = [], []
    for part_flows, part_paths in parts:
        flows += part_flows
        paths += part_paths
    return flows, paths


def test_an_arrival_mid_run_is_taken_by_the_per_event_path(tmp_path, monkeypatch):
    links = {"a": GBIT, "b": 2 * GBIT, "c": 0.5 * GBIT}
    flows, paths = join(
        hose("a", [3, 7, 11, 19, 23]),
        hose("b", [5, 13, 17, 29]),
        hose("c", [2, 31], start=0.25),
        hose("a", [1, 4], start=0.25),
    )
    # (Distinct ids for the later flows on hose a.)
    flows[-2:] = [
        Flow(f"a.late{i}", f.src, f.dst, f.size_bytes, f.start_time)
        for i, f in enumerate(flows[-2:])
    ]
    ((out, _, span),) = both(links, flows, paths, tmp_path, monkeypatch)
    completions = dict(out[0])
    assert len(completions) == len(flows)
    # Completions before and after the arrival, some of each in lockstep.
    assert min(completions.values()) < 0.25 < max(completions.values())
    assert span["lockstep_steps"] >= 4


def test_two_links_completing_within_the_time_eps_are_one_event(tmp_path, monkeypatch):
    # Hose t is hose s scaled by 3 (capacity and sizes): their members
    # finish within ``_TIME_EPS`` of each other, a few ulps apart, and the
    # per-event path retires both at the earlier instant.
    links = {"s": GBIT, "t": 3 * GBIT, "u": GBIT}
    sizes = [3, 5, 8, 13]
    flows, paths = join(
        hose("s", sizes), hose("t", sizes, scale=3.0), hose("u", [1, 2, 4, 6, 9, 12, 15, 20]),
    )
    ((out, _, span),) = both(links, flows, paths, tmp_path, monkeypatch)
    completions = dict(out[0])
    for i in range(len(sizes)):
        assert completions[f"s.{i}"] == completions[f"t.{i}"]
    assert span["lockstep_steps"] > 0


@pytest.mark.parametrize(("n_twins", "spacing"), [(2, 0), (2, 6), (3, 6)])
def test_links_completing_at_one_instant_are_one_event_in_lockstep(
    n_twins, spacing, tmp_path, monkeypatch
):
    # Hoses of one capacity and the same flow sizes finish their members
    # at identical instants: the per-event path retires them as one event
    # and solves their links together, debiting "core", which each crosses
    # with another number of members, in the order its set of dirty links
    # iterates.  Idle links between the twins space their indices (10, 17,
    # 24 ...), which a set iterates in reverse.
    # (Capacities a binary fraction cannot hold, so that the order of two
    # debits shows in the headroom's last bits.)
    links = {}
    for k in range(n_twins):
        links[f"twin{k}"] = GBIT / 3
        links.update({f"idle{k}.{i}": GBIT for i in range(spacing)})
    links.update(u=GBIT, core=0.6 * GBIT + 1 / 3)
    twins = [f"twin{k}" for k in range(n_twins)]
    sizes = [3, 5, 8, 13, 21]
    # (Core carries at most 4/3 of a twin's capacity, so it never binds,
    # and is kept: the twins crossing it could fill it.)
    crossing = (
        ["core", None, "core", None, None],
        [None, "core", None, "core", None],
        [None, None, "core", "core", None],
    )
    flows, paths = join(
        *(hose(name, sizes, extra=extra) for name, extra in zip(twins, crossing)),
        hose("u", [1, 2, 4, 6, 9, 12]),
    )
    ((out, books_after, span),) = both(links, flows, paths, tmp_path, monkeypatch)
    completions = dict(out[0])
    for i in range(len(sizes)):
        assert len({completions[f"{name}.{i}"] for name in twins}) == 1
    # Every event went through the lockstep, in one run of six steps (u's
    # members), the twins' completions one event each.
    assert span["lockstep_steps"] == 6 and span["batches"] == len(sizes) + 6
    stats = books_after["stats"]
    assert stats["full_solves"] == 1 and stats["binding_solves"] == span["batches"] - 1


def test_a_kept_link_whose_headroom_runs_out_is_refused_mid_run(tmp_path, monkeypatch):
    # Hoses p and q send two flows each across "core" (1.2 Gbit/s: not
    # hose-safe, a kept link), and two more each elsewhere.  Once p's two
    # others are done its core flows get 0.5 Gbit/s each and core would
    # carry 1.5: the binding path refuses there, after hose r's
    # completions and p's first went through in lockstep.
    links = {"p": GBIT, "q": GBIT, "r": GBIT, "core": 1.2 * GBIT}
    flows, paths = join(
        hose("p", [40, 45, 2, 4], extra=["core", "core"]),
        hose("q", [50, 55, 60, 65], extra=["core", "core"]),
        hose("r", [0.5, 1, 1.5, 2.5]),
    )
    ((out, books_after, span),) = both(links, flows, paths, tmp_path, monkeypatch)
    assert books_after["stats"]["binding_refusals"] >= 1
    assert span["lockstep_steps"] >= 4
    assert len(out[0]) == len(flows)


def test_until_mid_lockstep_then_resume(tmp_path, monkeypatch):
    links = {"a": GBIT, "b": 2 * GBIT, "core": 1.5 * GBIT}
    flows, paths = join(
        hose("a", [3, 7, 11, 19, 23, 29], extra=["core", "core"]),
        hose("b", [5, 13, 17, 29, 31], extra=["core"]),
    )
    (first, books_paused, span), (second, _, resumed) = both(
        links, flows, paths, tmp_path, monkeypatch, untils=(0.2, None)
    )
    assert first[1] == 0.2 and 0 < len(first[0]) < len(flows)
    assert len(first[0]) + len(second[0]) == len(flows)
    assert books_paused["bound"] and span["lockstep_steps"] and resumed["lockstep_steps"]


def test_bind_ops_over_budget_is_refused_mid_run(tmp_path, monkeypatch):
    # 30 routed flows start the budget at 60; the removals add one op
    # each, so a budget of 75 runs out halfway.  No link is kept: every
    # refusal is the budget's.
    monkeypatch.setattr(alloc, "_BIND_EPS", 75 / 2.0**51)
    links = {"a": GBIT, "b": GBIT, "c": 2 * GBIT}
    flows, paths = join(
        hose("a", [1 + 2 * i for i in range(10)]),
        hose("b", [2 + 3 * i for i in range(10)]),
        hose("c", [5 + 4 * i for i in range(10)]),
    )
    ((out, books_after, span),) = both(links, flows, paths, tmp_path, monkeypatch)
    assert books_after["stats"]["binding_refusals"] >= 1
    assert span["lockstep_steps"] > 0
    assert len(out[0]) == len(flows)


@pytest.mark.parametrize("seed", range(12))
def test_random_hosed_instances_agree_to_the_bit(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    n_hoses = int(rng.integers(2, 7))
    links = {f"h{i}": float(rng.choice([0.5, 1.0, 2.0])) * GBIT for i in range(n_hoses)}
    links["core"] = float(rng.uniform(1.0, 4.0)) * GBIT
    links["spine"] = float(rng.uniform(2.0, 8.0)) * GBIT
    parts = []
    for i in range(n_hoses):
        n = int(rng.integers(1, 9))
        sizes = rng.integers(1, 40, n).astype(float).tolist()
        extra = [["core", "spine", None][k] for k in rng.integers(0, 3, n)]
        start = float(rng.choice([0.0, 0.0, 0.1, 0.3]))
        twins = [f"h{i}"] + ([f"h{i}b"] if rng.random() < 0.5 else [])
        for name in twins:  # (a twin: the same flows, on an identical hose)
            links[name] = links[f"h{i}"]
            part_flows, part_paths = hose(name, sizes, extra, start=start)
            parts.append(([
                Flow(f"{flow.flow_id}@{start}", flow.src, flow.dst, flow.size_bytes, start)
                for flow in part_flows
            ], part_paths))
    flows, paths = join(*parts)
    untils = (float(rng.uniform(0.05, 0.5)), None) if seed % 2 else (None,)
    runs = both(links, flows, paths, tmp_path, monkeypatch, untils=untils)
    assert sum(len(run[0][0]) for run in runs) == len(flows)
