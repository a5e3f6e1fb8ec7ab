"""Fluid-simulator tests: max-min rates and completion times match hand
calculations on the paper's Figure 3(a) dumbbell topology."""

import contextlib
import math
import signal

import numpy as np
import pytest

from helpers import build_dumbbell, build_two_rack_cloud, routes_of
from oracles.graph_search import route_ids
from oracles.max_min import run_loop, start_bytes
from repro.errors import SimulationError
from repro.net.fairness import byte_violations, segment_violations
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation
from repro.units import GBITPS, MBYTE

# 1 Gbit/s shared link; 10 Gbit/s access links so the dumbbell is the only
# bottleneck and rates are exact fractions.
SHARED = 1 * GBITPS


@pytest.fixture
def dumbbell():
    return build_dumbbell(n_pairs=3, shared_link_bps=SHARED, access_link_bps=10 * GBITPS)


def _backlogged(i: int) -> Flow:
    """A bulk flow far too big to finish in the 10 s the tests run."""
    return Flow(flow_id=f"f{i}", src=f"s{i}", dst=f"r{i}", size_bytes=1e12)


def test_two_backlogged_flows_split_shared_link_evenly(dumbbell):
    sim = FluidSimulation(dumbbell)
    sim.add_flows([_backlogged(1), _backlogged(2)])
    result = sim.run(until=10.0)
    for fid in ("f1", "f2"):
        assert result.timelines[fid].average_rate(0.0, 10.0) == pytest.approx(SHARED / 2)
        assert result.states[fid].value == "stopped"


def test_finite_flow_completion_time_is_bytes_over_rate(dumbbell):
    # 125 MByte = 1 Gbit; alone on a 1 Gbit/s bottleneck -> exactly 1 second.
    flow = Flow(flow_id="xfer", src="s1", dst="r1", size_bytes=125 * MBYTE)
    sim = FluidSimulation(dumbbell)
    sim.add_flow(flow)
    result = sim.run()
    assert result.completion_times["xfer"] == pytest.approx(1.0)
    assert result.states["xfer"].value == "completed"


def test_departing_flow_releases_bandwidth_to_survivor(dumbbell):
    # A: 125 MByte, B: 62.5 MByte, both start at 0 sharing 1 Gbit/s.
    # Each gets 0.5 Gbit/s; B (0.5 Gbit of data) finishes at t=1.0; A then
    # has 62.5 MByte left at the full 1 Gbit/s -> finishes at t=1.5.
    sim = FluidSimulation(dumbbell)
    sim.add_flow(Flow(flow_id="A", src="s1", dst="r1", size_bytes=125 * MBYTE))
    sim.add_flow(Flow(flow_id="B", src="s2", dst="r2", size_bytes=62.5 * MBYTE))
    result = sim.run()
    assert result.completion_times["B"] == pytest.approx(1.0)
    assert result.completion_times["A"] == pytest.approx(1.5)
    # A's timeline records the rate change: 0.5 Gbit/s then 1 Gbit/s.
    rates = [seg.rate_bps for seg in result.timelines["A"].segments]
    assert rates == pytest.approx([0.5 * GBITPS, 1.0 * GBITPS])


@contextlib.contextmanager
def _deadline(seconds=5.0):
    """Fail a case that takes longer than ``seconds`` instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"case exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _simulate(flow=None, update=None, **sim_kwargs):
    """Build a two-rack simulation (hosts s1, s2, r1, r2), add ``flow`` and
    run it; with ``update``, change extra-link capacities before that."""
    topo = build_two_rack_cloud(2)
    sim = FluidSimulation(topo, **sim_kwargs)
    if update is not None:
        sim.update_extra_capacities(update)
    sim.add_flow(flow or Flow("ok", "s1", "r1", size_bytes=1e6))
    return sim.run()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "case, names",
    [
        # A NaN start is never reached: the event loop used to spin forever.
        (lambda: _simulate(Flow("f", "s1", "r1", size_bytes=1e6, start_time=NAN)), "'f'"),
        (lambda: _simulate(Flow("f", "s1", "r1", size_bytes=1e6, start_time=INF)), "'f'"),
        (lambda: _simulate(Flow("f", "s1", "r1", size_bytes=NAN)), "'f'"),
        (lambda: _simulate(Flow("f", "s1", "r1", size_bytes=INF)), "'f'"),
        (lambda: _simulate(extra_capacities={"vhose": 1e9}, update={"vhose": NAN}),
         "'vhose'"),
        (lambda: _simulate(extra_capacities={"vhose": NAN}), "'vhose'"),
    ],
    ids=[
        "nan-start", "inf-start", "nan-size", "inf-size", "nan-update",
        "nan-extra",
    ],
)
def test_non_finite_inputs_are_rejected_by_name(case, names):
    with _deadline():
        with pytest.raises(SimulationError, match=names):
            case()


def _one_flow():
    sim = FluidSimulation(build_two_rack_cloud(2))
    sim.add_flow(Flow("ok", "s1", "r1", size_bytes=1e6))
    return sim


@pytest.mark.parametrize("until", [NAN, -INF], ids=["nan", "minus-inf"])
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_a_run_until_nan_or_minus_inf_is_rejected_by_value(vector, until):
    # NaN used to mean "no limit"; -inf left the clock paused at -inf.
    sim = _one_flow()
    with _deadline():
        with pytest.raises(SimulationError, match=f"until {until!r}"):
            run_loop(sim, vector, until=until)
    assert run_loop(sim, vector).completion_times["ok"] == pytest.approx(0.008)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_a_run_until_inf_has_no_limit(vector):
    unlimited = run_loop(_one_flow(), vector, until=INF)
    plain = run_loop(_one_flow(), vector)
    for field in ("completion_times", "remaining_bytes", "states", "end_time"):
        assert getattr(unlimited, field) == getattr(plain, field), field
    assert _segments(unlimited) == _segments(plain)
    assert unlimited.end_time == unlimited.completion_times["ok"] == pytest.approx(0.008)


# ------------------------------------------------------------- resumable runs
def _restarted(flow, result, pause):
    """``flow`` as a fresh simulation started at ``pause`` would take it."""
    if flow.start_time >= pause:
        return flow
    left = result.remaining_bytes[flow.flow_id]
    return Flow(flow.flow_id, flow.src, flow.dst, size_bytes=left, start_time=pause)


def _segments(result):
    return {
        flow_id: [(s.start, s.end, s.rate_bps) for s in timeline.segments]
        for flow_id, timeline in result.timelines.items()
    }


@pytest.mark.parametrize("seed", range(12))
def test_a_resumed_run_reports_what_a_fresh_simulation_from_the_pause_would(
    seed, monkeypatch
):
    """Pause after pause — with flows added at a pause, one withdrawn, an
    extra link's capacity changed, and the loop drawn afresh each run — the
    live simulation's run equals a fresh simulation of its live flows
    restarted at the pause, field for field and segment for segment."""
    import random

    from repro.net import fluid
    from repro.net.topology import TreeSpec, build_multi_rooted_tree

    rng = random.Random(seed)
    topo = build_multi_rooted_tree(TreeSpec(2, 2, 2, 2))
    hosts = topo.hosts()
    extra = {"vhose": 4e8}
    live = FluidSimulation(topo, extra_capacities=extra)
    flows, extras, counter = {}, {}, iter(range(10_000))

    def new_flows(start, k):
        batch = []
        for _ in range(k):
            src, dst = rng.sample(hosts, 2)
            i = next(counter)
            if rng.random() < 0.25:
                # A long transfer: it outlives several pauses.
                flow = Flow(f"u{i}", src, dst, size_bytes=rng.uniform(2e8, 1e9),
                            start_time=start)
            else:
                flow = Flow(f"f{i}", src, dst, size_bytes=rng.uniform(1e5, 2e8),
                            start_time=start + rng.choice([0.0, 0.0, 0.5]))
            batch.append(flow)
            flows[flow.flow_id] = flow
            extras[flow.flow_id] = ["vhose"] if rng.random() < 0.4 else []
        return batch

    batch = new_flows(0.0, 6)
    live.add_flows(batch, routes_of(live, batch, [extras[f.flow_id] for f in batch]))
    pause, result = 0.0, None
    for step in range(8):
        until = None if step == 7 else pause + rng.uniform(0.2, 1.5)
        fresh = FluidSimulation(topo, extra_capacities=extra)
        survivors = [
            _restarted(flow, result, pause) if result is not None else flow
            for flow in flows.values()
        ]
        fresh.add_flows(
            survivors, routes_of(fresh, survivors, [extras[f.flow_id] for f in survivors])
        )
        monkeypatch.setattr(fluid, "_LOOP_MIN_FLOWS", rng.choice([0, 10_000]))
        capacities = live.capacities
        got, want = live.run(until=until), fresh.run(until=until)
        paths = {
            fid: route_ids(topo, f.src, f.dst) + extras[fid]
            for fid, f in flows.items()
        }
        assert segment_violations(got, paths, capacities) == [], step
        assert got.completion_times == want.completion_times, step
        assert got.remaining_bytes == want.remaining_bytes, step
        assert got.states == want.states, step
        # (With nothing to run, a fresh simulation's clock reads 0.0.)
        assert got.end_time == want.end_time or not want.states, step
        assert _segments(got) == _segments(want), step
        if until is None:
            break
        # What the live simulation still holds; then edit it at the pause.
        result, pause = got, until
        for fid, state in got.states.items():
            if state.value == "completed":
                del flows[fid]
        if flows and rng.random() < 0.5:
            victim = rng.choice(sorted(flows))
            (left,) = live.withdraw_flows([victim]).values()
            assert left == got.remaining_bytes[victim]
            del flows[victim]
        if rng.random() < 0.5:
            extra = {"vhose": rng.choice([1e8, 4e8, 9e8])}
            live.update_extra_capacities(extra)
        batch = new_flows(pause, rng.choice([0, 1, 3]))
        live.add_flows(batch, routes_of(live, batch, [extras[f.flow_id] for f in batch]))


def test_a_withdrawn_id_registers_again_and_edits_are_checked():
    topo = build_two_rack_cloud(2)
    sim = FluidSimulation(topo, extra_capacities={"vhose": 1e9})
    sim.add_flows(
        [Flow("a", "s1", "r1", size_bytes=1e9), Flow("b", "s2", "r2", size_bytes=1e6)]
    )
    first = sim.run(until=1.0)
    assert "b" in first.completion_times and first.states["a"].value == "stopped"
    with pytest.raises(SimulationError, match="before the pause"):
        sim.add_flow(Flow("c", "s1", "r1", size_bytes=1e6, start_time=0.5))
    with pytest.raises(SimulationError, match="unknown flow 'b'"):
        sim.withdraw_flows(["b"])  # finished by the run: no longer live
    with pytest.raises(SimulationError, match="repeated"):
        sim.withdraw_flows(["a", "a"])
    with pytest.raises(SimulationError, match="not an extra link"):
        sim.update_extra_capacities({next(iter(topo.capacities())): 1e9})
    with pytest.raises(SimulationError, match="paused at 1.0"):
        sim.run(until=0.5)
    assert sim.withdraw_flows(["a"]) == {"a": first.remaining_bytes["a"]}
    assert sim.idle
    late = [Flow("a", "s1", "r1", size_bytes=1e6, start_time=2.0)]
    sim.add_flows(late, routes_of(sim, late, [["vhose"]]))
    sim.update_extra_capacities({"vhose": 8e6})  # one byte per microsecond
    again = sim.run()
    assert again.completion_times == {"a": pytest.approx(3.0)}
    assert list(again.states) == ["a"] and sim.idle


# ------------------------------------------------------ the lazy rule's edges
HOSE = 8e6  # one byte per microsecond


def _hosed(flows):
    """A two-rack simulation of ``flows``, each crossing the one extra link
    ``vhose`` alone — or, for an id that starts with ``free``, no link."""
    sim = FluidSimulation(build_two_rack_cloud(2), extra_capacities={"vhose": HOSE})
    hose = list(sim.capacities).index("vhose")
    rows = [[] if flow.flow_id.startswith("free") else [hose] for flow in flows]
    sim.add_flows(flows, (
        np.array([i for row in rows for i in row], dtype=np.intp),
        np.array([len(row) for row in rows], dtype=np.int64),
    ))
    return sim


def _on_both_loops(flows, untils):
    """Run a simulation of ``flows`` to each of ``untils`` in turn, once on
    the scalar loop and once on the vector one.  Each run keeps both run
    checks, and the loops agree to the bit; the vector loop's results."""
    runs = {}
    for vector in (False, True):
        sim, runs[vector] = _hosed(flows), []
        for until in untils:
            starts, capacities = start_bytes(sim), sim.capacities
            result = run_loop(sim, vector, until=until)
            paths = {fid: [] if fid.startswith("free") else ["vhose"] for fid in result.states}
            assert segment_violations(result, paths, capacities) == []
            assert byte_violations(result, starts, paths, capacities) == []
            runs[vector].append(result)
    for scalar, vector in zip(runs[False], runs[True]):
        for field in ("completion_times", "remaining_bytes", "states", "end_time"):
            assert getattr(scalar, field) == getattr(vector, field), field
        assert list(scalar.completion_times) == list(vector.completion_times)
        assert _segments(scalar) == _segments(vector)
    return runs[True]


def test_a_linkless_flow_beside_hosed_ones_completes_as_it_starts():
    flows = [
        Flow("h1", "s1", "r1", size_bytes=1e6),
        Flow("h2", "s2", "r2", size_bytes=2e6),
        Flow("free0", "s1", "r2", size_bytes=5e5),
        Flow("free1", "s2", "r1", size_bytes=5e5, start_time=0.5),
    ]
    (result,) = _on_both_loops(flows, [None])
    # No link limits a linkless flow: its rate is inf, and it moves its
    # bytes as it starts, in a segment too short to log.
    assert result.completion_times["free0"] == 0.0
    assert result.completion_times["free1"] == 0.5
    assert result.timelines["free0"].segments == () == result.timelines["free1"].segments
    # The hosed flows split the hose, which h2 has alone after h1, and
    # no event of the linkless ones re-rates them.
    assert [s.rate_bps for s in result.timelines["h1"].segments] == [HOSE / 2]
    assert [s.rate_bps for s in result.timelines["h2"].segments] == [HOSE / 2, HOSE]
    assert result.completion_times["h1"] == pytest.approx(2.0, abs=1e-9)
    assert result.completion_times["h2"] == pytest.approx(3.0, abs=1e-9)
    # A flow that completed has no bytes left, to the bit.
    assert result.remaining_bytes == dict.fromkeys(result.states, 0.0)


def test_a_finish_folds_in_the_byte_tolerance():
    # 1 kB at 1 byte/us: done when 1e-6 bytes are left, 8 ps early.
    (result,) = _on_both_loops([Flow("h", "s1", "r1", size_bytes=1e-3)], [None])
    assert result.completion_times == {"h": (1e-3 - 1e-6) * 8 / HOSE}
    assert result.remaining_bytes == {"h": 0.0}


def test_a_segment_that_closes_the_instant_it_opened_moves_nothing():
    t0 = 1e6  # a clock whose ulp (0.1 ns) is above the tiny flow's 2 ps
    flows = [
        Flow("big", "s1", "r1", size_bytes=1e6, start_time=t0),
        Flow("tiny", "s2", "r2", size_bytes=2e-6, start_time=t0),
    ]
    (result,) = _on_both_loops(flows, [None])
    # tiny's finish rounds to t0: it retires there, and big's first
    # segment, at half the hose, closes at the instant it opened — too
    # short to log, and its bits left are the ones it opened with.
    assert result.completion_times["tiny"] == t0
    (segment,) = result.timelines["big"].segments
    assert (segment.start, segment.rate_bps) == (t0, HOSE)
    assert result.completion_times["big"] == segment.end == pytest.approx(t0 + 1.0)


@pytest.mark.parametrize(
    "pause", ["at-the-start", "mid-segment", "at-an-arrival", "at-a-finish"]
)
def test_a_run_stopped_at_until_resumes_as_a_fresh_simulation_from_the_pause(pause):
    flows = [
        Flow("h1", "s1", "r1", size_bytes=1e6),
        Flow("h2", "s2", "r2", size_bytes=2e6),
        Flow("h3", "s1", "r2", size_bytes=1e6, start_time=1.0),
    ]
    if pause == "at-a-finish":
        until = _on_both_loops(flows, [None])[0].completion_times["h1"]
    else:
        until = {"at-the-start": 0.0, "mid-segment": 0.5, "at-an-arrival": 1.0}[pause]
    stopped, resumed = _on_both_loops(flows, [until, None])
    if pause == "at-the-start":
        # Active before their first segment: stopped with all their bytes.
        assert stopped.remaining_bytes == {"h1": 1e6, "h2": 2e6, "h3": 1e6}
        assert [s.value for s in stopped.states.values()] == ["stopped", "stopped", "pending"]
        assert _segments(stopped) == {"h1": [], "h2": [], "h3": []}
    if pause == "at-an-arrival":
        # A flow that starts at the stop starts in the next run.
        assert (stopped.states["h3"].value, stopped.remaining_bytes["h3"]) == ("pending", 1e6)
    if pause == "at-a-finish":
        assert (stopped.completion_times["h1"], stopped.remaining_bytes["h1"]) == (until, 0.0)
    survivors = [
        _restarted(flow, stopped, until)
        for flow in flows
        if stopped.states[flow.flow_id].value != "completed"
    ]
    (fresh,) = _on_both_loops(survivors, [None])
    for field in ("completion_times", "remaining_bytes", "states", "end_time"):
        assert getattr(resumed, field) == getattr(fresh, field), field
    assert _segments(resumed) == _segments(fresh)
