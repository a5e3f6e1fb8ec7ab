"""Fluid-simulator tests: max-min rates and completion times match hand
calculations on the paper's Figure 3(a) dumbbell topology."""

import contextlib
import math
import signal

import pytest

from repro.errors import SimulationError, TopologyError
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation
from repro.net.hose import HoseModel
from repro.net.links import Link
from repro.net.topology import build_dumbbell, build_two_rack_cloud
from repro.units import GBITPS, MBYTE

# 1 Gbit/s shared link; 10 Gbit/s access links so the dumbbell is the only
# bottleneck and rates are exact fractions.
SHARED = 1 * GBITPS


@pytest.fixture
def dumbbell():
    return build_dumbbell(n_pairs=3, shared_link_bps=SHARED, access_link_bps=10 * GBITPS)


def _backlogged(i: int, duration: float) -> Flow:
    return Flow(
        flow_id=f"f{i}", src=f"s{i}", dst=f"r{i}",
        size_bytes=None, start_time=0.0, end_time=duration,
    )


def test_two_backlogged_flows_split_shared_link_evenly(dumbbell):
    sim = FluidSimulation(dumbbell)
    sim.add_flows([_backlogged(1, 10.0), _backlogged(2, 10.0)])
    result = sim.run(until=10.0)
    for fid in ("f1", "f2"):
        assert result.timelines[fid].average_rate(0.0, 10.0) == pytest.approx(SHARED / 2)


def test_max_min_respects_per_flow_rate_cap(dumbbell):
    # One flow is capped at 100 Mbit/s, so max-min gives the other two
    # (1 Gbit/s - 100 Mbit/s) / 2 = 450 Mbit/s each.
    capped = Flow(
        flow_id="capped", src="s1", dst="r1",
        size_bytes=None, start_time=0.0, end_time=10.0,
        max_rate_bps=0.1 * GBITPS,
    )
    sim = FluidSimulation(dumbbell)
    sim.add_flow(capped)
    sim.add_flows([_backlogged(2, 10.0), _backlogged(3, 10.0)])
    result = sim.run(until=10.0)
    assert result.timelines["capped"].average_rate(0.0, 10.0) == pytest.approx(0.1 * GBITPS)
    for fid in ("f2", "f3"):
        assert result.timelines[fid].average_rate(0.0, 10.0) == pytest.approx(0.45 * GBITPS)


def test_finite_flow_completion_time_is_bytes_over_rate(dumbbell):
    # 125 MByte = 1 Gbit; alone on a 1 Gbit/s bottleneck -> exactly 1 second.
    flow = Flow(flow_id="xfer", src="s1", dst="r1", size_bytes=125 * MBYTE)
    sim = FluidSimulation(dumbbell)
    sim.add_flow(flow)
    result = sim.run()
    assert result.completion_time("xfer") == pytest.approx(1.0)
    assert result.states["xfer"].value == "completed"


def test_departing_flow_releases_bandwidth_to_survivor(dumbbell):
    # A: 125 MByte, B: 62.5 MByte, both start at 0 sharing 1 Gbit/s.
    # Each gets 0.5 Gbit/s; B (0.5 Gbit of data) finishes at t=1.0; A then
    # has 62.5 MByte left at the full 1 Gbit/s -> finishes at t=1.5.
    sim = FluidSimulation(dumbbell)
    sim.add_flow(Flow(flow_id="A", src="s1", dst="r1", size_bytes=125 * MBYTE))
    sim.add_flow(Flow(flow_id="B", src="s2", dst="r2", size_bytes=62.5 * MBYTE))
    result = sim.run()
    assert result.completion_time("B") == pytest.approx(1.0)
    assert result.completion_time("A") == pytest.approx(1.5)
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


def _simulate(flow=None, **sim_kwargs):
    """Build a two-rack simulation (hosts s1, s2, r1, r2), add ``flow`` and
    run it."""
    topo = build_two_rack_cloud(2)
    if "link" in sim_kwargs:
        link = next(iter(topo.capacities()))
        sim_kwargs = {"capacity_overrides": {link: sim_kwargs.pop("link")}}
    sim = FluidSimulation(topo, **sim_kwargs)
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
        (lambda: _simulate(Flow("f", "s1", "r1", end_time=NAN)), "'f'"),
        (lambda: _simulate(Flow("f", "s1", "r1", size_bytes=1e6, max_rate_bps=NAN)), "'f'"),
        (lambda: _simulate(link=NAN), "->"),
        (lambda: _simulate(extra_capacities={"vhose": NAN}), "'vhose'"),
        (lambda: _simulate(hose=HoseModel(egress_bps={"s1": NAN})), "'s1'"),
        (lambda: HoseModel().set_rate("s1", NAN), "'s1'"),
    ],
    ids=[
        "nan-start", "inf-start", "nan-size", "inf-size", "nan-end", "nan-cap",
        "nan-override", "nan-extra", "nan-hose", "nan-set-rate",
    ],
)
def test_non_finite_inputs_are_rejected_by_name(case, names):
    with _deadline():
        with pytest.raises(SimulationError, match=names):
            case()


def test_link_capacity_must_be_a_positive_number():
    with pytest.raises(TopologyError, match="'a->b'"):
        Link("a->b", "a", "b", NAN)
