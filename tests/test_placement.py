"""Placement tests: greedy vs brute-force agreement on tiny instances,
colocation behaviour, and the error contract of the placers."""

import math
import re

import numpy as np
import pytest

from helpers import pair_matrix
from repro.core.estimator import estimate_completion_time
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Machine, validate_placement
from repro.core.placement.baselines import (
    MinimumMachinesPlacer,
    RandomPlacer,
    RoundRobinPlacer,
)
from repro.core.placement.greedy import GreedyPlacer
from oracles.brute_force import BruteForcePlacer
from repro.core.placement.ilp import OptimalPlacer
from repro.errors import PlacementError, ReproError, WorkloadError
from repro.units import GBITPS, GBYTE
from repro.workloads.application import Application, Task, TrafficMatrix
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import WorkloadSpec

MACHINES = ["m1", "m2", "m3"]

# Asymmetric pair rates: the m1->m2 path is by far the fastest.
RATES = {
    ("m1", "m2"): 1.0 * GBITPS, ("m2", "m1"): 1.0 * GBITPS,
    ("m1", "m3"): 0.2 * GBITPS, ("m3", "m1"): 0.2 * GBITPS,
    ("m2", "m3"): 0.1 * GBITPS, ("m3", "m2"): 0.1 * GBITPS,
}


def _profile(intra=math.inf) -> NetworkProfile:
    return NetworkProfile(MACHINES, pair_matrix(MACHINES, RATES), intra_vm_rate_bps=intra)


def _cluster() -> ClusterState:
    return ClusterState(machines=[Machine(m, cores=4.0) for m in MACHINES])


def _pair_app(cpu=4.0) -> Application:
    # Two tasks moving 1 GByte; cpu=4.0 fills a whole machine, so the pair
    # cannot be colocated and the placer must pick the fastest path.
    return Application(
        name="pair",
        tasks=[Task("a", cpu), Task("b", cpu)],
        traffic=TrafficMatrix({("a", "b"): 1 * GBYTE}),
    )


def test_greedy_matches_brute_force_on_tiny_instance():
    app, cluster, profile = _pair_app(), _cluster(), _profile()
    greedy = GreedyPlacer().place(app, cluster, profile)
    brute = BruteForcePlacer().place(app, cluster, profile)
    t_greedy = estimate_completion_time(greedy.assignments, app, profile)
    t_brute = estimate_completion_time(brute.assignments, app, profile)
    assert t_greedy == pytest.approx(t_brute)
    # Both must use the 1 Gbit/s pair: 1 GByte = 8 Gbit -> 8 seconds.
    assert t_greedy == pytest.approx(8.0)
    assert {greedy.machine_of("a"), greedy.machine_of("b")} == {"m1", "m2"}


def test_greedy_colocates_heavy_pair_when_cpu_allows():
    app = Application(
        name="pair",
        tasks=[Task("a", 1.0), Task("b", 1.0)],
        traffic=TrafficMatrix({("a", "b"): 1 * GBYTE}),
    )
    placement = GreedyPlacer().place(app, _cluster(), _profile())
    assert placement.machine_of("a") == placement.machine_of("b")


def test_a_colocation_tie_goes_to_the_fastest_egress():
    """Every 2-core machine can hold the heavy pair, so all three tie at the
    infinite intra-VM rate; the names sort slowest hose first, and the tie
    goes to the machine whose measured egress is fastest, where the pair's
    next transfer leaves from."""
    hose = {"m1": 0.1 * GBITPS, "m2": 0.3 * GBITPS, "m3": 0.9 * GBITPS}
    profile = NetworkProfile(MACHINES, pair_matrix(MACHINES, lambda src, dst: hose[src]))
    cluster = ClusterState(machines=[Machine(m, cores=2.0) for m in MACHINES])
    app = Application(
        name="chain",
        tasks=[Task("a", 1.0), Task("b", 1.0), Task("c", 1.0)],
        traffic=TrafficMatrix({("a", "b"): 1 * GBYTE, ("b", "c"): 0.5 * GBYTE}),
    )
    placement = GreedyPlacer().place(app, cluster, profile)
    assert placement.machine_of("a") == placement.machine_of("b") == "m3"
    assert placement.machine_of("c") != "m3"
    # b -> c leaves m3 at its 0.9 Gbit/s hose: 0.5 GByte in 4.44 s.
    assert estimate_completion_time(
        placement.assignments, app, profile
    ) == pytest.approx(4 / 0.9)


def test_a_colocation_tie_at_equal_egress_goes_to_the_lowest_name():
    """Uniform rates give every machine the same egress, so the colocated
    tie falls through to the machine names, whatever order the cluster
    declares them in."""
    machines = ["vm-2", "vm-10", "vm-1"]
    profile = NetworkProfile(machines, np.full((3, 3), 1 * GBITPS))
    cluster = ClusterState(machines=[Machine(m, cores=2.0) for m in machines])
    app = Application(
        name="pair",
        tasks=[Task("a", 1.0), Task("b", 1.0)],
        traffic=TrafficMatrix({("a", "b"): 1 * GBYTE}),
    )
    placement = GreedyPlacer().place(app, cluster, profile)
    assert placement.assignments == {"a": "vm-1", "b": "vm-1"}


def test_greedy_without_profile_raises_placement_error():
    with pytest.raises(PlacementError):
        GreedyPlacer().place(_pair_app(), _cluster(), None)


def test_infeasible_app_raises_placement_error_not_valueerror():
    too_big = Application(
        name="big",
        tasks=[Task(f"t{i}", 4.0) for i in range(4)],  # 16 cores > 12 available
        traffic=TrafficMatrix(),
    )
    for placer in (GreedyPlacer(), RandomPlacer(seed=0), RoundRobinPlacer()):
        with pytest.raises(PlacementError):
            placer.place(too_big, _cluster(), _profile())
    # The library error contract: everything derives from ReproError.
    assert issubclass(PlacementError, ReproError)


@pytest.mark.parametrize("volume", [math.nan, math.inf, -math.inf, -1.0])
def test_a_bad_traffic_volume_is_refused_by_pair(volume):
    """A NaN, infinite or negative volume never reaches the matrix (a NaN
    used to be stored, read back as the application's total bytes, and
    placed); the error names the pair and the value."""
    matrix = TrafficMatrix({("a", "b"): 1 * GBYTE})
    with pytest.raises(WorkloadError, match=r"\('a', 'c'\).*" + re.escape(repr(volume))):
        matrix.add("a", "c", volume)
    with pytest.raises(WorkloadError, match=r"\('b', 'a'\)"):
        TrafficMatrix({("b", "a"): volume})
    assert matrix.items() == [(("a", "b"), 1 * GBYTE)]
    matrix.add("a", "a", 5.0)  # self-transfers and zero volumes are dropped
    matrix.add("a", "c", 0.0)
    assert len(matrix) == 1


def test_pairs_by_volume_is_a_fresh_sort_until_an_add_changes_it():
    """The order is sorted once per change to the matrix: each call returns
    a new list equal to a fresh sort (by volume, ties by name); an add that
    changes an entry re-sorts, and one that is dropped does not."""
    import random

    rng = random.Random(5)
    tasks = [f"t{i}" for i in range(12)]
    matrix = TrafficMatrix()
    for _ in range(60):
        src, dst = rng.sample(tasks, 2)
        matrix.add(src, dst, rng.choice([1.0, 2.0, 3.0]) * GBYTE)

    def fresh_sort():
        return sorted(
            ((src, dst, value) for (src, dst), value in matrix.items()),
            key=lambda item: (-item[2], item[0], item[1]),
        )

    first = matrix.pairs_by_volume()
    assert first == fresh_sort()
    first.clear()  # the caller's list, not the matrix's order
    second = matrix.pairs_by_volume()
    assert second == fresh_sort() and second is not matrix.pairs_by_volume()
    smallest = second[-1]
    matrix.add(smallest[0], smallest[1], 10 * GBYTE)
    third = matrix.pairs_by_volume()
    assert third == fresh_sort() != second
    assert third[0] == (smallest[0], smallest[1], smallest[2] + 10 * GBYTE)
    matrix.add("t0", "t0", 1.0)
    matrix.add("t0", "t1", 0.0)
    assert matrix.pairs_by_volume() == third


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, -0.5])
def test_a_bad_scale_factor_is_refused_by_value(factor):
    matrix = TrafficMatrix({("a", "b"): 1 * GBYTE})
    with pytest.raises(WorkloadError, match="scale factor.*" + re.escape(repr(factor))):
        matrix.scaled(factor)
    # A finite factor whose product overflows is refused by the pair.
    with pytest.raises(WorkloadError, match=r"\('a', 'b'\).*inf"):
        matrix.scaled(1e308)
    assert matrix.scaled(0.5).items() == [(("a", "b"), 0.5 * GBYTE)]


@pytest.mark.parametrize(
    "placer",
    [RandomPlacer(seed=7), RoundRobinPlacer(), MinimumMachinesPlacer()],
    ids=["random", "round-robin", "min-machines"],
)
def test_baselines_produce_valid_cpu_respecting_placements(placer):
    app = Application(
        name="mix",
        tasks=[Task("t0", 2.0), Task("t1", 2.0), Task("t2", 2.0),
               Task("t3", 2.0), Task("t4", 2.0), Task("t5", 2.0)],
        traffic=TrafficMatrix({("t0", "t1"): 1 * GBYTE}),
    )
    placement = placer.place(app, _cluster(), _profile())
    validate_placement(placement, app, _cluster())  # raises on violation
    assert set(placement.assignments) == set(app.task_names)


#: A setting a NaN used to pass (``<= 0`` / ``< 0`` are False for NaN), by
#: its module and field: how it is set, and the message that refuses it.
NAN_SETTINGS = {
    "base.Machine.cores": (lambda: Machine("m", math.nan), "positive cores"),
    "base.ClusterState.cpu_used": (
        lambda: ClusterState([Machine("m")], cpu_used={"m": math.nan}), "cpu_used"
    ),
    "ilp.OptimalPlacer.time_limit_s": (lambda: OptimalPlacer(math.nan), "time_limit_s"),
    "application.Task.cpu_cores": (lambda: Task("a", math.nan), "cpu_cores"),
    "application.Application.start_time": (
        lambda: Application("app", [Task("a")], TrafficMatrix(), start_time=math.nan),
        "start_time",
    ),
    "arrivals.PoissonArrivals.rate_per_hour": (lambda: PoissonArrivals(math.nan), "rate_per_hour"),
    "generator.WorkloadSpec.mean_total_bytes": (
        lambda: WorkloadSpec(mean_total_bytes=math.nan), "mean_total_bytes"
    ),
    "generator.WorkloadSpec.volume_sigma": (lambda: WorkloadSpec(volume_sigma=math.nan), "sigma"),
    "generator.WorkloadSpec.pattern_weights": (
        lambda: WorkloadSpec(pattern_weights=(("star", math.nan),)), "pattern weights"
    ),
}


@pytest.mark.parametrize("field", NAN_SETTINGS)
def test_a_nan_setting_is_refused_by_name(field):
    settle, message = NAN_SETTINGS[field]
    with pytest.raises(ReproError, match=message):
        settle()
