"""Work counts as the performance contract: the bottlenecks a campaign
reads, the flows a fluid event touches, and the choices greedy makes.

Timing on a shared host is noisy; how much a path does is not.  On a
doubling family of campaigns (n, 2n and 4n VMs, each on a tree with twice
the racks of the last) a full-mesh campaign reads each probe's pair of
hosts exactly once (``repro.routes.structured_hits``), in one read of the
tree's tables and no route batch, and a second campaign on the same VMs
reads none.  The tree's rack-pair table holds one row per ordered pair of
racks.  So the reads grow as the probes do, ``n(n - 1)``, and the table as
the racks squared; a change in either fails here on any host.

On a doubling family of fluid runs (n, 2n and 4n disjoint hosed pairs, two
flows each) the vector event loop checks, after its first event, only the
flows the solve re-rated: one per completion that leaves a partner behind.
So the positions an event checks stay flat while the live flows double —
the loop's O(changed) is a count (the ``fluid.run`` span's), not a timing.
The hoses bind, so after the first event every link runs through its
completions in lockstep: two steps at every size, one per member of a
link; on n hoses of m, 2m and 4m members the steps double with them.

On a doubling family of MapReduce shuffles (n, 2n and 4n tasks on one
cluster) greedy makes one choice per transfer that first names one of its
tasks and records the placed transfers between two choices as one run (the
``place.greedy`` span's ``choices`` and ``runs``): its board updates grow
as the tasks do while the transfers grow as n².

On a doubling family of allocators under churn (n, 2n and 4n flows on
n / 4 hoses and one shared core link), a fixed pattern of batch adds and
removal-only steps costs the same number of solves at every size (its
``solver_stats()``): a removal step is served on the links that bind
until the core runs out of headroom, and after that each one is one full
solve that replays the rounds of the hoses no removal touched.  The rounds
stay flat too: a round is a level, and the hoses come in eight capacity
classes, so every hose of a class freezes in the same round.
"""

import dataclasses

import numpy as np

from helpers import routes_of, traced_spans
from repro import obs
from repro.cloud.ec2 import ec2_params
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Machine
from repro.core.placement.greedy import GreedyPlacer
from repro.core.rate_model import EffectiveRateMatrix
from repro.net.alloc import IncrementalAllocator
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation
from repro.net.topology import Topology, TreeSpec, build_multi_rooted_tree
from repro.units import GBYTE, MBYTE
from repro.workloads.patterns import mapreduce

FAMILY = (8, 16, 32)
COUNTERS = {"probes": "repro.measure.probes", "hits": "repro.routes.structured_hits"}


def campaign_work(n_vms, monkeypatch):
    """Two full-mesh campaigns of ``n_vms`` VMs (one a host) on a tree of
    ``n_vms / 2`` racks: each one's probes, pairs read, table reads and
    route batches, and the shape of the tree's rack-pair table."""
    spec = TreeSpec(hosts_per_rack=4, racks_per_pod=2, pods=n_vms // 4, num_cores=2)
    params = dataclasses.replace(ec2_params(colocation_probability=0.0), tree_spec=spec)
    provider = make_provider("ec2", seed=0, params=params)
    provider.request_vms(n_vms)
    measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
    calls = []
    for method in ("narrowest", "path_links_matrix"):
        original = getattr(Topology, method)

        def counted(self, pairs, *args, original=original, method=method):
            calls.append(method)
            return original(self, pairs, *args)

        monkeypatch.setattr(Topology, method, counted)
    work = []
    for _ in range(2):
        del calls[:]
        before = obs.metrics.snapshot()
        measurer.measure()
        after = obs.metrics.snapshot()
        work.append({
            **{key: after.get(name, 0) - before.get(name, 0) for key, name in COUNTERS.items()},
            "reads": calls.count("narrowest"),
            "routes": calls.count("path_links_matrix"),
        })
    return work, provider.topology._tree_tables.rack_rows.shape


def test_a_campaign_reads_each_probe_once_and_the_table_holds_each_rack_pair(monkeypatch):
    family = {n: campaign_work(n, monkeypatch) for n in FAMILY}
    for n, ((first, again), table) in family.items():
        assert first == {"probes": n * (n - 1), "hits": n * (n - 1), "reads": 1, "routes": 0}, n
        assert again == {"probes": n * (n - 1), "hits": 0, "reads": 0, "routes": 0}, n
        assert table == ((n // 2) ** 2, 6), n
    # Growth per doubling of the VMs: pairs read and table rows ~x4.
    assert [family[n][0][0]["hits"] for n in FAMILY] == [56, 240, 992]
    assert [family[n][1][0] for n in FAMILY] == [16, 64, 256]
    # The exact counts at one size.
    assert family[16] == (
        [
            {"probes": 240, "hits": 240, "reads": 1, "routes": 0},
            {"probes": 240, "hits": 0, "reads": 0, "routes": 0},
        ],
        (64, 6),
    )


PAIRS = (256, 512, 1024)
SPAN_COUNTS = (
    "batches", "rates_checked", "rates_changed", "log_rows", "compactions", "lockstep_steps",
)
HOSED_TREE = TreeSpec(hosts_per_rack=32, racks_per_pod=8, pods=8, num_cores=2)


def fluid_work(n_pairs, tmp_path):
    """One fluid run of ``n_pairs`` disjoint sender→receiver pairs (hosts
    ``2i`` and ``2i + 1``, 16 pairs to a rack) behind a 500 Mbit/s
    sender hose each: flows ``a_i`` of ``i + 1`` MB and ``b_i`` of
    ``3(i + 1)`` MB and a byte share the hose until ``a_i`` completes, and
    ``b_i`` then has it alone.  No two completions coincide.  Its
    ``fluid.run`` span's counts."""
    topology = build_multi_rooted_tree(HOSED_TREE)
    flows = []
    for i in range(n_pairs):
        src, dst = f"host{2 * i}", f"host{2 * i + 1}"
        flows.append(Flow(f"a{i}", src, dst, size_bytes=(i + 1) * MBYTE))
        flows.append(Flow(f"b{i}", src, dst, size_bytes=3 * (i + 1) * MBYTE + 1))
    sim = FluidSimulation(
        topology, extra_capacities={f"hose{i}": 5e8 for i in range(n_pairs)}
    )
    hoses = [[f"hose{i // 2}"] for i in range(len(flows))]
    sim.add_flows(flows, routes_of(sim, flows, hoses))
    with traced_spans(tmp_path / f"fluid{n_pairs}.jsonl", "fluid.run") as spans:
        result = sim.run()
    assert len(result.completion_times) == len(flows)
    (span,) = spans
    assert span["loop"] == "vector"
    return {key: span[key] for key in SPAN_COUNTS}


def test_a_fluid_event_checks_only_the_flows_its_solve_rerated(tmp_path):
    family = {n: fluid_work(n, tmp_path) for n in PAIRS}
    for n, work in family.items():
        flows = 2 * n
        # One event per completion.  The first checks and opens every flow;
        # after it, a_i's completion re-rates b_i alone and b_i's none.  Each
        # a_i logs one segment and each b_i two.  After the first event the
        # hoses run in lockstep: step one retires every a_i, step two every
        # b_i, and the positions compact once, when the run is done.
        assert work == {
            "batches": flows,
            "rates_checked": flows + n,
            "rates_changed": flows + n,
            "log_rows": 3 * n,
            "compactions": 1,
            "lockstep_steps": 2,
        }, n
    # Checked positions per event after the first, n / (2n - 1): flat at
    # about one half while the live flows double.
    per_event = [(family[n]["rates_checked"] - 2 * n) / (2 * n - 1) for n in PAIRS]
    assert max(per_event) - min(per_event) < 1e-3 and max(per_event) < 0.51
    # The exact counts at one size.
    assert family[512] == {
        "batches": 1024, "rates_checked": 1536, "rates_changed": 1536,
        "log_rows": 1536, "compactions": 1, "lockstep_steps": 2,
    }


HOSES = 256
MEMBERS = (2, 4, 8)


def hose_work(members, tmp_path):
    """One fluid run of 256 hoses (host ``2i`` to ``2i + 1``, 500 Mbit/s)
    of ``members`` flows each, flow ``j`` of hose ``i`` (j + 1) MB and
    ``100 i`` bytes: a hose's flows finish one by one, and no two hoses'
    within ``_TIME_EPS`` (their offsets, times ``members``, stay under a
    MB).  Its ``fluid.run`` span's counts."""
    topology = build_multi_rooted_tree(HOSED_TREE)
    flows, hoses = [], []
    for i in range(HOSES):
        for j in range(members):
            size = (j + 1) * MBYTE + 100 * i
            flows.append(Flow(f"h{i}.{j}", f"host{2 * i}", f"host{2 * i + 1}", size_bytes=size))
            hoses.append([f"hose{i}"])
    sim = FluidSimulation(topology, extra_capacities={f"hose{i}": 5e8 for i in range(HOSES)})
    sim.add_flows(flows, routes_of(sim, flows, hoses))
    with traced_spans(tmp_path / f"hoses{members}.jsonl", "fluid.run") as spans:
        result = sim.run()
    assert len(result.completion_times) == len(flows)
    (span,) = spans
    assert span["loop"] == "vector"
    return {key: span[key] for key in SPAN_COUNTS}


def test_the_lockstep_takes_a_step_per_member_of_a_link(tmp_path):
    family = {m: hose_work(m, tmp_path) for m in MEMBERS}
    for m, work in family.items():
        flows, rerated = HOSES * m, HOSES * m * (m - 1) // 2
        # One event per completion.  The first opens every flow; the k-th
        # completion on a hose re-rates its m - k survivors, and the flow
        # that finishes k-th logs k segments.  Step k of the lockstep is
        # every hose's k-th completion.
        assert work == {
            "batches": flows,
            "rates_checked": flows + rerated,
            "rates_changed": flows + rerated,
            "log_rows": HOSES * m * (m + 1) // 2,
            "compactions": 1,
            "lockstep_steps": m,
        }, m
    # Steps per doubling of the members: x2.
    assert [family[m]["lockstep_steps"] for m in MEMBERS] == [2, 4, 8]
    # The exact counts at one size.
    assert family[4] == {
        "batches": 1024, "rates_checked": 2560, "rates_changed": 2560,
        "log_rows": 2560, "compactions": 1, "lockstep_steps": 4,
    }


SIDES = (4, 8, 16)
MACHINES = 24


def greedy_work(side, tmp_path, updates):
    """One greedy placement of a ``side`` x ``side`` skewed MapReduce (``2
    side`` tasks of half a core, ``side²`` transfers) on one cluster of 24
    four-core machines under one seeded rate matrix: its ``place.greedy``
    span's counts, and the board updates ``updates`` saw it make."""
    machines = [f"vm{i}" for i in range(MACHINES)]
    rates = np.random.default_rng(3).uniform(1e8, 1e9, (MACHINES, MACHINES))
    profile = NetworkProfile(machines, rates)
    cluster = ClusterState([Machine(name, 4.0) for name in machines])
    app = mapreduce(
        "shuffle", side, side, 4 * GBYTE, skew=1.0, cpu_per_task=0.5,
        rng=np.random.default_rng(side),
    )
    del updates[:]
    with traced_spans(tmp_path / f"greedy{side}.jsonl", "place.greedy") as spans:
        GreedyPlacer().place(app, cluster, profile)
    (span,) = spans
    assert span["tasks"] == 2 * side and span["machines"] == MACHINES
    return {
        "transfers": len(app.traffic), "choices": span["choices"], "runs": span["runs"],
        "records": updates.count("record"), "run_updates": updates.count("record_run"),
    }


def test_greedy_makes_a_choice_per_opened_task_and_records_runs(tmp_path, monkeypatch):
    updates = []
    for method in ("record", "record_run"):
        original = getattr(EffectiveRateMatrix, method)

        def counted(self, src, dst, original=original, method=method):
            updates.append(method)
            return original(self, src, dst)

        monkeypatch.setattr(EffectiveRateMatrix, method, counted)
    family = {side: greedy_work(side, tmp_path, updates) for side in SIDES}
    for side, work in family.items():
        tasks = 2 * side
        assert work["transfers"] == side * side, side
        # A choice places one task or two: between half the tasks and all
        # but one of them.  One record per choice; a run between two
        # choices is one update, and the run after the last is never read.
        assert tasks // 2 <= work["choices"] <= tasks - 1, side
        assert work["runs"] <= work["choices"] + 1, side
        assert work["records"] == work["choices"], side
        assert work["run_updates"] in (work["runs"], work["runs"] - 1), side
    # Growth per doubling of the tasks: choices ~x2, transfers x4.
    assert [family[side]["choices"] for side in SIDES] == [6, 11, 23]
    assert [family[side]["transfers"] for side in SIDES] == [16, 64, 256]
    # The exact counts at one size.
    assert family[8] == {
        "transfers": 64, "choices": 11, "runs": 6, "records": 11, "run_updates": 5,
    }


CHURN_FLOWS = (512, 1024, 2048)
CLASSES = 8


def churn_work(n_flows):
    """An allocator of ``n_flows`` flows on ``k = n_flows / 4`` hoses of
    ``100 (1 + i % 8)`` Mbit/s, four flows a hose, the first and the third
    also on a core link of 0.6 times the hoses' sum (the hoses bind, the
    core has a sixth of its capacity left), driven through a fixed churn:
    four removal steps that each take the second member off a quarter of
    the upper four classes' hoses, a batch add of ``n_flows / 2`` flows,
    then two removal steps that take the fourth member off half of those
    hoses each.  Its ``solver_stats()`` after the add and each step."""
    k = n_flows // 4
    hoses = [1e8 * (1 + i % CLASSES) for i in range(k)]
    capacities = {f"h{i}": c for i, c in enumerate(hoses)}
    alloc = IncrementalAllocator({**capacities, "core": 0.6 * sum(hoses)})
    slot_of = {}

    def add(first, count):
        ids = range(first, first + count)
        # Flow j is member j // k of hose j % k; members 0 and 2 cross the core.
        rows = [[j % k] + ([k] if (j // k) % 2 == 0 else []) for j in ids]
        slots = alloc.add_flows(
            np.array([x for row in rows for x in row], np.intp),
            np.array([len(row) for row in rows]),
        )
        slot_of.update(zip(ids, slots.tolist()))

    stats = []

    def solve():
        alloc.solve_slots()
        stats.append(alloc.solver_stats())

    upper = [i for i in range(k) if i % CLASSES >= CLASSES // 2]
    add(0, n_flows)
    solve()
    for step in range(4):
        alloc.remove_flows([slot_of[k + i] for i in upper[step::4]])
        solve()
    add(n_flows, n_flows // 2)
    solve()
    for step in range(2):
        alloc.remove_flows([slot_of[3 * k + i] for i in upper[step::2]])
        solve()
    return stats


def test_the_allocator_under_churn_solves_as_often_at_every_size():
    family = {n: churn_work(n) for n in CHURN_FLOWS}
    for n, stats in family.items():
        # Three removal steps are served on the links that bind; the fourth
        # would leave the core without headroom and is refused, and so are
        # the two after the add.
        assert [s["binding_solves"] for s in stats] == [0, 1, 2, 3, 3, 3, 3, 3], n
        assert [s["binding_refusals"] for s in stats] == [0, 0, 0, 0, 1, 1, 2, 3], n
        assert [s["full_solves"] for s in stats] == [1, 1, 1, 1, 2, 3, 4, 5], n
        # A full solve searches or replays one round per level: the k / 8
        # hoses of a class, at one member count, share one.  So the first
        # solve and the one after the add take eight rounds, one a class,
        # and a refused removal step nine: the four lower classes' rounds,
        # replayed (the first its removals touched is the fifth), then five
        # levels among the upper classes and the core, which binds.
        assert [s["rounds"] for s in stats] == [8, 8, 8, 8, 17, 25, 34, 43], n
        assert [s["rounds_replayed"] for s in stats] == [0, 0, 0, 0, 4, 4, 8, 12], n
    # Growth per doubling of the flows: solves flat, rounds flat.
    assert [family[n][-1]["rounds"] for n in CHURN_FLOWS] == [43, 43, 43]
    # The exact counts at one size.
    assert family[1024][-1] == {
        "full_solves": 5, "rounds": 43, "rounds_replayed": 12,
        "binding_solves": 3, "binding_refusals": 3,
    }
