"""Work counts as the performance contract: the routing a campaign does,
and the flows a fluid event touches.

Timing on a shared host is noisy; how much a path does is not.  On a
doubling family of campaigns (n, 2n and 4n VMs, each on a tree with twice
the racks of the last) a full-mesh campaign routes each probe's pair of
hosts exactly once (``repro.routes.structured_hits``), in one route batch,
and a second campaign on the same VMs routes none.  The tree's rack-pair
table holds one row per ordered pair of racks.  So routing grows as the
probes do, ``n(n - 1)``, and the table as the racks squared; a change in
either fails here on any host.

On a doubling family of fluid runs (n, 2n and 4n disjoint hosed pairs, two
flows each) the vector event loop checks, after its first event, only the
flows the solve re-rated: one per completion that leaves a partner behind.
So the positions an event checks stay flat while the live flows double —
the loop's O(changed) is a count (the ``fluid.run`` span's), not a timing.
"""

import dataclasses

import numpy as np

from helpers import fluid_run_spans, routes_of
from repro import obs
from repro.cloud.ec2 import ec2_params
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.net.flows import Flow
from repro.net.fluid import FluidSimulation
from repro.net.topology import Topology, TreeSpec, build_multi_rooted_tree
from repro.units import MBYTE

FAMILY = (8, 16, 32)
COUNTERS = {"probes": "repro.measure.probes", "hits": "repro.routes.structured_hits"}


def campaign_work(n_vms, monkeypatch):
    """Two full-mesh campaigns of ``n_vms`` VMs (one a host) on a tree of
    ``n_vms / 2`` racks: each one's probes, routed pairs and route batches,
    and the shape of the tree's rack-pair table."""
    spec = TreeSpec(hosts_per_rack=4, racks_per_pod=2, pods=n_vms // 4, num_cores=2)
    params = dataclasses.replace(ec2_params(colocation_probability=0.0), tree_spec=spec)
    provider = make_provider("ec2", seed=0, params=params)
    provider.request_vms(n_vms)
    measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
    batches = []
    route = Topology.path_links_matrix

    def counted(self, pairs):
        batches.append(isinstance(pairs, np.ndarray))
        return route(self, pairs)

    monkeypatch.setattr(Topology, "path_links_matrix", counted)
    work = []
    for _ in range(2):
        del batches[:]
        before = obs.metrics.snapshot()
        measurer.measure()
        after = obs.metrics.snapshot()
        work.append({
            **{key: after.get(name, 0) - before.get(name, 0) for key, name in COUNTERS.items()},
            "batches": sum(batches),
        })
    return work, provider.topology._tree_tables.rack_rows.shape


def test_a_campaign_routes_each_probe_once_and_the_table_holds_each_rack_pair(monkeypatch):
    family = {n: campaign_work(n, monkeypatch) for n in FAMILY}
    for n, ((first, again), table) in family.items():
        assert first == {"probes": n * (n - 1), "hits": n * (n - 1), "batches": 1}, n
        assert again == {"probes": n * (n - 1), "hits": 0, "batches": 0}, n
        assert table == ((n // 2) ** 2, 6), n
    # Growth per doubling of the VMs: routed pairs and table rows ~x4.
    assert [family[n][0][0]["hits"] for n in FAMILY] == [56, 240, 992]
    assert [family[n][1][0] for n in FAMILY] == [16, 64, 256]
    # The exact counts at one size.
    assert family[16] == (
        [{"probes": 240, "hits": 240, "batches": 1}, {"probes": 240, "hits": 0, "batches": 0}],
        (64, 6),
    )


PAIRS = (256, 512, 1024)
SPAN_COUNTS = ("batches", "rates_checked", "rates_changed", "log_rows", "compactions")


def fluid_work(n_pairs, tmp_path):
    """One fluid run of ``n_pairs`` disjoint sender→receiver pairs (hosts
    ``2i`` and ``2i + 1``, 16 pairs to a rack) behind a 500 Mbit/s
    sender hose each: flows ``a_i`` of ``i + 1`` MB and ``b_i`` of
    ``3(i + 1)`` MB and a byte share the hose until ``a_i`` completes, and
    ``b_i`` then has it alone.  No two completions coincide.  Its
    ``fluid.run`` span's counts."""
    topology = build_multi_rooted_tree(
        TreeSpec(hosts_per_rack=32, racks_per_pod=8, pods=8, num_cores=2)
    )
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
    with fluid_run_spans(tmp_path / f"fluid{n_pairs}.jsonl") as spans:
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
        # a_i logs one segment and each b_i two.  Positions compact each
        # time tombstones outnumber live flows: log2(flows) times.
        assert work == {
            "batches": flows,
            "rates_checked": flows + n,
            "rates_changed": flows + n,
            "log_rows": 3 * n,
            "compactions": flows.bit_length() - 1,
        }, n
    # Checked positions per event after the first, n / (2n - 1): flat at
    # about one half while the live flows double.
    per_event = [(family[n]["rates_checked"] - 2 * n) / (2 * n - 1) for n in PAIRS]
    assert max(per_event) - min(per_event) < 1e-3 and max(per_event) < 0.51
    # The exact counts at one size.
    assert family[512] == {
        "batches": 1024, "rates_checked": 1536, "rates_changed": 1536,
        "log_rows": 1536, "compactions": 10,
    }
