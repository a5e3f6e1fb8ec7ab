"""Work counts as the performance contract: the routing a campaign does.

Timing on a shared host is noisy; how much a path does is not.  On a
doubling family of campaigns (n, 2n and 4n VMs, each on a tree with twice
the racks of the last) a full-mesh campaign routes each probe's pair of
hosts exactly once (``repro.routes.structured_hits``), in one route batch,
and a second campaign on the same VMs routes none.  The tree's rack-pair
table holds one row per ordered pair of racks.  So routing grows as the
probes do, ``n(n - 1)``, and the table as the racks squared; a change in
either fails here on any host.
"""

import dataclasses

import numpy as np

from repro import obs
from repro.cloud.ec2 import ec2_params
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.net.topology import Topology, TreeSpec

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
