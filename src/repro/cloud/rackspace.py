"""Rackspace-like synthetic provider (Figures 2b, 6b, 7b).

The paper finds that every path between 8-GByte Rackspace instances runs at
almost exactly 300 Mbit/s — the advertised internal rate — with essentially
no spatial or temporal variation, and that the limit is enforced at the
source (hose model).  Packet trains need long bursts (2000 packets) before
their error drops, which we model as a deep token bucket in front of the
300 Mbit/s limiter: short bursts ride the physical rate and over-estimate
the sustainable throughput.

Rackspace's traceroutes only ever showed 1- or 4-hop paths, which the paper
suspects is the provider hiding parts of its topology; the provider here
reports hop counts through the same obscuring map.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.instances import RACKSPACE_8GB
from repro.cloud.provider import ProviderParams
from repro.net.topology import TreeSpec
from repro.units import GBITPS, MBITPS

#: Observed-hop-count mapping: everything beyond the rack is reported as a
#: 4-hop path, and same-rack paths are reported as 1 hop (§4.2).
RACKSPACE_VISIBLE_HOPS = {1: 1, 2: 1, 4: 4, 6: 4, 8: 4}


def rackspace_hose_sampler(rng: np.random.Generator) -> float:
    """Rackspace egress caps: 300 Mbit/s with negligible spread."""
    return float(rng.normal(300 * MBITPS, 1.5 * MBITPS))


def rackspace_params() -> ProviderParams:
    """Parameters of the Rackspace-like provider."""
    return ProviderParams(
        name="rackspace",
        instance_type=RACKSPACE_8GB,
        hose_sampler=rackspace_hose_sampler,
        colocation_probability=0.0,
        intra_host_rate_bps=1 * GBITPS,
        temporal_sigma=0.002,
        temporal_tau_s=600.0,
        measurement_noise=0.0015,
        train_jitter_std_s=100e-6,
        train_limiter_depth_bytes=300_000.0,
        train_rate_noise=0.02,
        loss_rate=0.0,
        traceroute_visible_hops=RACKSPACE_VISIBLE_HOPS,
        tree_spec=TreeSpec(
            hosts_per_rack=4,
            racks_per_pod=2,
            pods=3,
            num_cores=2,
            host_link_bps=1 * GBITPS,
            tor_agg_link_bps=10 * GBITPS,
            agg_core_link_bps=10 * GBITPS,
            intra_host_bps=1 * GBITPS,
        ),
    )

