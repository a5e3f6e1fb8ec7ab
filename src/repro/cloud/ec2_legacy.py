"""EC2-like synthetic provider for the May-2012 network (Figure 1).

When the Choreo project started, EC2 path throughputs were highly variable:
Figure 1 shows CDFs per availability zone ranging from about 100 Mbit/s to
almost 1 Gbit/s.  This provider reproduces that earlier regime with much
wider per-VM egress-cap distributions, parameterised per availability zone,
so the Figure 1 experiment can draw one CDF per zone.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.cloud.instances import EC2_MEDIUM
from repro.cloud.provider import ProviderParams
from repro.errors import CloudError
from repro.net.topology import TreeSpec
from repro.units import GBITPS, MBITPS

# Per-zone (low, high, shape) parameters of a beta-scaled throughput
# distribution, chosen so the four CDFs spread out as in Figure 1.
EC2_LEGACY_ZONES: Dict[str, Tuple[float, float, float]] = {
    "us-east-1a": (100 * MBITPS, 750 * MBITPS, 1.6),
    "us-east-1b": (150 * MBITPS, 850 * MBITPS, 2.2),
    "us-east-1c": (200 * MBITPS, 950 * MBITPS, 3.0),
    "us-east-1d": (300 * MBITPS, 1000 * MBITPS, 4.0),
}


def legacy_hose_sampler(zone: str):
    """Sampler factory for the given 2012 availability zone."""
    if zone not in EC2_LEGACY_ZONES:
        raise CloudError(f"unknown legacy EC2 zone {zone!r}")
    low, high, shape = EC2_LEGACY_ZONES[zone]

    def sampler(rng: np.random.Generator) -> float:
        return float(low + (high - low) * rng.beta(shape, 1.6))

    return sampler


def ec2_legacy_params(zone: str = "us-east-1a") -> ProviderParams:
    """Parameters of the 2012 EC2-like provider for one availability zone."""
    return ProviderParams(
        name=f"ec2-2012-{zone}",
        instance_type=EC2_MEDIUM,
        hose_sampler=legacy_hose_sampler(zone),
        colocation_probability=0.02,
        intra_host_rate_bps=2 * GBITPS,
        temporal_sigma=0.08,
        temporal_tau_s=300.0,
        measurement_noise=0.01,
        train_jitter_std_s=400e-6,
        train_limiter_depth_bytes=None,
        train_rate_noise=0.1,
        loss_rate=0.0005,
        traceroute_visible_hops=None,
        tree_spec=TreeSpec(
            hosts_per_rack=4,
            racks_per_pod=2,
            pods=3,
            num_cores=2,
            host_link_bps=1 * GBITPS,
            tor_agg_link_bps=10 * GBITPS,
            agg_core_link_bps=10 * GBITPS,
            intra_host_bps=2 * GBITPS,
        ),
    )

