"""EC2-like synthetic provider (May 2013 measurements, Figures 2a, 6a, 7a, 8).

The generative model encodes what the paper measured on Amazon EC2 medium
instances in May 2013:

* per-VM hose-model egress caps: roughly 80% of paths between 900 and
  1100 Mbit/s (two modes producing the knees near 950 and 1100 Mbit/s),
  a small slow tail down to ~300 Mbit/s, mean ≈ 957 Mbit/s;
* a few colocated VM pairs whose paths reach ~4 Gbit/s (18 of 1710 paths);
* strong temporal stability (median prediction error below 1%, §4.1);
* bottlenecks at the first hop (hose model), so physical fabric links are
  fast relative to the hose;
* multi-rooted-tree hop counts in {1, 2, 4, 6, 8} (the 8-hop paths come from
  topologies with an extra aggregation tier).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.cloud.instances import EC2_MEDIUM
from repro.cloud.provider import CloudProvider, ProviderParams
from repro.cloud.registry import register_provider
from repro.net.topology import TreeSpec
from repro.units import GBITPS, MBITPS


def ec2_hose_sampler(rng: np.random.Generator) -> float:
    """Draw one VM's egress cap from the EC2 May-2013 mixture."""
    roll = rng.random()
    if roll < 0.62:
        rate = rng.normal(935 * MBITPS, 25 * MBITPS)
    elif roll < 0.92:
        rate = rng.normal(1085 * MBITPS, 25 * MBITPS)
    else:
        rate = rng.uniform(300 * MBITPS, 900 * MBITPS)
    return float(min(max(rate, 296 * MBITPS), 1200 * MBITPS))


def ec2_tree_spec(extra_agg_layer: bool = False) -> TreeSpec:
    """Physical topology used by the EC2-like provider.

    Fabric links are fast relative to the per-VM hose so that the bottleneck
    sits at the first hop, matching §4.3.
    """
    return TreeSpec(
        hosts_per_rack=4,
        racks_per_pod=2,
        pods=3,
        num_cores=2,
        host_link_bps=10 * GBITPS,
        tor_agg_link_bps=40 * GBITPS,
        agg_core_link_bps=40 * GBITPS,
        intra_host_bps=4 * GBITPS,
        extra_agg_layer=extra_agg_layer,
    )


def ec2_params(
    extra_agg_layer: bool = False,
    colocation_probability: float = 0.05,
) -> ProviderParams:
    """Parameters of the EC2-like provider."""
    return ProviderParams(
        name="ec2",
        instance_type=EC2_MEDIUM,
        hose_sampler=ec2_hose_sampler,
        colocation_probability=colocation_probability,
        intra_host_rate_bps=4 * GBITPS,
        temporal_sigma=0.015,
        temporal_tau_s=600.0,
        measurement_noise=0.004,
        train_jitter_std_s=200e-6,
        train_limiter_depth_bytes=None,
        train_rate_noise=0.06,
        loss_rate=0.0,
        traceroute_visible_hops=None,
        tree_spec=ec2_tree_spec(extra_agg_layer=extra_agg_layer),
    )


class EC2Provider(CloudProvider):
    """The EC2-like provider with the May-2013 network model."""

    def __init__(
        self,
        seed: int = 0,
        extra_agg_layer: bool = False,
        colocation_probability: float = 0.05,
        params: Optional[ProviderParams] = None,
    ):
        if params is None:
            params = ec2_params(
                extra_agg_layer=extra_agg_layer,
                colocation_probability=colocation_probability,
            )
        super().__init__(params, seed=seed)


register_provider("ec2", EC2Provider)
