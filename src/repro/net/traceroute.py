"""Simulated traceroute (paper §3.3.1, §4.2).

The paper uses traceroute hop counts to "fit" a multi-rooted tree onto the
measured topology: hop counts of 1, 2, 4, 6 or 8 map to same-machine,
same-rack, same-pod, via-core, and via a deeper core respectively.  Some
providers obscure parts of their topology (the paper suspects Rackspace's
traceroutes hide hops, since only 1- and 4-hop paths appear); the optional
``visible_hops`` mapping reproduces that behaviour.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.net.topology import Topology


def traceroute_hop_count(
    topology: Topology,
    src: str,
    dst: str,
    visible_hops: Optional[Mapping[int, int]] = None,
) -> int:
    """Hop count reported by traceroute between two hosts.

    Args:
        topology: the datacenter topology.
        src, dst: host names (VM-to-host mapping is the caller's concern).
        visible_hops: optional mapping from true hop count to the hop count
            the provider's traceroute actually reports (identity when
            omitted).  Unmapped hop counts pass through unchanged.

    Returns:
        The (possibly obscured) hop count.
    """
    true_hops = topology.hop_count(src, dst)
    if visible_hops is None:
        return true_hops
    return visible_hops.get(true_hops, true_hops)

