"""One traceroute per VM pair — the oracle for the batched traceroutes.

``CloudProvider.traceroutes`` routes a whole batch of VM pairs in one
``Topology.path_links_matrix`` call.  Until it did, each pair was traced
alone by this function (then ``repro.net.traceroute``), which
``tests/test_bottleneck.py`` keeps as the per-pair answer the batch and
the rack clusters built from it must equal.

The paper uses traceroute hop counts to "fit" a multi-rooted tree onto the
measured topology (§3.3.1, §4.2): hop counts of 1, 2, 4, 6 or 8 map to
same-machine, same-rack, same-pod, via-core, and via a deeper core.  Some
providers obscure parts of their topology (Rackspace's traceroutes show
only 1- and 4-hop paths); ``visible_hops`` reproduces that.
"""

from __future__ import annotations

from typing import Mapping, Optional

from oracles.graph_search import route_ids
from repro.net.topology import Topology


def traceroute_hop_count(
    topology: Topology,
    src: str,
    dst: str,
    visible_hops: Optional[Mapping[int, int]] = None,
) -> int:
    """Hop count traceroute reports between two hosts: the true one, or
    what ``visible_hops`` maps it to (unmapped counts pass through)."""
    true_hops = len(route_ids(topology, src, dst))
    if visible_hops is None:
        return true_hops
    return visible_hops.get(true_hops, true_hops)
