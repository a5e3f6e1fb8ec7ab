"""Hose-model egress rate limiting.

The paper finds (§4.3, §4.4) that both EC2 and Rackspace rate-limit VMs with
a *hose model* [Duffield et al., SIGCOMM 1999]: the sum of all connections
leaving a VM is capped at a per-VM egress rate, and connections from
different sources do not interfere with each other in the core.

The hose is modelled as a virtual link that every flow leaving a node
traverses before reaching the physical first hop.  Feeding these virtual
links to the max-min allocator reproduces the paper's observations exactly:
concurrent connections out of the same source always share (and halve) the
rate, while connections between four distinct endpoints never interfere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import SimulationError
from repro.net.links import hose_link_id


@dataclass
class HoseModel:
    """Per-node egress rate caps.

    Attributes:
        egress_bps: mapping of node name to egress cap in bits/second.
        default_bps: cap applied to nodes not listed in ``egress_bps``;
            ``None`` means such nodes are not hose-limited.
        limit_intra_host: whether intra-host (loopback) traffic counts
            against the hose.  Public clouds enforce the hose at the virtual
            switch, which colocated-VM traffic may bypass; the default is
            therefore ``False``.
    """

    egress_bps: Dict[str, float] = field(default_factory=dict)
    default_bps: Optional[float] = None
    limit_intra_host: bool = False

    def rate_for(self, node: str) -> Optional[float]:
        """The egress cap for ``node``, or ``None`` if it is unlimited."""
        if node in self.egress_bps:
            return self.egress_bps[node]
        return self.default_bps

    def is_limited(self, node: str) -> bool:
        """True if the node has an egress cap."""
        return self.rate_for(node) is not None

    def link_capacities(self, nodes: Iterable[str]) -> Dict[str, float]:
        """Virtual hose-link capacities for the given nodes.

        Only limited nodes produce entries.  The returned map can be merged
        with the physical link capacities before max-min allocation.
        """
        capacities: Dict[str, float] = {}
        for node in nodes:
            rate = self.rate_for(node)
            if rate is None:
                continue
            if not rate > 0:
                raise SimulationError(
                    f"hose rate for {node!r} must be positive, got {rate!r}"
                )
            capacities[hose_link_id(node)] = rate
        return capacities

    def links_for_flow(self, src: str, dst: str) -> List[str]:
        """Virtual link ids a flow from ``src`` to ``dst`` must traverse."""
        if src == dst and not self.limit_intra_host:
            return []
        if self.is_limited(src):
            return [hose_link_id(src)]
        return []

    def set_rate(self, node: str, rate_bps: float) -> None:
        """Set (or update) the egress cap of a single node."""
        if not rate_bps > 0:
            raise SimulationError(
                f"hose rate for {node!r} must be positive, got {rate_bps!r}"
            )
        self.egress_bps[node] = rate_bps

    @classmethod
    def uniform(cls, nodes: Iterable[str], rate_bps: float) -> "HoseModel":
        """A hose model capping every listed node at the same rate."""
        return cls(egress_bps={node: rate_bps for node in nodes})
