"""Link identifiers.

A physical cable between two switches is modelled as two *directed* links,
one per direction, because datacenter links are full duplex and the paper's
bottlenecks (hose-model egress limits, ToR uplinks) are directional.

Two kinds of synthetic links also appear in flow paths:

* **loopback links** carry intra-machine traffic between VMs that share a
  physical host (the near-4 Gbit/s paths observed on EC2, §4.2);
* **hose links** are virtual first-hop links that implement the provider's
  per-VM egress rate limit (§2.2, §4.3).
"""

from __future__ import annotations


def directed_link_id(src: str, dst: str) -> str:
    """Identifier for the directed physical link from ``src`` to ``dst``."""
    return f"{src}->{dst}"


def loopback_link_id(host: str) -> str:
    """Identifier for the intra-host loopback link of ``host``."""
    return f"loop:{host}"


def hose_link_id(node: str) -> str:
    """Identifier for the virtual egress hose link of ``node``."""
    return f"hose:{node}"
