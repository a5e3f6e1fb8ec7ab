"""Directed link objects and identifier helpers.

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

import enum
from dataclasses import dataclass

from repro.errors import TopologyError


class LinkKind(enum.Enum):
    """The role a directed link plays in the topology."""

    HOST_TOR = "host-tor"
    TOR_AGG = "tor-agg"
    AGG_AGG = "agg-agg"
    AGG_CORE = "agg-core"
    LOOPBACK = "loopback"
    HOSE = "hose"
    GENERIC = "generic"


@dataclass(frozen=True)
class Link:
    """A directed, capacitated link.

    Attributes:
        link_id: globally unique string identifier (``"u->v"`` for physical
            links, ``"loop:<host>"`` / ``"hose:<node>"`` for synthetic ones).
        src: upstream node name.
        dst: downstream node name (equal to ``src`` for loopback/hose links).
        capacity_bps: capacity in bits per second.
        kind: the :class:`LinkKind` of the link.
    """

    link_id: str
    src: str
    dst: str
    capacity_bps: float
    kind: LinkKind = LinkKind.GENERIC

    def __post_init__(self) -> None:
        if not self.capacity_bps > 0:
            raise TopologyError(
                f"link {self.link_id!r} must have positive capacity, "
                f"got {self.capacity_bps!r}"
            )


def directed_link_id(src: str, dst: str) -> str:
    """Identifier for the directed physical link from ``src`` to ``dst``."""
    return f"{src}->{dst}"


def loopback_link_id(host: str) -> str:
    """Identifier for the intra-host loopback link of ``host``."""
    return f"loop:{host}"


def hose_link_id(node: str) -> str:
    """Identifier for the virtual egress hose link of ``node``."""
    return f"hose:{node}"
