"""Datacenter network simulator substrate.

This package provides everything the Choreo reproduction needs from "the
network": multi-rooted tree topologies and their routes
(:mod:`repro.net.topology`), hop counts (:mod:`repro.net.traceroute`),
max-min fair bandwidth sharing (:mod:`repro.net.fairness`,
:mod:`repro.net.alloc`), a flow-level
event-driven simulator (:mod:`repro.net.fluid`, in which the hose model's
per-VM egress caps are extra links), and a burst-level packet-train
transmission model (:mod:`repro.net.packets`).
"""

from repro.net.topology import (
    Topology,
    TreeSpec,
    build_multi_rooted_tree,
    NodeKind,
)
from repro.net.links import Link, LinkKind, loopback_link_id, hose_link_id
from repro.net.flows import Flow, FlowState
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand
from repro.net.fluid import FluidSimulation, FluidResult, RateTimeline
from repro.net.packets import PacketTrainSpec, draw_losses, send_packet_trains
from repro.net.traceroute import traceroute_hop_count
from repro.net.latency import rtt_s

__all__ = [
    "Topology",
    "TreeSpec",
    "build_multi_rooted_tree",
    "NodeKind",
    "Link",
    "LinkKind",
    "loopback_link_id",
    "hose_link_id",
    "Flow",
    "FlowState",
    "FlowDemand",
    "IncrementalAllocator",
    "FluidSimulation",
    "FluidResult",
    "RateTimeline",
    "PacketTrainSpec",
    "draw_losses",
    "send_packet_trains",
    "traceroute_hop_count",
    "rtt_s",
]
