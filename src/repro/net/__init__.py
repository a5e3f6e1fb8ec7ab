"""Datacenter network simulator substrate.

This package provides everything the Choreo reproduction needs from "the
network": multi-rooted tree topologies, built from a :class:`TreeSpec`, and
their routes (:mod:`repro.net.topology`), link identifiers
(:mod:`repro.net.links`), max-min fair bandwidth sharing (:mod:`repro.net.fairness`,
:mod:`repro.net.alloc`), a flow-level
event-driven simulator (:mod:`repro.net.fluid`, in which the hose model's
per-VM egress caps are extra links), and a burst-level packet-train
transmission model (:mod:`repro.net.packets`).
"""

from repro.net.topology import Topology, TreeSpec, build_multi_rooted_tree
from repro.net.links import loopback_link_id, hose_link_id
from repro.net.flows import Flow, FlowState
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand
from repro.net.fluid import FluidSimulation, FluidResult, RateTimeline
from repro.net.packets import PacketTrainSpec, draw_losses, send_packet_trains
from repro.net.latency import rtt_s

__all__ = [
    "Topology",
    "TreeSpec",
    "build_multi_rooted_tree",
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
    "rtt_s",
]
