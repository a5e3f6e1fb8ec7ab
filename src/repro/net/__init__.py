"""Datacenter network simulator substrate.

This package provides everything the Choreo reproduction needs from "the
network": multi-rooted tree topologies (:mod:`repro.net.topology`), routing
and hop counts (:mod:`repro.net.routing`, :mod:`repro.net.traceroute`),
max-min fair bandwidth sharing (:mod:`repro.net.fairness`), a flow-level
event-driven simulator (:mod:`repro.net.fluid`), hose-model egress rate
limiting (:mod:`repro.net.hose`), ON/OFF cross-traffic processes
(:mod:`repro.net.crosstraffic`), and a burst-level packet-train transmission
model (:mod:`repro.net.packets`).
"""

from repro.net.topology import (
    Topology,
    TreeSpec,
    build_multi_rooted_tree,
    build_dumbbell,
    build_two_rack_cloud,
    clear_route_cache,
    route_cache_info,
    NodeKind,
)
from repro.net.links import Link, LinkKind, loopback_link_id, hose_link_id
from repro.net.flows import Flow, FlowState
from repro.net.alloc import IncrementalAllocator
from repro.net.fairness import FlowDemand, max_min_allocation
from repro.net.fluid import FluidSimulation, FluidResult, RateTimeline
from repro.net.hose import HoseModel
from repro.net.crosstraffic import OnOffSource, OnOffInterval, generate_on_intervals
from repro.net.packets import (
    TokenBucket,
    PathTransmissionModel,
    PacketTrainSpec,
    BurstObservation,
    TrainObservation,
    send_packet_train,
    send_packet_trains,
)
from repro.net.traceroute import traceroute_hop_count
from repro.net.latency import LatencyModel

__all__ = [
    "Topology",
    "TreeSpec",
    "build_multi_rooted_tree",
    "build_dumbbell",
    "build_two_rack_cloud",
    "NodeKind",
    "Link",
    "LinkKind",
    "loopback_link_id",
    "hose_link_id",
    "Flow",
    "FlowState",
    "FlowDemand",
    "IncrementalAllocator",
    "max_min_allocation",
    "clear_route_cache",
    "route_cache_info",
    "FluidSimulation",
    "FluidResult",
    "RateTimeline",
    "HoseModel",
    "OnOffSource",
    "OnOffInterval",
    "generate_on_intervals",
    "TokenBucket",
    "PathTransmissionModel",
    "PacketTrainSpec",
    "BurstObservation",
    "TrainObservation",
    "send_packet_train",
    "send_packet_trains",
    "traceroute_hop_count",
    "LatencyModel",
]
