"""Max-min fair bandwidth allocation (progressive filling).

The paper's throughput model assumes TCP divides a bottleneck's rate equally
between bulk connections (§3.2: "TCP divides the bottleneck rate equally
between bulk connections in cloud networks"), which is exactly the max-min
fair allocation when every flow is backlogged.  The fluid simulator
(:mod:`repro.net.fluid`) recomputes this allocation whenever the set of
active flows changes.

The algorithm is the classic progressive-filling / water-filling procedure:
repeatedly find the most constrained link (smallest equal share among its
unfrozen flows), freeze every unfrozen flow crossing it at that share, remove
the consumed capacity, and iterate.  Flows may carry an individual
``max_rate`` cap (application-limited sources); capped flows freeze at their
cap as soon as the water level reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class FlowDemand:
    """A flow's routing and cap, as seen by the allocator.

    Attributes:
        links: identifiers of the directed links the flow traverses.  An
            empty tuple means the flow uses no shared resource (its rate is
            only bounded by ``max_rate``, or unbounded).
        max_rate: optional cap on the flow's rate in bits/second.
    """

    links: Tuple[str, ...]
    max_rate: Optional[float] = None


def max_min_allocation(
    demands: Mapping[str, FlowDemand],
    capacities: Mapping[str, float],
) -> Dict[str, float]:
    """Compute the max-min fair rate for each flow.

    Args:
        demands: mapping of flow id to :class:`FlowDemand`.
        capacities: mapping of link id to capacity in bits/second.  Every
            link referenced by a demand must be present.

    Returns:
        Mapping of flow id to allocated rate (bits/second).  Flows that use
        no links and have no cap get ``math.inf``.

    Raises:
        SimulationError: if a demand references an unknown link.
    """
    for flow_id, demand in demands.items():
        for link_id in demand.links:
            if link_id not in capacities:
                raise SimulationError(
                    f"flow {flow_id!r} references unknown link {link_id!r}"
                )

    rates: Dict[str, float] = {}
    unfrozen = set(demands)

    # Flows that traverse no links are only limited by their own cap.
    for flow_id in list(unfrozen):
        if not demands[flow_id].links:
            cap = demands[flow_id].max_rate
            rates[flow_id] = math.inf if cap is None else cap
            unfrozen.discard(flow_id)

    remaining = {link_id: float(cap) for link_id, cap in capacities.items()}
    link_members: Dict[str, set] = {}
    for flow_id in unfrozen:
        for link_id in demands[flow_id].links:
            link_members.setdefault(link_id, set()).add(flow_id)

    while unfrozen:
        # The next "water level" is the smallest of: the equal share on any
        # link carrying unfrozen flows, and the smallest unfrozen flow cap.
        bottleneck_share = math.inf
        bottleneck_link: Optional[str] = None
        for link_id, members in link_members.items():
            active = members & unfrozen
            if not active:
                continue
            share = remaining[link_id] / len(active)
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link_id

        capped_level = math.inf
        capped_flow: Optional[str] = None
        for flow_id in unfrozen:
            cap = demands[flow_id].max_rate
            if cap is not None and cap < capped_level:
                capped_level = cap
                capped_flow = flow_id

        if bottleneck_link is None and capped_flow is None:
            # Unfrozen flows remain but nothing constrains them; they are
            # effectively unbounded (should not happen for routed flows).
            for flow_id in unfrozen:
                rates[flow_id] = math.inf
            break

        if capped_level <= bottleneck_share:
            # A flow hits its own cap before any link saturates at this level.
            frozen = {capped_flow}
            level = capped_level
        else:
            frozen = {f for f in link_members[bottleneck_link] if f in unfrozen}
            level = bottleneck_share

        for flow_id in frozen:
            rates[flow_id] = level
            unfrozen.discard(flow_id)
            for link_id in demands[flow_id].links:
                remaining[link_id] = max(0.0, remaining[link_id] - level)

    return rates


def max_min_violations(
    demands: Mapping[str, FlowDemand],
    capacities: Mapping[str, float],
    rates: Mapping[str, float],
    rel_tol: float = 1e-9,
) -> List[str]:
    """Ways ``rates`` fails the max-min fairness certificate (empty: none).

    An allocation is max-min fair exactly when it is feasible — no link
    carries more than its capacity, no flow exceeds its cap — and every flow
    has a *bottleneck*: it runs at its own cap, or crosses a saturated link
    on which no other flow gets a larger rate.  A flow with an infinite
    rate must be uncapped and cross only links of infinite capacity.  The
    check needs no reference solver, so it certifies any allocator's output
    on its own.  Paths must not repeat a link: the solvers share such a
    link counting the flow once and drain it once per occurrence, which is
    max-min fair under neither reading.
    """
    problems: List[str] = []
    load: Dict[str, float] = {}
    fastest: Dict[str, float] = {}
    for flow_id, demand in demands.items():
        rate = rates[flow_id]
        cap = demand.max_rate
        if cap is not None and rate > cap * (1.0 + rel_tol):
            problems.append(f"flow {flow_id!r}: rate {rate!r} above its cap {cap!r}")
        if math.isinf(rate):
            finite = [
                link_id for link_id in demand.links
                if not math.isinf(capacities[link_id])
            ]
            if cap is not None or finite:
                problems.append(
                    f"flow {flow_id!r}: infinite rate but capped or on finite "
                    f"links {finite!r}"
                )
            continue
        for link_id in demand.links:
            load[link_id] = load.get(link_id, 0.0) + rate
            fastest[link_id] = max(fastest.get(link_id, 0.0), rate)
    for link_id, used in load.items():
        if used > capacities[link_id] * (1.0 + rel_tol):
            problems.append(
                f"link {link_id!r}: load {used!r} above capacity "
                f"{capacities[link_id]!r}"
            )
    for flow_id, demand in demands.items():
        rate = rates[flow_id]
        cap = demand.max_rate
        if math.isinf(rate) or (cap is not None and rate >= cap * (1.0 - rel_tol)):
            continue
        if not any(
            load[link_id] >= capacities[link_id] * (1.0 - rel_tol)
            and rate >= fastest[link_id] * (1.0 - rel_tol)
            for link_id in demand.links
        ):
            problems.append(
                f"flow {flow_id!r}: rate {rate!r} has no bottleneck (not at its "
                f"cap, and on no saturated link where it is the fastest)"
            )
    return problems
