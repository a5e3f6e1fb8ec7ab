"""Max-min fairness from scratch — the reference the allocator is held to.

:func:`max_min_allocation` is the textbook progressive filling, moved here
verbatim from ``repro.net.fairness``: it receives string-keyed mappings,
rebuilds its ``link -> members`` index on every call and intersects member
sets against the unfrozen set every round.  Nothing in the package calls
it; :class:`~repro.net.alloc.IncrementalAllocator` must give the same rates.

:class:`ReferenceAllocator` wraps it in the three calls the fluid
simulator's scalar event loop makes (``add_flows`` / ``remove_flow`` /
``solve``), so a test can run the whole engine on the reference:
:func:`use_reference_engine` patches it into :mod:`repro.net.fluid` and
raises ``_LOOP_MIN_FLOWS`` so the scalar loop runs at every size.

The engine picks its paths from the input size alone.  A test reaches a
path by patching the size constants — :func:`force_solves` for the
allocator's scalar or vector solve, :func:`force_loop` (or one
:func:`run_loop`) for the fluid simulator's scalar or vector event loop —
and compares the two sides by replaying one script once per side.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.net import alloc, fluid
from repro.net.fairness import FlowDemand


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
        no links get ``math.inf``.

    Raises:
        SimulationError: if a demand references an unknown link.
    """
    for flow_id, demand in demands.items():
        for link_id in demand.links:
            if link_id not in capacities:
                raise SimulationError(
                    f"flow {flow_id!r} references unknown link {link_id!r}"
                )

    # Flows that traverse no links are not limited at all.
    rates = {flow_id: math.inf for flow_id, d in demands.items() if not d.links}
    unfrozen = set(demands) - set(rates)

    remaining = {link_id: float(cap) for link_id, cap in capacities.items()}
    link_members: Dict[str, set] = {}
    for flow_id in unfrozen:
        for link_id in demands[flow_id].links:
            link_members.setdefault(link_id, set()).add(flow_id)

    while unfrozen:
        # The next "water level" is the smallest equal share on any link
        # carrying unfrozen flows.
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

        if bottleneck_link is None:
            # Unfrozen flows remain but nothing constrains them; they are
            # effectively unbounded (should not happen for routed flows).
            for flow_id in unfrozen:
                rates[flow_id] = math.inf
            break

        frozen = {f for f in link_members[bottleneck_link] if f in unfrozen}
        level = bottleneck_share

        for flow_id in frozen:
            rates[flow_id] = level
            unfrozen.discard(flow_id)
            for link_id in demands[flow_id].links:
                remaining[link_id] = max(0.0, remaining[link_id] - level)

    return rates


def row_demands(
    link_ids: Sequence[str],
    flow_ids: Sequence[str],
    rows,
    lengths,
) -> Dict[str, FlowDemand]:
    """Each flow's :class:`FlowDemand`, from link-index rows laid end to end
    (``IncrementalAllocator.add_flows``'s arguments) over ``link_ids``."""
    links = [link_ids[i] for i in np.asarray(rows).tolist()]
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    return {
        flow_id: FlowDemand(links=tuple(links[lo:hi]))
        for flow_id, lo, hi in zip(flow_ids, [0] + ends, ends)
    }


def flow_demands(sim: fluid.FluidSimulation) -> Dict[str, FlowDemand]:
    """Every registered flow of ``sim`` as a :class:`FlowDemand`, read off
    its flow table (extra links first, then the path)."""
    data, _, lengths = sim._table()
    return row_demands(sim._link_ids, list(sim._flows), data, lengths)


class ReferenceAllocator:
    """The allocator calls of the scalar event loop, each solve from scratch."""

    def __init__(self, capacities: Mapping[str, float]) -> None:
        self._capacities = dict(capacities)
        self._demands: Dict[str, FlowDemand] = {}

    def add_flows(self, flow_ids, rows, lengths) -> None:
        demands = row_demands(list(self._capacities), flow_ids, rows, lengths)
        for flow_id in demands:
            if flow_id in self._demands:
                raise SimulationError(f"duplicate flow id {flow_id!r}")
        self._demands.update(demands)

    def remove_flow(self, flow_id: str) -> None:
        del self._demands[flow_id]

    def solve(self) -> Dict[str, float]:
        return max_min_allocation(self._demands, self._capacities)


def use_reference_engine(patch) -> None:
    """Run every :class:`~repro.net.fluid.FluidSimulation` on the reference:
    the scalar loop at every size, max-min from scratch at every event."""
    patch.setattr(fluid, "IncrementalAllocator", ReferenceAllocator)
    patch.setattr(fluid, "_LOOP_MIN_FLOWS", math.inf)


def force_solves(patch, vector: bool) -> None:
    """Make every full allocator solve take the vector (or the scalar) path."""
    bound = 0 if vector else math.inf
    patch.setattr(alloc, "_VECTOR_MIN_FLOWS", bound)


def force_loop(patch, vector: bool) -> None:
    """Make every fluid run take the vector (or the scalar) event loop."""
    patch.setattr(fluid, "_LOOP_MIN_FLOWS", 0 if vector else math.inf)


def run_loop(sim: fluid.FluidSimulation, vector: bool, until=None):
    """``sim.run(until)`` on the vector (or the scalar) event loop."""
    with pytest.MonkeyPatch.context() as patch:
        force_loop(patch, vector)
        return sim.run(until=until)
