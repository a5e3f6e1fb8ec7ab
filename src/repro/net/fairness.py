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

import numpy as np

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


def probe_rates_under_load(
    capacity: np.ndarray, background: np.ndarray, probes: np.ndarray
) -> Tuple[np.ndarray, int]:
    """The rate each probe gets when it *alone* joins the background.

    ``capacity[l]`` is the capacity of link ``l``; ``background`` and
    ``probes`` hold one flow per row, as the indices of the links it
    crosses, ``-1`` where a row is shorter.  Returns, for every probe ``i``,
    its rate in the max-min fair allocation of ``background + [probe i]`` —
    ``len(probes)`` independent problems — and how many rounds the
    background's own fill took.  No row may repeat a link.

    One progressive filling of the *background alone* answers all of them.
    Before its round ``r`` let ``rem[l]`` / ``cnt[l]`` be link ``l``'s
    headroom and unfrozen flow count (a link no background flow crosses has
    its capacity and 0) and ``(level, link)`` the round's bottleneck: the
    least ``(rem / cnt, l)``, shares first, link index on ties.  A probe
    crossing links ``P`` freezes at the first round where ``min over l in P
    of (rem[l] / (cnt[l] + 1), l) <= (level, link)`` — a last round
    ``(inf, -)`` catches the rest — at that minimum share.  Why: until
    then every probe link's share, probe counted, loses to ``(level,
    link)``, so ``link`` is not a probe link; the fill of background +
    probe picks the same bottleneck at the same share, freezes the same
    batch and drains the same ``k * level`` (an unfrozen probe drains
    nothing), which leaves ``rem`` / ``cnt`` those of the background-only
    fill.  At that round the least share of all is on a probe link, and
    every unfrozen flow on it, the probe among them, freezes there.  The
    link index must be the true one even on links a probe has to itself:
    equal capacities tie all the time (every host link of a tree), and
    which of two tied links goes first decides the batch, hence the order
    of the drains, hence the last bit of later levels.

    The arithmetic is :class:`~repro.net.alloc.IncrementalAllocator`'s, so
    the rates equal a solve of each problem bit for bit: ``rem / cnt`` with
    the probe counted, the lowest link index among equal shares, the fused
    ``max(rem - k * level, 0)`` per drained link.  A round costs O(batch x
    path + links the background uses + unfrozen probes x path); nothing of
    size probes x links is built.
    """
    n_links = capacity.shape[0]
    for rows in (background, probes):
        if rows.size and (rows.min() < -1 or rows.max() >= n_links):
            raise SimulationError("a flow's row names a link that has no capacity")
        ordered = np.sort(rows, axis=1)
        if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any():
            raise SimulationError("a flow's row repeats a link")
    # What one more flow would get on each link, ``rem / (cnt + 1)``; the
    # extra last entry is what a row's -1 padding reads.
    offer = np.append(capacity, np.inf)
    rates = np.empty(probes.shape[0])
    waiting = np.arange(probes.shape[0])  # the probes no round has frozen yet
    rows = probes

    # The background's state covers the links it uses only, ascending by
    # link index (``argmin`` returns the first of equal shares); ``members``
    # lists each of those links' flows, link after link.
    crossed = background >= 0
    used, at = np.unique(background[crossed], return_inverse=True)
    at_rows = np.zeros(background.shape, dtype=np.intp)
    at_rows[crossed] = at
    members = crossed.nonzero()[0][at.argsort(kind="stable")]
    sizes = np.bincount(at, minlength=used.shape[0])
    ends = sizes.cumsum()
    starts = ends - sizes
    counts = sizes.astype(np.float64)
    remaining = capacity[used]
    offer[used] = remaining / (counts + 1.0)
    frozen = np.zeros(background.shape[0], dtype=bool)
    shares = np.empty(used.shape[0])
    left = int(crossed.any(axis=1).sum())
    rounds = 0
    while left:
        # (Masked: a link whose flows are all frozen would divide 0 by 0.)
        shares.fill(np.inf)
        np.divide(remaining, counts, out=shares, where=counts > 0)
        bottleneck = int(shares.argmin())
        level = shares[bottleneck]
        if level == np.inf:
            break  # nothing finite constrains the flows that are left
        if waiting.shape[0]:
            offered = offer[rows]
            best = offered.min(axis=1)
            freeze = best < level
            tied = (best == level).nonzero()[0]
            if tied.shape[0]:
                lowest = np.where(offered[tied] == level, rows[tied], n_links)
                freeze[tied] = lowest.min(axis=1) <= used[bottleneck]
            if freeze.any():
                rates[waiting[freeze]] = best[freeze]
                waiting = waiting[~freeze]
                rows = rows[~freeze]
        batch = members[starts[bottleneck] : ends[bottleneck]]
        batch = batch[~frozen[batch]]
        frozen[batch] = True
        left -= batch.shape[0]
        rounds += 1
        # Each link the batch crosses loses ``k`` flows and ``k * level``.
        k = np.bincount(at_rows[batch][crossed[batch]], minlength=used.shape[0])
        hit = k.nonzero()[0]
        k = k[hit]
        counts[hit] -= k
        drained = remaining[hit] - k * level
        np.maximum(drained, 0.0, out=drained)
        remaining[hit] = drained
        offer[used[hit]] = drained / (counts[hit] + 1.0)
    if waiting.shape[0]:
        rates[waiting] = offer[rows].min(axis=1)
    return rates, rounds
