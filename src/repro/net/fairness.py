"""Max-min fair bandwidth allocation (progressive filling).

The paper's throughput model assumes TCP divides a bottleneck's rate equally
between bulk connections (§3.2: "TCP divides the bottleneck rate equally
between bulk connections in cloud networks"), which is exactly the max-min
fair allocation when every flow is backlogged.  The fluid simulator
(:mod:`repro.net.fluid`) recomputes this allocation whenever the set of
active flows changes.

The algorithm is the classic progressive-filling / water-filling procedure:
repeatedly find the least equal share among the links' unfrozen flows (the
*level*), freeze every unfrozen flow crossing a link at that share, each
once and all at the level, remove the consumed capacity, and iterate.
Every flow is a bulk transfer: nothing but the links it crosses limits its
rate.

The solver is :class:`~repro.net.alloc.IncrementalAllocator`.  This module
holds what it shares with its callers: the :class:`FlowDemand` record,
:func:`max_min_violations` (the certificate any allocation must pass),
:func:`segment_violations` (the same, at every moment of a fluid run) and
:func:`byte_violations` (every flow's bytes, moved or left, in that run's
log), :func:`probe_rates_under_load` and :func:`snapshot_violations` (the
bounds its rates must keep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.net.alloc import _distinct, csr_gather
from repro.net.fluid import _BYTE_EPS, _TIME_EPS


@dataclass(frozen=True)
class FlowDemand:
    """A flow's routing, as seen by the allocator.

    Attributes:
        links: identifiers of the directed links the flow traverses.  An
            empty tuple means the flow uses no shared resource (its rate is
            unbounded).
    """

    links: Tuple[str, ...]


def max_min_violations(
    demands: Mapping[str, FlowDemand],
    capacities: Mapping[str, float],
    rates: Mapping[str, float],
    rel_tol: float = 1e-9,
) -> List[str]:
    """Ways ``rates`` fails the max-min fairness certificate (empty: none).

    An allocation is max-min fair exactly when it is feasible — no link
    carries more than its capacity — and every flow has a *bottleneck*: it
    crosses a saturated link on which no other flow gets a larger rate.  A
    flow with an infinite rate must cross only links of infinite capacity.  The
    check needs no reference solver, so it certifies any allocator's output
    on its own.  Paths must not repeat a link, as the allocator refuses
    one: counted once per link and drained once per crossing, such a path
    would be max-min fair under neither reading.
    """
    problems: List[str] = []
    load: Dict[str, float] = {}
    fastest: Dict[str, float] = {}
    for flow_id, demand in demands.items():
        rate = rates[flow_id]
        if math.isinf(rate):
            finite = [
                link_id for link_id in demand.links
                if not math.isinf(capacities[link_id])
            ]
            if finite:
                problems.append(
                    f"flow {flow_id!r}: infinite rate on finite links {finite!r}"
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
        if math.isinf(rate):
            continue
        if not any(
            load[link_id] >= capacities[link_id] * (1.0 - rel_tol)
            and rate >= fastest[link_id] * (1.0 - rel_tol)
            for link_id in demand.links
        ):
            problems.append(
                f"flow {flow_id!r}: rate {rate!r} has no bottleneck (on no "
                f"saturated link where it is the fastest)"
            )
    return problems


def segment_violations(
    result,
    paths: Mapping[str, Sequence[str]],
    capacities: Mapping[str, float],
) -> List[str]:
    """Ways a fluid run's rate log fails :func:`max_min_violations` (empty:
    none), at any moment of the run.

    ``result`` is a :class:`~repro.net.fluid.FluidResult`, ``paths`` maps
    each of its flows to the links it crosses, and ``capacities`` are the
    links' capacities during the run.  Between two consecutive segment
    boundaries the active flows and their rates are constant; each such
    interval is checked with the rates in force at its midpoint, over the
    flows whose segments cover it.  An interval no longer than the log's
    time resolution is skipped: the log drops segments that short, so a
    flow can look absent there.
    """
    flow_ids: List[str] = []
    starts: List[float] = []
    ends: List[float] = []
    rates: List[float] = []
    for flow_id in result.timelines:
        for segment in result.timelines[flow_id].segments:
            flow_ids.append(flow_id)
            starts.append(segment.start)
            ends.append(segment.end)
            rates.append(segment.rate_bps)
    start, end = np.array(starts), np.array(ends)
    bounds = np.unique(np.concatenate([start, end])).tolist()
    problems: List[str] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo <= _TIME_EPS:
            continue
        mid = 0.5 * (lo + hi)
        active = np.flatnonzero((start <= mid) & (mid < end)).tolist()
        demands = {flow_ids[i]: FlowDemand(tuple(paths[flow_ids[i]])) for i in active}
        in_force = {flow_ids[i]: rates[i] for i in active}
        problems.extend(
            f"t={mid!r}: {problem}"
            for problem in max_min_violations(demands, capacities, in_force)
        )
    return problems


def byte_violations(
    result,
    start_bytes: Mapping[str, float],
    paths: Mapping[str, Sequence[str]],
    capacities: Mapping[str, float],
) -> List[str]:
    """Ways a fluid run's rate log fails to conserve bytes (empty: none).

    ``result`` is a :class:`~repro.net.fluid.FluidResult`, ``start_bytes``
    maps each of its flows to the bytes it had when the run began (its
    size, or what the pause left it), and ``paths`` and ``capacities`` are
    :func:`segment_violations`'.  A flow's timeline moved ``M = Σ
    rate·(end − start)/8`` bytes.  A completed flow moved all of its bytes
    and has none left — unless it moved nothing, having none to move or
    crossing no finite link; a stopped flow moved all but its
    ``remaining_bytes``; a pending one moved nothing.  So ``M + remaining``
    is ``start_bytes`` for every flow, within

        ``_BYTE_EPS + (n + 1)·(c·(_TIME_EPS + 2u·t)/8 + 2u·B)``,

    ``n`` the flow's segments, ``B`` its start bytes, ``c`` its narrowest
    link (no rate of it exceeds that), ``t`` its last segment's end and
    ``u = 2⁻⁵³``.  The engine drains a flow by one rounded subtraction per
    segment of the same products the check re-adds, so the two sums drift
    apart by at most ``u·B`` a segment each.  What the log cannot show is
    bounded by time: it drops intervals no longer than ``_TIME_EPS`` and
    merges equal rates across them, a flow retires up to ``_TIME_EPS``
    before its finish, and rounding a date moves it by ``u·t`` — at most
    ``c·(_TIME_EPS + 2u·t)/8`` bytes unseen per boundary, counting one
    dropped interval at each.  And a completed flow leaves up to
    ``_BYTE_EPS`` unmoved by design.
    """
    u = 2.0**-53
    problems: List[str] = []
    for flow_id, left in result.remaining_bytes.items():
        segments = result.timelines[flow_id].segments
        moved = sum(s.rate_bps * (s.end - s.start) / 8 for s in segments)
        state = result.states[flow_id].value
        if state == "completed":
            if not moved:
                continue  # it had no bytes to move, or moved them at rate inf
            if left != 0.0:
                problems.append(f"flow {flow_id!r}: completed with {left!r} bytes left")
        narrowest = min((capacities[link] for link in paths[flow_id]), default=math.inf)
        last = max((s.end for s in segments), default=0.0)
        bound = _BYTE_EPS + (len(segments) + 1) * (
            narrowest * (_TIME_EPS + 2 * u * abs(last)) / 8 + 2 * u * start_bytes[flow_id]
        )
        if not abs(moved + left - start_bytes[flow_id]) <= bound:
            problems.append(
                f"flow {flow_id!r} ({state}): moved {moved!r} bytes and has "
                f"{left!r} left of {start_bytes[flow_id]!r}"
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
    its capacity and 0) and ``level`` the least ``rem / cnt``; the round
    freezes the unfrozen flows of every link at ``level``.  A probe
    crossing links ``P`` freezes at the first round where its *offer*
    ``min over l in P of rem[l] / (cnt[l] + 1)`` is ``<= level`` — a last
    round at ``inf`` catches the rest — at its offer.  Why: until then
    every probe link's share, probe counted, is above ``level``, so no
    probe link is at the level; the fill of background + probe has the
    same level and the same links at it, freezes the same batch and drains
    the same ``k * level`` (an unfrozen probe drains nothing), which leaves
    ``rem`` / ``cnt`` those of the background-only fill.  At that round the
    least share of all is the offer, on a probe link, and every unfrozen
    flow on a link at it, the probe among them, freezes there.

    The arithmetic is :class:`~repro.net.alloc.IncrementalAllocator`'s, so
    the rates equal a solve of each problem bit for bit: ``rem / cnt`` with
    the probe counted, one round per level, the fused ``max(rem - k *
    level, 0)`` per drained link.  A round costs O(batch x path + links the
    background uses + unfrozen probes x path); nothing of size probes x
    links is built.
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

    # The background's state covers the links it uses only; ``members``
    # lists each of those links' flows, link after link.
    crossed = background >= 0
    used, at = np.unique(background[crossed], return_inverse=True)
    at_rows = np.zeros(background.shape, dtype=np.intp)
    at_rows[crossed] = at
    members = crossed.nonzero()[0][at.argsort(kind="stable")]
    sizes = np.bincount(at, minlength=used.shape[0])
    starts = sizes.cumsum() - sizes
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
        level = shares.min()
        if level == np.inf:
            break  # nothing finite constrains the flows that are left
        if waiting.shape[0]:
            best = offer[rows].min(axis=1)
            freeze = best <= level
            if freeze.any():
                rates[waiting[freeze]] = best[freeze]
                waiting = waiting[~freeze]
                rows = rows[~freeze]
        tied = (shares == level).nonzero()[0]
        batch = members[csr_gather(starts[tied], sizes[tied])]
        batch = batch[~frozen[batch]]
        if tied.shape[0] > 1:
            batch = _distinct(batch)
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


#: Relative slack of :func:`snapshot_violations`' two bounds: the fill's
#: drains round.
_SNAPSHOT_REL_TOL = 1e-12


def snapshot_violations(
    capacity: np.ndarray,
    background: np.ndarray,
    probes: np.ndarray,
    rates: np.ndarray,
) -> List[str]:
    """Ways the rates :func:`probe_rates_under_load` gives ``probes`` break
    the bounds of a probe joining the background (empty: none).

    The arrays are that function's.  Whatever the filling does, a probe
    gets at least an equal share of every link it crosses — the link's
    capacity over its background flows plus the probe — and at most its
    narrowest link, each with :data:`_SNAPSHOT_REL_TOL` of relative slack.
    With no background the fill has no round, and a probe gets exactly its
    narrowest link.
    """
    problems: List[str] = []
    load = np.bincount(background[background >= 0], minlength=capacity.shape[0])
    # A -1 padding entry reads the appended +inf.
    narrowest = np.append(capacity, np.inf)[probes].min(axis=1)
    fair = np.append(capacity / (load + 1.0), np.inf)[probes].min(axis=1)
    for i in np.flatnonzero(rates < fair * (1.0 - _SNAPSHOT_REL_TOL)).tolist():
        problems.append(
            f"probe {i}: rate {float(rates[i])!r} below the equal share "
            f"{float(fair[i])!r} of its links"
        )
    for i in np.flatnonzero(rates > narrowest * (1.0 + _SNAPSHOT_REL_TOL)).tolist():
        problems.append(
            f"probe {i}: rate {float(rates[i])!r} above its narrowest link "
            f"{float(narrowest[i])!r}"
        )
    if not background.shape[0]:
        for i in np.flatnonzero(rates != narrowest).tolist():
            problems.append(
                f"probe {i}: rate {float(rates[i])!r} with no background, not "
                f"its narrowest link {float(narrowest[i])!r}"
            )
    return problems
