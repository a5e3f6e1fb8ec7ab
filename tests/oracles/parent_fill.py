"""The vector water-filling of commit ``a8c945a`` — the oracle.

Until PR 19 this loop was ``IncrementalAllocator._solve_vector``: four
link vectors over the *whole* link universe, the surviving rounds of the
log replayed one Python iteration each (drain, then clamp, per round), and
every freeze batch gathered and histogrammed from the members of its
bottleneck link.  The allocator now keeps its link state over the links in
use only, applies the log prefix in one pass with one deferred clamp, and
reuses a per-link freeze-batch memo; this module keeps the old loop, moved
in verbatim, as the reference ``tests/test_alloc_resume.py`` holds it to —
slot rates *and* per-round levels, ``==``.

:class:`ParentFill` reads the allocator's registered flows (rows, caps,
membership, ``_link_use``) and nothing of its solve state: the round log,
the per-slot freeze rounds and the resume mark are its own, kept across
fills by the same rule the allocator follows — :meth:`removed` lowers the
mark to the earliest round that froze a removed slot, :meth:`added` sets it
to 0.  What was ``self.`` state is ``flows.`` or the oracle's own; the
``_members_np`` cache (invisible in the result) is rebuilt per fill.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

import numpy as np

_NEVER = np.iinfo(np.int64).max


class ParentFill:
    """One resumable fill state shadowing one live allocator."""

    def __init__(self) -> None:
        self.round_log: List[Tuple[float, np.ndarray, np.ndarray, int]] = []
        self.freeze_round = np.zeros(0, dtype=np.int64)
        self.slot_rate = np.zeros(0, dtype=np.float64)
        self.resume = 0

    def added(self) -> None:
        """A flow was registered: the next fill starts over."""
        self.resume = 0

    def removed(self, slots) -> None:
        """Call with the slots of flows about to be removed."""
        if self.resume:
            self.resume = min(
                self.resume, int(self.freeze_round[list(slots)].min())
            )

    def fill(self, flows) -> Tuple[np.ndarray, List[float]]:
        """Fill the flows registered in allocator ``flows``; returns the
        per-slot rates (owned by the oracle, like ``solve_slots``' vector)
        and the level of every round, replayed ones included."""
        n_slots = len(flows._slot_name)
        if self.freeze_round.shape[0] < n_slots:
            # Only an add grows the slot range, and an add voids the log.
            self.freeze_round = np.full(n_slots, _NEVER, dtype=np.int64)
            self.slot_rate = np.zeros(n_slots, dtype=np.float64)
        capacity_np = np.asarray(flows._capacity, dtype=np.float64)
        members_np = {}

        slot_rate = self.slot_rate
        for slot in flows._linkless:
            # Flows that traverse no links are only limited by their cap.
            cap = flows._slot_cap[slot]
            slot_rate[slot] = math.inf if cap is None else cap

        n_links = len(flows._capacity)
        counts = np.zeros(n_links, dtype=np.int64)
        n_used = len(flows._link_use)
        if n_used:
            used = np.fromiter(
                flows._link_use.keys(), dtype=np.intp, count=n_used
            )
            counts[used] = np.fromiter(
                flows._link_use.values(), dtype=np.int64, count=n_used
            )
        remaining = capacity_np.copy()
        shares = np.empty(n_links, dtype=np.float64)
        active = np.empty(n_links, dtype=bool)

        # Slots the replayed rounds froze keep their rate and stay frozen;
        # every other slot forgets the round that froze it last time.
        log = self.round_log
        mark = self.resume
        del log[mark:]
        freeze_round = self.freeze_round[:n_slots]
        frozen = freeze_round < mark
        freeze_round[~frozen] = _NEVER
        # Frozen slots at the top of the heap are popped lazily below, so
        # the heap is built from every routed capped slot, as from scratch.
        cap_heap: List[Tuple[float, int]] = [
            (flows._slot_cap[slot], slot)
            for slot in flows._capped
            if flows._slot_links[slot]
        ]
        heapq.heapify(cap_heap)

        inf = math.inf
        n_left = len(flows._flow_slot) - len(flows._linkless)
        rnd = 0
        while n_left:
            if rnd < mark:
                level, idx, k, n_batch = log[rnd]
            else:
                # Bottleneck search: equal share of every link still
                # carrying unfrozen flows, in one vector divide; links with
                # no unfrozen members are masked to +inf.
                np.greater(counts, 0, out=active)
                shares.fill(inf)
                np.divide(remaining, counts, out=shares, where=active)
                bottleneck_link = int(np.argmin(shares))
                bottleneck_share = float(shares[bottleneck_link])

                while cap_heap and frozen[cap_heap[0][1]]:
                    heapq.heappop(cap_heap)

                if cap_heap and cap_heap[0][0] <= bottleneck_share:
                    # A flow hits its own cap before any link saturates.
                    level, capped_slot = heapq.heappop(cap_heap)
                    batch = np.array([capped_slot], dtype=np.intp)
                elif bottleneck_share < inf:
                    level = bottleneck_share
                    mem = members_np.get(bottleneck_link)
                    if mem is None:
                        ms = flows._members[bottleneck_link]
                        mem = np.fromiter(ms, dtype=np.intp, count=len(ms))
                        members_np[bottleneck_link] = mem
                    batch = mem[~frozen[mem]]
                else:
                    # Unfrozen flows remain but nothing constrains them
                    # (rare: every remaining link has infinite headroom),
                    # so a Python sweep over the registry is fine here.
                    nlinks = flows._slot_nlinks
                    for slot in flows._flow_slot.values():
                        if nlinks[slot] and not frozen[slot]:
                            slot_rate[slot] = inf
                    break

                n_batch = int(batch.shape[0])
                frozen[batch] = True
                slot_rate[batch] = level
                freeze_round[batch] = rnd
                if n_batch == 1:
                    # The flow's own row, as a copy: the log must survive
                    # row-buffer compaction.
                    idx = flows._slot_row(batch[0]).copy()
                    k = np.ones(idx.shape[0], dtype=np.int64)
                else:
                    # Gather the batch's link rows from the flat CSR buffer
                    # in one fancy index (no per-slot Python loop) and
                    # histogram them into the links this round drains.
                    lens = flows._slot_nlinks[batch]
                    ends = np.cumsum(lens)
                    gather = np.repeat(
                        flows._row_start[batch] - (ends - lens), lens
                    )
                    gather += np.arange(int(ends[-1]))
                    occ = np.bincount(flows._row_data[gather], minlength=n_links)
                    # (nonzero of a bool mask is twice as fast as of int64)
                    idx = (occ > 0).nonzero()[0]
                    k = occ[idx]
                log.append((level, idx, k, n_batch))

            # Drain the round's links with the fused ``remaining - k*level``
            # clamp the scalar path computes — one expression for replayed
            # and computed rounds alike.  Links outside ``idx`` would see
            # ``remaining - 0*level``, which is exact, so the sparse drain
            # equals a drain over the full link vector.
            n_left -= n_batch
            counts[idx] -= k
            segment = remaining[idx] - k * level
            np.maximum(segment, 0.0, out=segment)
            remaining[idx] = segment
            rnd += 1

        self.resume = len(log)
        return slot_rate, [entry[0] for entry in log]
