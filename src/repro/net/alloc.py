"""Indexed, incremental max-min fair allocation engine.

:func:`repro.net.fairness.max_min_allocation` is the reference
progressive-filling implementation: it receives plain string-keyed mappings,
rebuilds its ``link -> members`` index on every call, and intersects member
sets against the unfrozen set at every water-filling step.  That is fine for
a one-off allocation, but the fluid simulator re-solves after *every* event
(a flow starting, finishing, or being switched off), so almost all of that
work is repeated with a nearly identical flow set.

:class:`IncrementalAllocator` keeps the state the solver needs *between*
solves:

* link ids and flow ids are interned to dense integer slots once;
* per-link member sets, member counts, and capacities live in flat lists
  indexed by those slots;
* :meth:`add_flow` / :meth:`remove_flow` apply deltas in O(path length);
  :meth:`add_flows` / :meth:`remove_flows` apply the same deltas for a
  whole batch of flows grouped by link — one set update, one count
  adjustment and one dirty mark per touched link — and leave exactly the
  state the per-flow calls would (slot numbers, free list, rates);
* :meth:`solve` runs progressive filling over integer indices (counters
  instead of set intersections, a lazy heap for flow caps) and caches its
  result until the flow set changes again.

The solver performs the *same* floating-point operations in the same
per-flow order as the reference implementation, so its rates are
bit-identical on any instance where the reference's own (set-iteration-
order-dependent) tie-breaks do not matter — ``tests/test_hotpath.py``
checks agreement within 1e-9 on randomized instances.

Above a size threshold (``_VECTOR_MIN_FLOWS`` flows and
``_VECTOR_MIN_LINKS`` links) :meth:`solve`
switches to an **array-backed water-filling path**: remaining headroom
and unfrozen-member counts live in NumPy vectors over the links in use
(ascending by interned link slot; idle links never enter a round), each
flow's path is a cached int index array (the rows of a CSR-style
flow×link incidence), and the per-round bottleneck search becomes one
masked divide plus ``argmin``.
Because ``argmin`` breaks ties on the lowest index — exactly the
``(value, index)`` order of the scalar path's heaps — and the freeze
step performs the same subtract-then-clamp in the same dtype and
per-link order, the vector path is bit-identical to the scalar path
(and hence to the reference, with the caveat above).  Paths that repeat
a link fall back to the scalar solver, which handles them exactly.

Four further mechanisms keep event-loop re-solves cheap at scale:

* **Slot-rate output** — solves write per-slot rates into a flat float64
  vector; :meth:`solve_slots` hands that vector to array-based callers
  (the vectorised fluid loop) with no per-flow dict in sight, while
  :meth:`solve` builds the string-keyed mapping lazily on demand.
* **Partial re-solves** — progressive filling decomposes over connected
  components of the flow↔link sharing graph: a flow's rate depends only
  on flows it (transitively) shares links with.  After an edit, solve
  walks that graph outward from the edited links; when the affected
  closure is small (:func:`_partial_limit`: a minority of the flow set
  and at most 1 024 slots, up to where a restricted scalar solve at
  ≈1.5 µs per slot still beats a full solve of disjoint components),
  only the closure is re-solved and every other slot keeps its previous
  (bit-identical) rate.
  A retirement in one rack of a tree topology therefore re-solves one
  rack, not the datacenter.  The walk gives up as soon as the links it
  has discovered prove the closure too big — on one giant component that
  is a rack or aggregation link a few steps from the edit.
* **Resumable water-filling** — a full vector solve logs its rounds
  (level, drained links, drains, batch, and per slot the round that froze
  it).  Removing a flow leaves every round before the one that froze it
  exactly as it was, so the next full vector solve applies those rounds'
  drains from the log in one ordered scatter — no bottleneck search, no
  Python iteration per round — and computes only the rest.
* **Freeze-batch memo** — the rounds after that point get new *levels*,
  but mostly freeze the *batches* they froze last time.  Per bottleneck
  link the last batch and its link histogram are kept, and reused when an
  exact O(batch) test says the batch is the same set of flows; removing a
  flow drops the entries of the links it crossed.  See
  :meth:`IncrementalAllocator._solve_vector` for why each reuse is exact
  and what invalidates it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.net.fairness import FlowDemand

__all__ = ["IncrementalAllocator"]

#: Allocator modes accepted by :class:`IncrementalAllocator`.
_MODES = ("auto", "scalar", "vector")

# Instance sizes below which the vectorised solve is not worth its NumPy
# dispatch overhead.  Both must be met for ``mode="auto"`` to vectorise:
# small-but-wide or tall-but-narrow instances stay on the scalar path.
_VECTOR_MIN_FLOWS = 256
_VECTOR_MIN_LINKS = 256

# ``_freeze_round`` value of a slot no logged round froze.
_NEVER = np.iinfo(np.int64).max


# Batches shorter than this are edited flow by flow.  Adding and removing k
# flows of a pod-local mesh (rows of 2–4 links, 20 000 flows registered,
# 2-core reference host) costs ≈3.5–4 µs per flow through add_flow and
# remove_flow, and ≈60 µs + 2.6 µs per flow batched (the stable sort by
# link and the group cuts are the fixed part): k = 32 reads 120 against
# 140 µs, k = 64 217 against 208, k = 256 943 against 639.  Both leave the
# same state, so this is policy, not semantics.
_BATCH_MIN = 64


def csr_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of CSR rows ``[starts[i], starts[i] + lengths[i])``,
    laid end to end in row order."""
    ends = lengths.cumsum()
    gather = (starts - (ends - lengths)).repeat(lengths)
    gather += np.arange(int(ends[-1]) if ends.shape[0] else 0)
    return gather


def _group_by_link(links: np.ndarray):
    """Incidences stable-sorted by link, cut into one group per link.

    Returns ``(by_link, links_sorted, touched, group_start, group_end)``:
    ``links[by_link]`` is ``links_sorted``, and group ``g`` — the
    incidences of link ``touched[g]``, in their original order — is
    ``by_link[group_start[g] : group_end[g]]``.
    """
    by_link = np.argsort(links, kind="stable")
    links_sorted = links[by_link]
    cuts = np.flatnonzero(links_sorted[1:] != links_sorted[:-1]) + 1
    group_start = np.concatenate(([0], cuts))
    group_end = np.concatenate((cuts, [links.shape[0]]))
    return by_link, links_sorted, links_sorted[group_start], group_start, group_end


def _partial_limit(n_flows: int) -> int:
    """Largest dirty closure (in slots) worth a restricted scalar solve.

    Two measurements set it (``benchmark/run.py`` workloads and disjoint
    rack-local full meshes, 2-core reference host).  *The cap:* a restricted
    scalar solve costs ≈1.5 µs per closure slot, walk included; a resumed
    full vector solve ≈0.25 ms at 2 100 live flows and ≈1.3 ms at 92 000
    (0.6 and 2.6 ms before the freeze-batch memo), which crosses it at
    ≈170–870 slots.  But closures that size only occur where components
    are disjoint, and there a full solve refills every component from
    round 0: on 8 racks × 32 hosts (closure 992 of 7 936 flows) a cap of
    512 costs 3.2 ms per event against 0.93, on 4 racks × 24 hosts 1.1–1.4×
    more — so 1 024 stays.  *The share:* below the cap a closure that is a
    minority of the flow set still wins — on 4 racks × 24 hosts (closure
    552 of 2 208 flows) the fluid run takes 1.4 s with partial solves and
    3.5 s without, and ``n // 8`` in place of ``n // 2`` loses 4× on
    8 racks × 16 hosts — because the full solve re-solves every other
    component too.  Both solves produce bit-identical rates, so this is
    policy, not semantics.  (The cap was 8 192 when a full solve cost 17 ms.)
    """
    return max(64, min(n_flows // 2, 1024))


class IncrementalAllocator:
    """Max-min fair allocator with O(path) flow add/remove deltas.

    Args:
        capacities: mapping of link id to capacity in bits/second.  The link
            universe is fixed at construction; flows may only reference these
            links.
        mode: ``"auto"`` (default) picks the array-backed solve at or above
            ``_VECTOR_MIN_FLOWS`` routed flows *and* ``_VECTOR_MIN_LINKS``
            links, ``"scalar"`` always runs
            the heap-based solve, ``"vector"`` always runs the array-backed
            one.  All three produce bit-identical rates; flows whose path
            repeats a link force the scalar solve regardless of mode.
    """

    def __init__(
        self, capacities: Mapping[str, float], mode: str = "auto"
    ) -> None:
        if mode not in _MODES:
            raise SimulationError(
                f"unknown allocator mode {mode!r}; expected one of {_MODES}"
            )
        self._mode = mode
        self._link_ids: List[str] = []
        self._link_index: Dict[str, int] = {}
        self._capacity: List[float] = []
        for link_id, cap in capacities.items():
            self._link_index[link_id] = len(self._link_ids)
            self._link_ids.append(link_id)
            self._capacity.append(float(cap))
        # Capacity vector for the array-backed solve and its link → position
        # table (the links in use, ascending, are positions 0..n-1 of a
        # solve's working vectors), built on first use so scalar-only
        # allocators pay nothing.
        self._capacity_np: Optional[np.ndarray] = None
        self._link_pos: Optional[np.ndarray] = None
        # Flow slots: a free-list keeps slot indices dense under churn.
        self._flow_slot: Dict[str, int] = {}
        self._slot_name: List[str] = []
        self._slot_links: List[Tuple[int, ...]] = []  # with duplicates, if any
        self._slot_unique_links: List[Tuple[int, ...]] = []
        # Flat CSR buffer of every slot's link row: slot ``s`` occupies
        # ``_row_data[_row_start[s] : _row_start[s] + _slot_nlinks[s]]``.
        # Rows are append-only; removing a flow orphans its segment, and the
        # buffer is compacted (vectorised) when orphans dominate.  This lets
        # the vector solve gather a whole freeze batch's links with one
        # fancy index instead of a per-slot Python loop.
        self._row_data = np.zeros(0, dtype=np.intp)
        self._row_start = np.zeros(0, dtype=np.int64)
        self._row_used = 0  # high-water mark of _row_data
        self._row_live = 0  # entries belonging to registered flows
        self._slot_cap: List[Optional[float]] = []
        self._free_slots: List[int] = []
        # Per-link membership (flow slots currently crossing the link) and a
        # refcount of links in use, so solves touch only occupied links.
        self._members: List[Set[int]] = [set() for _ in self._link_ids]
        self._link_use: Dict[int, int] = {}
        # Per bottleneck link, the last batch the vector solve froze there
        # and its link histogram ``(batch, idx, k)``; dropped whenever a flow
        # crossing the link is removed (see _solve_vector).
        self._batch_memo: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Slots of live capped flows, slots of live linkless flows, and each
        # slot's path length, so the vector solve can build its working sets
        # without a Python sweep over every registered flow.
        self._capped: Set[int] = set()
        self._linkless: Set[int] = set()
        self._slot_nlinks = np.zeros(0, dtype=np.int64)
        # Longest path registered since the last clear() (never lowered on
        # removal: _dirty_closure only needs an upper bound).
        self._max_row = 0
        # Flows whose path repeats a link break the share-heap monotonicity
        # (freezing subtracts the level once per occurrence, so a share can
        # shrink); while any such flow is registered, solve() selects
        # bottlenecks by linear scan instead.
        self._dup_link_flows = 0
        # Per-slot solved rates; solve() derives its dict from this lazily.
        self._slot_rate = np.zeros(0, dtype=np.float64)
        self._solved = False
        self._solution: Optional[Dict[str, float]] = None
        # True once any solve has populated _slot_rate: from then on edits
        # are tracked so the next solve can be partial.
        self._have_rates = False
        self._dirty_links: Set[int] = set()
        self._dirty_linkless: Set[int] = set()
        # Typed solve counters (thin-viewed by :meth:`solver_stats` and
        # aggregated process-wide by ``obs.metrics.snapshot()``).
        self._full_solves = obs.Counter("repro.alloc.full_solves")
        self._partial_solves = obs.Counter("repro.alloc.partial_solves")
        self._partial_slots = obs.Counter("repro.alloc.partial_slots")
        self._rounds = obs.Counter("repro.alloc.rounds")
        self._rounds_replayed = obs.Counter("repro.alloc.rounds_replayed")
        self._rounds_memoised = obs.Counter("repro.alloc.rounds_memoised")
        # Round log of the last full vector solve, one entry per
        # water-filling round: its level, the links it drained as a sparse
        # ``(idx, k)`` pair, the drain ``k*level``, and its batch size;
        # ``_freeze_round[slot]`` is the round that froze the slot
        # (``_NEVER`` if none did).  Rounds ``< _resume`` are the ones a
        # from-scratch solve of the *current* flow set would repeat bit for
        # bit, so the next vector solve replays them from the log instead
        # of searching for them again; ``_resume == 0`` means "from
        # scratch" and is how everything but a removal invalidates the log.
        self._round_log: List[
            Tuple[float, np.ndarray, np.ndarray, np.ndarray, int]
        ] = []
        self._freeze_round = np.zeros(0, dtype=np.int64)
        self._resume = 0

    # ----------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._flow_slot)

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._flow_slot

    def flow_ids(self) -> List[str]:
        """Ids of the flows currently registered."""
        return list(self._flow_slot)

    # ------------------------------------------------------------- mutation
    def add_flow(
        self,
        flow_id: str,
        links: Sequence[str],
        max_rate: Optional[float] = None,
    ) -> int:
        """Register a flow crossing ``links`` with an optional rate cap.

        Returns the flow's slot index — an index into the vector
        :meth:`solve_slots` returns, valid until the flow is removed.

        Raises:
            SimulationError: on duplicate flow ids or unknown links.
        """
        if flow_id in self._flow_slot:
            raise SimulationError(f"duplicate flow id {flow_id!r}")
        indexed: List[int] = []
        for link_id in links:
            index = self._link_index.get(link_id)
            if index is None:
                raise SimulationError(
                    f"flow {flow_id!r} references unknown link {link_id!r}"
                )
            indexed.append(index)
        return self._add_row(flow_id, indexed, max_rate)

    def _add_row(
        self, flow_id: str, indexed: List[int], max_rate: Optional[float]
    ) -> int:
        """:meth:`add_flow` for a validated flow whose links are interned."""
        link_tuple = tuple(indexed)
        # The reference subtracts the frozen level once per *occurrence* but
        # counts each flow once per link, so keep both views when a path
        # repeats a link (it normally never does).
        unique = (
            link_tuple
            if len(set(link_tuple)) == len(link_tuple)
            else tuple(dict.fromkeys(link_tuple))
        )
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slot_name[slot] = flow_id
            self._slot_links[slot] = link_tuple
            self._slot_unique_links[slot] = unique
            self._slot_cap[slot] = max_rate
        else:
            slot = len(self._slot_name)
            self._slot_name.append(flow_id)
            self._slot_links.append(link_tuple)
            self._slot_unique_links.append(unique)
            self._slot_cap.append(max_rate)
            self._grow_slot_arrays(slot + 1)
        # Write the row before registering the flow: a compaction triggered
        # by the capacity check must only see fully-recorded rows.
        n_row = len(link_tuple)
        if n_row:
            self._ensure_row_capacity(n_row)
            self._row_data[self._row_used : self._row_used + n_row] = indexed
            self._row_start[slot] = self._row_used
            self._row_used += n_row
            self._row_live += n_row
        else:
            self._row_start[slot] = self._row_used
        self._slot_nlinks[slot] = n_row
        if n_row > self._max_row:
            self._max_row = n_row
        self._flow_slot[flow_id] = slot
        if max_rate is not None:
            self._capped.add(slot)
        if not n_row:
            self._linkless.add(slot)
        if unique is not link_tuple:
            self._dup_link_flows += 1
        for index in unique:
            self._members[index].add(slot)
            self._link_use[index] = self._link_use.get(index, 0) + 1
        if self._have_rates:
            if unique:
                self._dirty_links.update(unique)
            else:
                self._dirty_linkless.add(slot)
        # A new flow can lower shares in any round: the next fill starts over.
        self._resume = 0
        self._solved = False
        self._solution = None
        return slot

    def _grow_slot_arrays(self, n_slots: int) -> None:
        """Make the per-slot arrays hold ``n_slots`` slots (by doubling)."""
        size = self._slot_rate.shape[0]
        if n_slots <= size:
            return
        while size < n_slots:
            size = max(16, 2 * size)
        grown = np.zeros(size, dtype=np.float64)
        grown[: self._slot_rate.shape[0]] = self._slot_rate
        self._slot_rate = grown
        grown_n = np.zeros(size, dtype=np.int64)
        grown_n[: self._slot_nlinks.shape[0]] = self._slot_nlinks
        self._slot_nlinks = grown_n
        grown_s = np.zeros(size, dtype=np.int64)
        grown_s[: self._row_start.shape[0]] = self._row_start
        self._row_start = grown_s
        # Only an add grows the arrays, and an add voids the round log, so
        # there is nothing to carry over.
        self._freeze_round = np.full(size, _NEVER, dtype=np.int64)

    def add_flows(
        self,
        flow_ids: Sequence[str],
        rows: np.ndarray,
        lengths: np.ndarray,
        max_rates: Sequence[Optional[float]],
    ) -> np.ndarray:
        """Register a batch of flows given as link-index rows.

        ``rows`` holds the flows' rows laid end to end — indices into the
        link universe in the order of the ``capacities`` mapping —
        ``lengths[i]`` links for flow ``i``.  Returns the flows' slots.  The
        allocator ends up in exactly the state ``add_flow`` called on each
        flow in turn would leave: same slots (free list last-in-first-out,
        then fresh ones), same membership, same rates at the next solve.

        Raises:
            SimulationError: on duplicate flow ids or link indices outside
                the universe; nothing is registered in that case.
        """
        n = len(flow_ids)
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.asarray(lengths, dtype=np.int64)
        flat = rows.tolist()
        total = len(flat)
        ends = list(itertools.accumulate(lengths.tolist()))
        spans = list(zip([0] + ends, ends))
        if len(ends) != n or len(max_rates) != n or (ends[-1] if n else 0) != total:
            raise SimulationError("flow batch columns disagree in length")
        registered = self._flow_slot
        batch_ids = set()
        for flow_id in flow_ids:
            if flow_id in registered or flow_id in batch_ids:
                raise SimulationError(f"duplicate flow id {flow_id!r}")
            batch_ids.add(flow_id)
        # (A small batch stays clear of NumPy: called once per fluid event,
        # its fixed costs are the whole cost.)
        batched = n >= _BATCH_MIN
        if total:
            low, high = (rows.min(), rows.max()) if batched else (min(flat), max(flat))
            if low < 0 or high >= len(self._link_ids):
                raise SimulationError("flow batch references an unknown link index")
        if batched and total:
            by_link, links_sorted, touched, group_start, group_end = (
                _group_by_link(rows)
            )
            owner_sorted = np.repeat(np.arange(n), lengths)[by_link]
            batched = not np.any(
                (links_sorted[1:] == links_sorted[:-1])
                & (owner_sorted[1:] == owner_sorted[:-1])
            )
        if not batched:
            # Small batches are cheaper flow by flow (see _BATCH_MIN), and a
            # row that repeats a link needs add_flow's two views of it (and
            # forces the scalar solver anyway): the per-flow edit, exactly.
            return np.array(
                [
                    self._add_row(flow_id, flat[a:b], cap)
                    for flow_id, (a, b), cap in zip(flow_ids, spans, max_rates)
                ],
                dtype=np.intp,
            )

        # Slots, in add_flow's order: the free list from its tail, then fresh.
        n_reused = min(n, len(self._free_slots))
        slot_list = self._free_slots[len(self._free_slots) - n_reused :][::-1]
        del self._free_slots[len(self._free_slots) - n_reused :]
        first_fresh = len(self._slot_name)
        slot_list.extend(range(first_fresh, first_fresh + n - n_reused))
        slots = np.array(slot_list, dtype=np.intp)
        tuples = [tuple(flat[a:b]) for a, b in spans]
        for slot, flow_id, link_tuple, cap in zip(
            slot_list[:n_reused], flow_ids, tuples, max_rates
        ):
            self._slot_name[slot] = flow_id
            self._slot_links[slot] = link_tuple
            self._slot_unique_links[slot] = link_tuple
            self._slot_cap[slot] = cap
        self._slot_name.extend(flow_ids[n_reused:])
        self._slot_links.extend(tuples[n_reused:])
        self._slot_unique_links.extend(tuples[n_reused:])
        self._slot_cap.extend(max_rates[n_reused:])
        self._grow_slot_arrays(len(self._slot_name))
        # The CSR block is one slice write.  Room is made before any flow of
        # the batch is registered: a compaction must only see recorded rows.
        if total:
            self._ensure_row_capacity(total)
            self._row_data[self._row_used : self._row_used + total] = rows
        self._row_start[slots] = self._row_used + np.cumsum(lengths) - lengths
        self._row_used += total
        self._row_live += total
        self._slot_nlinks[slots] = lengths
        self._max_row = max(self._max_row, int(lengths.max()))
        self._flow_slot.update(zip(flow_ids, slot_list))
        self._capped.update(
            slot for slot, cap in zip(slot_list, max_rates) if cap is not None
        )
        linkless = slots[lengths == 0].tolist()
        self._linkless.update(linkless)
        if total:
            # Links in the order add_flow would first touch them, so that
            # _link_use (whose order breaks the scalar scan's ties) gains
            # its new keys in the same order.
            first_touch = np.argsort(by_link[group_start])
            slot_sorted = slots[owner_sorted].tolist()
            link_use = self._link_use
            for link, a, b in zip(
                touched[first_touch].tolist(),
                group_start[first_touch].tolist(),
                group_end[first_touch].tolist(),
            ):
                self._members[link].update(slot_sorted[a:b])
                link_use[link] = link_use.get(link, 0) + (b - a)
            if self._have_rates:
                self._dirty_links.update(touched.tolist())
        if self._have_rates:
            self._dirty_linkless.update(linkless)
        # A new flow can lower shares in any round: the next fill starts over.
        self._resume = 0
        self._solved = False
        self._solution = None
        return slots

    def add_demand(self, flow_id: str, demand: FlowDemand) -> int:
        """Register a flow from a :class:`~repro.net.fairness.FlowDemand`."""
        return self.add_flow(flow_id, demand.links, demand.max_rate)

    def remove_flow(self, flow_id: str) -> None:
        """Forget a flow previously registered with :meth:`add_flow`."""
        slot = self._flow_slot.pop(flow_id, None)
        if slot is None:
            raise SimulationError(f"unknown flow {flow_id!r}")
        if self._slot_unique_links[slot] is not self._slot_links[slot]:
            self._dup_link_flows -= 1
        for index in self._slot_unique_links[slot]:
            self._members[index].discard(slot)
            self._batch_memo.pop(index, None)
            left = self._link_use[index] - 1
            if left:
                self._link_use[index] = left
            else:
                del self._link_use[index]
        if self._have_rates:
            self._dirty_links.update(self._slot_unique_links[slot])
            self._dirty_linkless.discard(slot)
        # Rounds before the one that froze this flow never had it as their
        # bottleneck, so they survive its removal (see _solve_vector).
        if self._resume:
            self._resume = min(self._resume, int(self._freeze_round[slot]))
        self._slot_name[slot] = ""
        self._slot_links[slot] = ()
        self._slot_unique_links[slot] = ()
        self._slot_cap[slot] = None
        self._row_live -= int(self._slot_nlinks[slot])
        self._slot_nlinks[slot] = 0
        self._capped.discard(slot)
        self._linkless.discard(slot)
        self._free_slots.append(slot)
        self._solved = False
        self._solution = None

    def remove_flows(self, flow_ids: Sequence[str]) -> None:
        """Forget a batch of flows; the state ``remove_flow`` called on each
        in turn would leave (freed slots join the free list in batch order).

        Raises:
            SimulationError: on an unknown (or repeated) flow id; nothing is
                removed in that case.
        """
        flow_slot = self._flow_slot
        if len(set(flow_ids)) != len(flow_ids):
            raise SimulationError("a flow id is repeated in the batch")
        for flow_id in flow_ids:
            if flow_id not in flow_slot:
                raise SimulationError(f"unknown flow {flow_id!r}")
        if len(flow_ids) < _BATCH_MIN or self._dup_link_flows:
            # Cheaper flow by flow (see _BATCH_MIN); and remove_flow knows
            # both views of a row that repeats a link.
            for flow_id in flow_ids:
                self.remove_flow(flow_id)
            return
        slot_list = [flow_slot.pop(flow_id) for flow_id in flow_ids]
        slots = np.array(slot_list, dtype=np.intp)
        lengths = self._slot_nlinks[slots]
        total = int(lengths.sum())
        if total:
            links = self._row_data[csr_gather(self._row_start[slots], lengths)]
            by_link, _, touched, group_start, group_end = _group_by_link(links)
            slot_sorted = np.repeat(slots, lengths)[by_link].tolist()
            link_use = self._link_use
            for link, a, b in zip(
                touched.tolist(), group_start.tolist(), group_end.tolist()
            ):
                self._members[link].difference_update(slot_sorted[a:b])
                self._batch_memo.pop(link, None)
                left = link_use[link] - (b - a)
                if left:
                    link_use[link] = left
                else:
                    del link_use[link]
            if self._have_rates:
                self._dirty_links.update(touched.tolist())
        if self._have_rates:
            self._dirty_linkless.difference_update(slot_list)
        # Rounds before the first that froze any of these flows never had
        # one of them as their bottleneck, so they survive the removal.
        if self._resume:
            self._resume = min(self._resume, int(self._freeze_round[slots].min()))
        for slot in slot_list:
            self._slot_name[slot] = ""
            self._slot_links[slot] = ()
            self._slot_unique_links[slot] = ()
            self._slot_cap[slot] = None
        self._row_live -= total
        self._slot_nlinks[slots] = 0
        self._capped.difference_update(slot_list)
        self._linkless.difference_update(slot_list)
        self._free_slots.extend(slot_list)
        self._solved = False
        self._solution = None

    def clear(self) -> None:
        """Remove every flow (capacities are kept)."""
        self._flow_slot.clear()
        self._slot_name.clear()
        self._slot_links.clear()
        self._slot_unique_links.clear()
        self._slot_cap.clear()
        self._row_data = np.zeros(0, dtype=np.intp)
        self._row_start = np.zeros(0, dtype=np.int64)
        self._row_used = 0
        self._row_live = 0
        self._free_slots.clear()
        for members in self._members:
            members.clear()
        self._link_use.clear()
        self._batch_memo.clear()
        self._capped.clear()
        self._linkless.clear()
        self._slot_nlinks = np.zeros(0, dtype=np.int64)
        self._max_row = 0
        self._dup_link_flows = 0
        self._slot_rate = np.zeros(0, dtype=np.float64)
        self._solved = False
        self._solution = None
        self._have_rates = False
        self._dirty_links.clear()
        self._dirty_linkless.clear()
        self._round_log.clear()
        self._freeze_round = np.zeros(0, dtype=np.int64)
        self._resume = 0

    # --------------------------------------------------------------- solve
    @property
    def mode(self) -> str:
        """The allocator's configured mode (``auto``/``scalar``/``vector``)."""
        return self._mode

    def uses_vector_path(self) -> bool:
        """Whether the next :meth:`solve` will take the array-backed path."""
        if self._dup_link_flows:
            # The scalar solver is the only one that models a path crossing
            # the same link twice (one count, two capacity drains).
            return False
        if self._mode == "scalar":
            return False
        if self._mode == "vector":
            return True
        return (
            len(self._flow_slot) >= _VECTOR_MIN_FLOWS
            and len(self._link_ids) >= _VECTOR_MIN_LINKS
        )

    def solve(self) -> Dict[str, float]:
        """Max-min fair rates for the registered flows (cached between edits).

        Returns the same mapping a reference
        :func:`~repro.net.fairness.max_min_allocation` call over the current
        flow set would; callers must treat it as read-only.  The scalar and
        array-backed paths produce bit-identical mappings, so which one ran
        is unobservable from the result.
        """
        self._ensure_solved()
        if self._solution is None:
            n = len(self._flow_slot)
            slots = np.fromiter(self._flow_slot.values(), dtype=np.intp, count=n)
            self._solution = dict(
                zip(self._flow_slot.keys(), self._slot_rate[slots].tolist())
            )
        return self._solution

    def solve_slots(self) -> np.ndarray:
        """Solve and return the per-slot rate vector (no dict is built).

        ``result[slot]`` is the rate of the flow whose :meth:`add_flow`
        returned ``slot``.  The array is owned by the allocator: treat it as
        read-only, and re-fetch (or copy what you need) after any edit.
        Entries for freed slots are stale.
        """
        self._ensure_solved()
        return self._slot_rate

    def solver_stats(self) -> Dict[str, int]:
        """Counters: full solves, partial solves, slots re-solved partially,
        and the water-filling rounds of the full vector solves — all of
        them (``rounds``), those replayed from the round log instead of
        searched for again (``rounds_replayed``), and the searched ones whose
        freeze batch came from the per-link memo (``rounds_memoised``).

        A thin view over this instance's :class:`repro.obs.Counter`
        instruments (the process-wide aggregate across allocators lives
        in ``obs.metrics.snapshot()`` under ``repro.alloc.*``).
        """
        return {
            "full_solves": self._full_solves.count,
            "partial_solves": self._partial_solves.count,
            "partial_slots": self._partial_slots.count,
            "rounds": self._rounds.count,
            "rounds_replayed": self._rounds_replayed.count,
            "rounds_memoised": self._rounds_memoised.count,
        }

    def _ensure_solved(self) -> None:
        """Run a (possibly partial) solve so ``_slot_rate`` is current."""
        if self._solved:
            return
        # Partial re-solve: progressive filling decomposes over connected
        # components of the flow↔link sharing graph, so flows outside the
        # transitive closure of the edited links keep their previous rates
        # bit-for-bit.  Duplicate-link paths void the closure's heap-order
        # determinism, so they always take the full solve.
        partial = None
        if self._have_rates and not self._dup_link_flows:
            partial = self._dirty_closure()
        if partial is not None:
            for slot in self._dirty_linkless:
                cap = self._slot_cap[slot]
                self._slot_rate[slot] = math.inf if cap is None else cap
            if partial:
                self._solve_scalar(restrict=partial)
                self._resume = 0
            self._partial_solves.inc()
            self._partial_slots.inc(len(partial))
        else:
            # Full solves are rare and expensive enough to trace; partial
            # re-solves run once per fluid event and get counters only.
            vectorised = self.uses_vector_path()
            with obs.span(
                "alloc.solve",
                mode="vector" if vectorised else "scalar",
                flows=len(self._flow_slot),
                links=len(self._link_ids),
            ) as span:
                if vectorised:
                    resumed_from = self._resume
                    memoised = self._solve_vector()
                    span.set(
                        rounds=len(self._round_log),
                        resumed_from=resumed_from,
                        memoised=memoised,
                    )
                else:
                    self._solve_scalar()
                    self._resume = 0
            self._full_solves.inc()
        self._dirty_links.clear()
        self._dirty_linkless.clear()
        self._solved = True
        self._have_rates = True

    def _dirty_closure(self) -> Optional[Set[int]]:
        """Flow slots transitively sharing links with the edited links.

        Returns None when a partial re-solve would not pay — the closure
        holds more than ``_partial_limit`` slots — otherwise the set of
        affected slots (possibly empty).  The walk does not collect that
        many slots to find out.  Each link is tested the moment the walk
        *discovers* it: one link with more members than the limit already
        proves the closure too big, and so do discovered member sets that
        total more than ``limit × longest path`` (a slot is in at most
        that many of them).  On a tree, where nearly every flow crosses a
        rack or aggregation link, a giant component is recognised after
        O(path) steps; a giant component of thin links (a shuffle between
        hosts) after visiting a few dozen slots.
        """
        if not self._dirty_links:
            return set()
        limit = _partial_limit(len(self._flow_slot))
        budget = limit * self._max_row
        members = self._members
        slot_unique = self._slot_unique_links
        seen_links: Set[int] = set()
        seen_slots: Set[int] = set()
        stack: List[int] = []  # discovered links, members not yet visited

        def discover(links) -> bool:
            nonlocal budget
            for link in links:
                if link not in seen_links:
                    n_members = len(members[link])
                    budget -= n_members
                    if n_members > limit or budget < 0:
                        return False
                    seen_links.add(link)
                    stack.append(link)
            return True

        if not discover(self._dirty_links):
            return None
        while stack:
            for slot in members[stack.pop()]:
                if slot not in seen_slots:
                    seen_slots.add(slot)
                    if len(seen_slots) > limit or not discover(slot_unique[slot]):
                        return None
        return seen_slots

    def _solve_scalar(self, restrict: Optional[Set[int]] = None) -> None:
        """Heap-based progressive filling over interned int slots.

        With ``restrict``, only those slots (a transitively closed set: no
        member shares a link with a slot outside it) are re-solved; their
        links' counts are rebuilt from the restricted membership, which by
        closedness equals the global counts on those links.
        """
        slot_rate = self._slot_rate
        unfrozen: List[int] = []
        for slot in (
            self._flow_slot.values() if restrict is None else restrict
        ):
            if self._slot_links[slot]:
                unfrozen.append(slot)
            else:
                # Flows that traverse no links are only limited by their cap.
                cap = self._slot_cap[slot]
                slot_rate[slot] = math.inf if cap is None else cap

        # Working copies for only the links currently in play.
        capacity = self._capacity
        if restrict is None:
            counts: Dict[int, int] = dict(self._link_use)
        else:
            counts = {}
            for slot in unfrozen:
                for index in self._slot_unique_links[slot]:
                    counts[index] = counts.get(index, 0) + 1
        remaining: Dict[int, float] = {
            index: capacity[index] for index in counts
        }

        frozen = bytearray(len(self._slot_name))
        cap_heap: List[Tuple[float, int]] = [
            (self._slot_cap[slot], slot)
            for slot in unfrozen
            if self._slot_cap[slot] is not None
        ]
        heapq.heapify(cap_heap)
        # Lazy heap of per-link equal shares.  During progressive filling a
        # link's share never decreases (each frozen flow removes at most one
        # share's worth of capacity and one member), so stale entries are
        # safe: they pop early, get corrected in place, and re-sift.  A flow
        # that crosses the same link twice voids that invariant (freezing it
        # drains two shares from one member), so fall back to scanning.
        use_share_heap = self._dup_link_flows == 0
        share_heap: List[Tuple[float, int]] = []
        if use_share_heap:
            share_heap = [
                (remaining[index] / count, index)
                for index, count in counts.items()
            ]
            heapq.heapify(share_heap)

        slot_links = self._slot_links
        slot_unique = self._slot_unique_links
        n_left = len(unfrozen)
        while n_left:
            # The next "water level" is the smallest of: the equal share on
            # any link carrying unfrozen flows, and the smallest unfrozen cap.
            bottleneck_share = math.inf
            bottleneck_link = -1
            if use_share_heap:
                while share_heap:
                    share, index = share_heap[0]
                    count = counts[index]
                    if count <= 0:
                        heapq.heappop(share_heap)
                        continue
                    current = remaining[index] / count
                    if current > share:  # stale entry: correct and re-sift
                        heapq.heapreplace(share_heap, (current, index))
                        continue
                    bottleneck_share = current
                    bottleneck_link = index
                    break
            else:
                for index, count in counts.items():
                    if count <= 0:
                        continue
                    share = remaining[index] / count
                    if share < bottleneck_share:
                        bottleneck_share = share
                        bottleneck_link = index

            while cap_heap and frozen[cap_heap[0][1]]:
                heapq.heappop(cap_heap)

            if cap_heap and cap_heap[0][0] <= bottleneck_share:
                # A flow hits its own cap before any link saturates.
                level, capped_slot = heapq.heappop(cap_heap)
                to_freeze = [capped_slot]
            elif bottleneck_link >= 0:
                if use_share_heap:
                    # Freezing drains the bottleneck link, so drop its entry.
                    heapq.heappop(share_heap)
                level = bottleneck_share
                to_freeze = [
                    slot
                    for slot in self._members[bottleneck_link]
                    if not frozen[slot]
                ]
            else:
                # Unfrozen flows remain but nothing constrains them.
                for slot in unfrozen:
                    if not frozen[slot]:
                        slot_rate[slot] = math.inf
                break

            # Count the round's occurrences per link, then drain each link
            # once with the fused ``remaining - k*level`` (clamped at zero).
            # The level is constant within a round, so this is the same
            # allocation the per-occurrence drain produced, and it is the
            # form the array-backed solve computes — keeping the two paths
            # bit-identical costs one multiply per touched link.
            drains: Dict[int, int] = {}
            for slot in to_freeze:
                frozen[slot] = 1
                n_left -= 1
                slot_rate[slot] = level
                for index in slot_links[slot]:
                    drains[index] = drains.get(index, 0) + 1
                for index in slot_unique[slot]:
                    counts[index] -= 1
            for index, k in drains.items():
                left = remaining[index] - k * level
                # inf - k*inf is NaN: an infinite link stays infinite.
                remaining[index] = (
                    left if left > 0.0 else 0.0 if left == left else math.inf
                )

    def _ensure_row_capacity(self, n: int) -> None:
        """Make room for ``n`` more entries at the end of ``_row_data``."""
        if self._row_used + n <= self._row_data.shape[0]:
            return
        if self._row_live + n <= self._row_data.shape[0] // 2:
            # Orphaned rows (from removed flows) dominate the buffer:
            # compacting frees more than doubling would add.
            self._compact_rows()
            return
        size = max(64, 2 * self._row_data.shape[0], self._row_used + n)
        grown = np.zeros(size, dtype=np.intp)
        grown[: self._row_used] = self._row_data[: self._row_used]
        self._row_data = grown

    def _compact_rows(self) -> None:
        """Repack live rows to the front of ``_row_data`` (vectorised)."""
        n_reg = len(self._flow_slot)
        if not n_reg:
            self._row_used = 0
            return
        slots = np.fromiter(self._flow_slot.values(), dtype=np.intp, count=n_reg)
        lens = self._slot_nlinks[slots]
        ends = np.cumsum(lens)
        offs = ends - lens
        total = int(ends[-1])
        gather = np.repeat(self._row_start[slots] - offs, lens)
        gather += np.arange(total)
        self._row_data[:total] = self._row_data[gather]
        self._row_start[slots] = offs
        self._row_used = total

    def _slot_row(self, slot: int) -> np.ndarray:
        """The slot's link index row (a view into the flat CSR buffer)."""
        start = self._row_start[slot]
        return self._row_data[start : start + self._slot_nlinks[slot]]

    def _solve_vector(self) -> int:
        """Array-backed water-filling over the links in use; returns how
        many rounds took their batch from the memo.

        Per round: one masked divide + ``argmin`` finds the bottleneck link
        (ties break on the lowest link index, matching the scalar heaps'
        ``(share, index)`` order); the freeze batch's link histogram
        ``(idx, k)`` drains every touched link by the fused ``remaining -
        k*level`` clamp — the identical expression the scalar path evaluates
        per touched link, so the two paths stay bit-identical.  Flow caps
        keep the scalar path's lazy heap.  Only called when no registered
        path repeats a link.  A fill reuses three things the previous fill
        computed, each exactly:

        **The log prefix.**  Every round is logged (level, ``idx``, ``k``,
        the product ``k*level``, the batch; ``_freeze_round`` per slot).
        Rounds ``< _resume`` survive removals: a flow frozen in round ``r``
        has, in every round ``j < r``, no link that is the bottleneck and is
        not the cap-heap winner; taking it away only *raises* its links'
        shares, so round ``j``'s ``argmin`` and tie-break, the cap-vs-share
        comparison, the batch and the drain are unchanged.  Only ``counts``
        on its links differ, and those are rebuilt from ``_link_use``.
        :meth:`remove_flow` therefore lowers ``_resume`` to the removed
        flow's freeze round; everything else (an add, a partial or scalar
        solve in between, :meth:`clear`) sets it to 0.  The prefix is
        applied *in one pass* before the loop: links are independent, so
        only each link's own drain order matters, and ``np.subtract.at``
        applies the logged ``k*level`` products unbuffered, in log order.
        The clamp is deferred to one ``maximum`` at the end — a link whose
        running value goes ``<= 0`` stays ``<= 0`` under further positive
        drains, where the per-round clamp would have held it at 0, so both
        end at ``0.0``; ``inf - k*level`` stays ``inf``.

        **The batches.**  ``_batch_memo[b]`` is the last batch bottleneck
        link ``b`` froze and its histogram.  It is dropped whenever a flow
        crossing ``b`` is removed, so while it exists every slot in it
        holds the flow it held, with the row it had: stored batch ⊆
        members(``b``).  ``counts[b]`` is the number of unfrozen members of
        ``b``; if it equals the stored batch's size and no stored slot is
        frozen, the unfrozen members *are* the stored batch, and ``(idx,
        k)`` — a function of the batch's rows — is unchanged.  An add cannot
        stale an entry (a new unfrozen member changes the count; one frozen
        earlier leaves the batch the stored one).  Removal must: the freed
        slot can come back with a different row on the same link, and then
        count and ``_freeze_round`` look right while the histogram is the
        old flow's.  Entries are copies, never views of ``_row_data``.

        **Nothing for idle links.**  ``remaining`` / ``counts`` / ``shares``
        cover the links in use only, ascending by link index (``argmin``'s
        tie-break is unchanged; a link with no live flow never enters a
        round); ``_link_pos`` translates logged and memoised ``idx``.

        The log holds each flow×link incidence at most once — the round
        that froze the flow — and so does the memo: O(incidences).
        """
        if self._capacity_np is None:
            self._capacity_np = np.asarray(self._capacity, dtype=np.float64)
            self._link_pos = np.zeros(len(self._capacity), dtype=np.intp)

        slot_rate = self._slot_rate
        for slot in self._linkless:
            # Flows that traverse no links are only limited by their cap.
            cap = self._slot_cap[slot]
            slot_rate[slot] = math.inf if cap is None else cap

        # (Counts are float64 — exact far beyond any flow count — so the
        # per-round divide and drains run on one dtype, without a cast.)
        n_used = len(self._link_use)
        used = np.fromiter(self._link_use.keys(), dtype=np.intp, count=n_used)
        counts = np.fromiter(self._link_use.values(), dtype=np.float64, count=n_used)
        order = used.argsort()
        used = used[order]
        counts = counts[order]
        pos = self._link_pos
        pos[used] = np.arange(n_used)
        remaining = self._capacity_np[used]
        shares = np.empty(n_used, dtype=np.float64)
        active = np.empty(n_used, dtype=bool)

        # Slots the surviving rounds froze keep their rate and their round;
        # every other slot is unfrozen, ``_freeze_round[slot] == _NEVER``:
        # a slot with a freeze round is in that round's logged batch, so
        # un-freezing the discarded rounds' batches reaches all of them.
        log = self._round_log
        mark = self._resume
        freeze_round = self._freeze_round
        if len(log) > mark:
            freeze_round[np.concatenate([r[4] for r in log[mark:]])] = _NEVER
            del log[mark:]
        n_left = len(self._flow_slot) - len(self._linkless)
        if mark:
            _, idxs, ks, drains, batches = zip(*log)
            at = pos[np.concatenate(idxs)]
            np.subtract.at(remaining, at, np.concatenate(drains))
            np.maximum(remaining, 0.0, out=remaining)
            np.subtract.at(counts, at, np.concatenate(ks))
            n_left -= sum(map(len, batches))
        # Frozen slots at the top of the heap are popped lazily below, so
        # the heap is built from every routed capped slot, as from scratch.
        cap_heap: List[Tuple[float, int]] = [
            (self._slot_cap[slot], slot)
            for slot in self._capped
            if self._slot_links[slot]
        ]
        heapq.heapify(cap_heap)

        inf = math.inf
        zero = np.zeros(())  # (a Python scalar operand is converted per call)
        memo = self._batch_memo
        memoised = 0
        while n_left:
            # Bottleneck search: equal share of every link still carrying
            # unfrozen flows, in one vector divide; links with no unfrozen
            # members are masked to +inf.
            np.greater(counts, zero, out=active)
            shares.fill(inf)
            np.divide(remaining, counts, out=shares, where=active)
            bottleneck = int(shares.argmin())
            bottleneck_share = shares.item(bottleneck)

            while cap_heap and freeze_round[cap_heap[0][1]] != _NEVER:
                heapq.heappop(cap_heap)

            if cap_heap and cap_heap[0][0] <= bottleneck_share:
                # A flow hits its own cap before any link saturates.
                level, slot = heapq.heappop(cap_heap)
                batch = np.array([slot], dtype=np.intp)
                idx = self._slot_row(slot).copy()
                k = np.ones(idx.shape[0], dtype=np.float64)
            elif bottleneck_share < inf:
                level = bottleneck_share
                link = int(used[bottleneck])
                entry = memo.get(link)
                if (
                    entry is not None
                    and counts.item(bottleneck) == entry[0].shape[0]
                    and freeze_round[entry[0]].min() == _NEVER
                ):
                    batch, idx, k = entry
                    memoised += 1
                else:
                    members = self._members[link]
                    batch = np.fromiter(members, dtype=np.intp, count=len(members))
                    batch = batch[freeze_round[batch] == _NEVER]
                    if not batch.shape[0]:
                        # (would loop forever: the round freezes nothing)
                        raise SimulationError(
                            f"link {self._link_ids[link]!r} counts an "
                            "unfrozen flow its membership does not hold"
                        )
                    # Gather the batch's link rows from the flat CSR buffer
                    # and histogram them over the links in use.
                    rows = self._row_data[
                        csr_gather(self._row_start[batch], self._slot_nlinks[batch])
                    ]
                    occ = np.bincount(pos[rows], minlength=n_used)
                    # (nonzero of a bool mask is twice as fast as of int64)
                    hit = (occ > 0).nonzero()[0]
                    idx = used[hit]
                    k = occ[hit].astype(np.float64)
                    memo[link] = batch, idx, k
            else:
                # Unfrozen flows remain but nothing constrains them
                # (rare: every remaining link has infinite headroom),
                # so a Python sweep over the registry is fine here.
                nlinks = self._slot_nlinks
                for slot in self._flow_slot.values():
                    if nlinks[slot] and freeze_round[slot] == _NEVER:
                        slot_rate[slot] = inf
                break

            # Drain the round's links with the fused ``remaining - k*level``
            # clamp the scalar path computes.  Links outside ``idx`` would
            # see ``remaining - 0*level``, which is exact, so the sparse
            # drain equals a drain over the full link vector.
            slot_rate[batch] = level
            freeze_round[batch] = len(log)
            drain = k * level
            log.append((level, idx, k, drain, batch))
            n_left -= batch.shape[0]
            at = pos[idx]
            counts[at] -= k
            segment = remaining[at] - drain
            np.maximum(segment, zero, out=segment)
            remaining[at] = segment

        self._rounds.inc(len(log))
        self._rounds_replayed.inc(mark)
        self._rounds_memoised.inc(memoised)
        self._resume = len(log)
        return memoised
