"""Indexed, incremental max-min fair allocation engine.

A from-scratch progressive filling (the reference the tests keep in
``tests/oracles/max_min.py``) receives plain string-keyed mappings,
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
  instead of set intersections) and caches its result until the flow set
  changes again.

The solver performs the *same* floating-point operations in the same
per-flow order as the reference implementation, so its rates are
bit-identical on any instance where the reference's own (set-iteration-
order-dependent) tie-breaks do not matter — ``tests/test_hotpath.py``
checks agreement within 1e-9 on randomized instances.

At or above ``_VECTOR_MIN_FLOWS`` registered flows :meth:`solve`
switches to an **array-backed water-filling path**: remaining headroom
and unfrozen-member counts live in NumPy vectors over the links in use
(ascending by interned link slot; idle links never enter a round), each
flow's path is a cached int index array (the rows of a CSR-style
flow×link incidence), and the per-round bottleneck search becomes one
masked divide plus ``argmin``.
Both solves pick each bottleneck by one rule — the least current equal
share, ties to the lowest link index: ``argmin`` over the links in use in
the array path, the ``(share, link)`` order of an exact lazy heap in the
scalar one — and freeze with the same subtract-then-clamp in the same
dtype, so full scalar, full vector and partial solves are bit-identical to
each other on every instance (and to the reference, with the caveat
above).  A path may not repeat a link: :meth:`IncrementalAllocator.add_flow` and
:meth:`~IncrementalAllocator.add_flows` refuse one by name.

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
  has discovered prove the closure too big, and once one has failed,
  component labels skip the walks whose closure is bound to be too big.
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

__all__ = ["IncrementalAllocator"]

# Flow count below which the vectorised solve is not worth its NumPy
# dispatch overhead: below 16 flows an array fill costs ≈170 µs against the
# heap's ≈50 µs, and with the array solve everywhere ``sweep_paper`` ran
# ×1.04–1.07 slower (docs/performance.md, "The solve's constant"; the fill
# covers the links in use only, so the link universe does not count).
_VECTOR_MIN_FLOWS = 256

# ``_freeze_round`` value of a slot no logged round froze.
_NEVER = np.iinfo(np.int64).max

# ``_written`` while no solve ran since the last ``written_slots`` call.
_UNREAD = object()


# Batches shorter than this are edited flow by flow: batching has a fixed
# cost (the stable sort by link, the group cuts) that pays from ≈48–64
# flows for adds and ≈96–128 for removals (docs/performance.md, "What
# selects the engine").  Both leave the same state: policy, not semantics.
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


def _check_capacities(link_ids: Sequence[str], capacities: Sequence[float]) -> None:
    """Reject a NaN or negative capacity by its link's name (zero and +inf
    are capacities: a dead link, an unconstrained one)."""
    for link_id, cap in zip(link_ids, capacities):
        if not cap >= 0.0:
            raise SimulationError(f"link {link_id!r} has capacity {cap!r}: must be >= 0, not NaN")


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
            links.  Their capacities may change (:meth:`update_capacities`).

    A full solve takes the array-backed path at or above
    ``_VECTOR_MIN_FLOWS`` registered flows, and the heap-based one below;
    both, and every partial re-solve, produce bit-identical rates.
    """

    def __init__(self, capacities: Mapping[str, float]) -> None:
        self._link_ids: List[str] = list(capacities)
        self._link_index = {link_id: i for i, link_id in enumerate(self._link_ids)}
        self._capacity = [float(cap) for cap in capacities.values()]
        _check_capacities(self._link_ids, self._capacity)
        # The vector fill's link layout and link → position table (see
        # _solve_vector); None until the next vector solve rebuilds it.
        self._layout: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._link_pos = np.zeros(len(self._link_ids), dtype=np.intp)
        # Flow slots: a free-list keeps slot indices dense under churn.
        self._flow_slot: Dict[str, int] = {}
        self._slot_name: List[str] = []
        self._slot_links: List[Tuple[int, ...]] = []
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
        self._free_slots: List[int] = []
        # Per-link membership (flow slots currently crossing the link) and a
        # refcount of links in use, so solves touch only occupied links.
        self._members: List[Set[int]] = [set() for _ in self._link_ids]
        # Each link index as one Python int, built by the first batched add.
        self._link_objects: Optional[np.ndarray] = None
        self._link_use: Dict[int, int] = {}
        # Per bottleneck link, the last batch the vector solve froze there
        # and its link histogram ``(batch, idx, k)``; dropped whenever a flow
        # crossing the link is removed (see _solve_vector).
        self._batch_memo: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Slots of live linkless flows and each slot's path length, so the
        # vector solve can build its working sets without a Python sweep
        # over every registered flow.
        self._linkless: Set[int] = set()
        self._slot_nlinks = np.zeros(0, dtype=np.int64)
        # Longest path registered since the last clear() (never lowered on
        # removal: _dirty_closure only needs an upper bound).
        self._max_row = 0
        # Component labels (see _dirty_closure): per link its label, per
        # label its routed flows, and how many routed flows were labeled.
        self._label: Optional[List[int]] = None
        self._label_count: List[int] = []
        self._label_flows = 0
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
        self._walks = obs.Counter("repro.alloc.walks")
        self._walks_skipped = obs.Counter("repro.alloc.walks_skipped")
        self._labelings = obs.Counter("repro.alloc.labelings")
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
        # What written_slots() reports: _UNREAD, a fill's first searched
        # round, a partial solve's (closure, linkless) sets, or None.
        self._written: object = _UNREAD

    # ----------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._flow_slot)

    # ------------------------------------------------------------- mutation
    def add_flow(self, flow_id: str, links: Sequence[str]) -> int:
        """Register a flow crossing ``links``.

        Returns the flow's slot index — an index into the vector
        :meth:`solve_slots` returns, valid until the flow is removed.

        Raises:
            SimulationError: on duplicate flow ids, unknown links, or a path
                that repeats a link; nothing is registered in that case.
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
        self._check_row(flow_id, indexed)
        return self._add_row(flow_id, indexed)

    def _check_row(self, flow_id: str, row: Sequence[int]) -> None:
        """Refuse a row that crosses one link twice, by flow and link name.

        Such a path is max-min fair under no single reading (counted once
        per link, it would drain the link once per crossing), and no route
        a topology builds repeats a link.
        """
        if len(set(row)) != len(row):
            seen: Set[int] = set()
            for index in row:
                if index in seen:
                    raise SimulationError(
                        f"flow {flow_id!r} crosses link "
                        f"{self._link_ids[index]!r} more than once"
                    )
                seen.add(index)

    def _add_row(self, flow_id: str, indexed: List[int]) -> int:
        """:meth:`add_flow` for a validated flow whose links are interned."""
        link_tuple = tuple(indexed)
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slot_name[slot] = flow_id
            self._slot_links[slot] = link_tuple
        else:
            slot = len(self._slot_name)
            self._slot_name.append(flow_id)
            self._slot_links.append(link_tuple)
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
        if not n_row:
            self._linkless.add(slot)
        link_use = self._link_use
        n_used = len(link_use)
        for index in link_tuple:
            self._members[index].add(slot)
            link_use[index] = link_use.get(index, 0) + 1
        if len(link_use) != n_used:
            self._layout = None
        if self._have_rates:
            if link_tuple:
                self._dirty_links.update(link_tuple)
            else:
                self._dirty_linkless.add(slot)
        # A new flow can lower shares in any round: the next fill starts over.
        self._resume = 0
        self._label = None  # (and it can join components)
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
    ) -> np.ndarray:
        """Register a batch of flows given as link-index rows.

        ``rows`` holds the flows' rows laid end to end — indices into the
        link universe in the order of the ``capacities`` mapping —
        ``lengths[i]`` links for flow ``i``.  Returns the flows' slots.  The
        allocator ends up in exactly the state ``add_flow`` called on each
        flow in turn would leave: same slots (free list last-in-first-out,
        then fresh ones), same membership, same rates at the next solve.

        Raises:
            SimulationError: on duplicate flow ids, link indices outside
                the universe, or a row that repeats a link; nothing is
                registered in that case.
        """
        n = len(flow_ids)
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.asarray(lengths, dtype=np.int64)
        total = rows.shape[0]
        ends = list(itertools.accumulate(lengths.tolist()))
        if len(ends) != n or (ends[-1] if n else 0) != total:
            raise SimulationError("flow batch columns disagree in length")
        registered = self._flow_slot
        batch_ids = set()
        for flow_id in flow_ids:
            if flow_id in registered or flow_id in batch_ids:
                raise SimulationError(f"duplicate flow id {flow_id!r}")
            batch_ids.add(flow_id)
        if n < _BATCH_MIN:
            # Small batches stay clear of NumPy and are cheaper flow by flow
            # (called once per fluid event, their fixed costs are the whole
            # cost): the per-flow edit, exactly, once every row is valid.
            flat = rows.tolist()
            if total and (min(flat) < 0 or max(flat) >= len(self._link_ids)):
                raise SimulationError("flow batch references an unknown link index")
            spans = list(zip([0] + ends, ends))
            for flow_id, (a, b) in zip(flow_ids, spans):
                self._check_row(flow_id, flat[a:b])
            return np.array(
                [
                    self._add_row(flow_id, flat[a:b])
                    for flow_id, (a, b) in zip(flow_ids, spans)
                ],
                dtype=np.intp,
            )
        if total:
            if rows.min() < 0 or rows.max() >= len(self._link_ids):
                raise SimulationError("flow batch references an unknown link index")
            by_link, links_sorted, touched, group_start, group_end = (
                _group_by_link(rows)
            )
            owner_sorted = np.repeat(np.arange(n), lengths)[by_link]
            repeats = (links_sorted[1:] == links_sorted[:-1]) & (
                owner_sorted[1:] == owner_sorted[:-1]
            )
            if repeats.any():
                owner = int(owner_sorted[repeats.argmax()])
                row = rows[ends[owner] - int(lengths[owner]) : ends[owner]]
                self._check_row(flow_ids[owner], row.tolist())
            # Links in the order add_flow would first touch them, so that
            # _link_use gains its new keys in the order add_flow gives them.
            first_touch = np.argsort(by_link[group_start])
            del by_link, links_sorted, repeats
        del ends

        # Slots, in add_flow's order: the free list from its tail, then fresh.
        n_reused = min(n, len(self._free_slots))
        slot_list = self._free_slots[len(self._free_slots) - n_reused :][::-1]
        del self._free_slots[len(self._free_slots) - n_reused :]
        first_fresh = len(self._slot_name)
        slot_list.extend(range(first_fresh, first_fresh + n - n_reused))
        slots = np.array(slot_list, dtype=np.intp)
        # The rows as tuples of the link universe's own int objects: no
        # Python int is made per incidence.
        if self._link_objects is None:
            self._link_objects = np.arange(len(self._link_ids), dtype=object)
        links = iter(self._link_objects[rows].tolist())
        tuples = [tuple(itertools.islice(links, k)) for k in lengths.tolist()]
        for slot, flow_id, link_tuple in zip(
            slot_list[:n_reused], flow_ids, tuples
        ):
            self._slot_name[slot] = flow_id
            self._slot_links[slot] = link_tuple
        self._slot_name.extend(flow_ids[n_reused:])
        self._slot_links.extend(tuples[n_reused:])
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
        linkless = slots[lengths == 0].tolist()
        self._linkless.update(linkless)
        if total:
            # Each incidence's slot, as the slot list's own int objects.
            slot_sorted = np.array(slot_list, dtype=object)[owner_sorted].tolist()
            del owner_sorted
            link_use = self._link_use
            n_used = len(link_use)
            for link, a, b in zip(
                touched[first_touch].tolist(),
                group_start[first_touch].tolist(),
                group_end[first_touch].tolist(),
            ):
                self._members[link].update(slot_sorted[a:b])
                link_use[link] = link_use.get(link, 0) + (b - a)
            if len(link_use) != n_used:
                self._layout = None
            if self._have_rates:
                self._dirty_links.update(touched.tolist())
        if self._have_rates:
            self._dirty_linkless.update(linkless)
        # A new flow can lower shares in any round: the next fill starts over.
        self._resume = 0
        self._label = None  # (and it can join components)
        self._solved = False
        self._solution = None
        return slots

    def remove_flow(self, flow_id: str) -> None:
        """Forget a flow previously registered with :meth:`add_flow`."""
        slot = self._flow_slot.pop(flow_id, None)
        if slot is None:
            raise SimulationError(f"unknown flow {flow_id!r}")
        row = self._slot_links[slot]
        if row and self._label is not None:
            self._label_count[self._label[row[0]]] -= 1
        for index in row:
            self._members[index].discard(slot)
            self._batch_memo.pop(index, None)
            left = self._link_use[index] - 1
            if left:
                self._link_use[index] = left
            else:
                del self._link_use[index]
                self._layout = None
        if self._have_rates:
            self._dirty_links.update(row)
            self._dirty_linkless.discard(slot)
        # Rounds before the one that froze this flow never had it as their
        # bottleneck, so they survive its removal (see _solve_vector).
        if self._resume:
            self._resume = min(self._resume, int(self._freeze_round[slot]))
        self._slot_name[slot] = ""
        self._slot_links[slot] = ()
        self._row_live -= int(self._slot_nlinks[slot])
        self._slot_nlinks[slot] = 0
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
        if len(flow_ids) < _BATCH_MIN:
            # Cheaper flow by flow (see _BATCH_MIN).
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
                    self._layout = None
            if self._label is not None:
                for link in self._row_data[self._row_start[slots[lengths > 0]]].tolist():
                    self._label_count[self._label[link]] -= 1
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
        self._row_live -= total
        self._slot_nlinks[slots] = 0
        self._linkless.difference_update(slot_list)
        self._free_slots.extend(slot_list)
        self._solved = False
        self._solution = None

    def update_capacities(self, capacities: Mapping[str, float]) -> None:
        """Change the capacity of existing links.

        A changed link is edited as an add on it would be: it is marked
        dirty, so the next solve re-solves the flows that (transitively)
        share it, and the round log is void (every logged level is a share
        of the old capacity).  An unchanged value edits nothing.  The
        component labels stay: connectivity does not change.

        Raises:
            SimulationError: on a link outside the universe, or a NaN or
                negative capacity; nothing is changed in that case.
        """
        for link_id in capacities:
            if link_id not in self._link_index:
                raise SimulationError(f"unknown link {link_id!r}")
        new = [float(cap) for cap in capacities.values()]
        _check_capacities(list(capacities), new)
        for link_id, cap in zip(capacities, new):
            index = self._link_index[link_id]
            if cap == self._capacity[index]:
                continue
            self._capacity[index] = cap
            if self._have_rates:
                self._dirty_links.add(index)
            self._resume = 0
            self._layout = None
            self._solved = False
            self._solution = None

    def slots_of(self, flow_ids: Sequence[str]) -> np.ndarray:
        """The slots of registered flows (see :meth:`add_flow`)."""
        slot = self._flow_slot
        return np.array([slot[flow_id] for flow_id in flow_ids], dtype=np.intp)

    # --------------------------------------------------------------- solve
    def uses_vector_path(self) -> bool:
        """Whether the next :meth:`solve` will take the array-backed path."""
        return len(self._flow_slot) >= _VECTOR_MIN_FLOWS

    def solve(self) -> Dict[str, float]:
        """Max-min fair rates for the registered flows (cached between edits).

        Returns the same mapping a from-scratch progressive filling over the
        current flow set would; callers must treat it as read-only.  The
        scalar and array-backed paths produce bit-identical mappings, so
        which one ran is unobservable from the result.
        """
        self._ensure_solved()
        if self._solution is None:
            # (The fluid simulator's scalar loop, the one caller at scale,
            # runs below a few hundred flows: a plain comprehension beats
            # the fixed cost of a NumPy gather there.)
            rates = self._slot_rate.tolist()
            self._solution = {
                flow_id: rates[slot] for flow_id, slot in self._flow_slot.items()
            }
        return self._solution

    def solve_slots(self) -> np.ndarray:
        """Solve and return the per-slot rate vector (no dict is built).

        ``result[slot]`` is the rate of the flow whose :meth:`add_flow`
        returned ``slot``.  The array is owned by the allocator: treat it as
        read-only, and re-fetch (or copy what you need) after any edit.
        Entries for freed slots are stale; :meth:`written_slots` names the
        rewritten ones.
        """
        self._ensure_solved()
        return self._slot_rate

    def written_slots(self) -> Optional[np.ndarray]:
        """The slots the solves since the last call wrote, each once (a
        superset of those whose rate changed or that were added), or None
        for "any slot"; call it before the next edit.

        A vector fill writes the batches of the rounds it searched (not the
        replayed prefix) and the linkless slots, a partial solve its closure
        and the new linkless slots.  A scalar full solve, a fill that left
        slots unconstrained, :meth:`clear`, or two solves give None.  A
        solve records O(1): a mark or a set reference.
        """
        written, self._written = self._written, _UNREAD
        if written is _UNREAD:
            return np.zeros(0, dtype=np.intp)
        if written is None:
            return None
        if isinstance(written, int):
            parts = [entry[4] for entry in self._round_log[written:]]
            linkless = self._linkless
        else:
            closure, linkless = written
            parts = [np.fromiter(closure, dtype=np.intp, count=len(closure))]
        parts.append(np.fromiter(linkless, dtype=np.intp, count=len(linkless)))
        return np.concatenate(parts)

    def solver_stats(self) -> Dict[str, int]:
        """Counters: full solves, partial solves, slots re-solved partially,
        and the water-filling rounds of the full vector solves — all of
        them (``rounds``), those replayed from the round log instead of
        searched for again (``rounds_replayed``), and the searched ones whose
        freeze batch came from the per-link memo (``rounds_memoised``); and
        the closure walks run (``walks``), those the component labels
        skipped (``walks_skipped``), and the labelings (``labelings``).

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
            "walks": self._walks.count,
            "walks_skipped": self._walks_skipped.count,
            "labelings": self._labelings.count,
        }

    def _ensure_solved(self) -> None:
        """Run a (possibly partial) solve so ``_slot_rate`` is current."""
        if self._solved:
            return
        # Partial re-solve: progressive filling decomposes over connected
        # components of the flow↔link sharing graph, so flows outside the
        # transitive closure of the edited links keep their previous rates
        # bit-for-bit.
        partial = None
        if self._have_rates:
            partial = self._dirty_closure()
        if partial is not None:
            for slot in self._dirty_linkless:
                self._slot_rate[slot] = math.inf
            if partial:
                self._solve_scalar(restrict=partial)
                self._resume = 0
            written = (partial, self._dirty_linkless)
            self._dirty_linkless = set()
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
                    memoised, written = self._solve_vector()
                    span.set(
                        rounds=len(self._round_log),
                        resumed_from=resumed_from,
                        memoised=memoised,
                    )
                else:
                    self._solve_scalar()
                    self._resume = 0
                    written = None
            self._full_solves.inc()
        self._written = written if self._written is _UNREAD else None
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
        that many of them).  Where a rack or aggregation link is fat that
        takes a few steps; on a giant of thin links (a shuffle between
        hosts) it costs dozens of visited flows.

        So a walk that fails after visiting a flow labels the components
        (:meth:`_label_components`), and later walks whose dirty links'
        labels count more routed flows than the limit are skipped.  Until
        an add voids them, labels go stale only by removals, which split
        components but never join them, and each removal is taken off its
        label's count: a count bounds every closure inside its label.  Once
        half the flows they counted have left, the labels are dropped, so
        a giant that has split is labeled afresh by the next failed walk.
        """
        if not self._dirty_links:
            return set()
        limit = _partial_limit(len(self._flow_slot))
        routed = len(self._flow_slot) - len(self._linkless)
        if self._label is not None and 2 * routed <= self._label_flows:
            self._label = None
        label, count = self._label, self._label_count
        if label is not None:
            owners = {label[link] for link in self._dirty_links}
            if sum(count[owner] for owner in owners) > limit:
                self._walks_skipped.inc()
                return None
        self._walks.inc()
        budget = limit * self._max_row
        members = self._members
        slot_links = self._slot_links
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
                    if len(seen_slots) > limit or not discover(slot_links[slot]):
                        if label is None:
                            self._label_components()
                        return None
        return seen_slots

    def _label_components(self) -> None:
        """Label every link with the least link index of its component in
        the flow↔link sharing graph, and count the routed flows per label:
        min-label propagation over the CSR rows (each row hooks the roots
        of its links to the least of them) with pointer jumping, until no
        row hooks anything.  Labels only fall, so a root is its
        component's least index."""
        slots = np.flatnonzero(self._slot_nlinks)
        lengths = self._slot_nlinks[slots]
        links = self._row_data[csr_gather(self._row_start[slots], lengths)]
        starts = lengths.cumsum() - lengths
        label = np.arange(len(self._link_ids))
        while True:
            roots = label[links]
            least = np.minimum.reduceat(roots, starts).repeat(lengths)
            if np.array_equal(roots, least):
                break
            np.minimum.at(label, roots, least)
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped
        self._label = label.tolist()
        self._label_count = np.bincount(label[links[starts]], minlength=label.shape[0]).tolist()
        self._label_flows = slots.shape[0]
        self._labelings.inc()

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
                # Flows that traverse no links are not limited at all.
                slot_rate[slot] = math.inf

        # Working copies for only the links currently in play.
        capacity = self._capacity
        slot_links = self._slot_links
        if restrict is None:
            counts: Dict[int, int] = dict(self._link_use)
        else:
            counts = {}
            for slot in unfrozen:
                for index in slot_links[slot]:
                    counts[index] = counts.get(index, 0) + 1
        remaining: Dict[int, float] = {
            index: capacity[index] for index in counts
        }

        frozen = bytearray(len(self._slot_name))
        # Lazy heap of ``(share, link)``, popped only at a link's current
        # share: its least entry is then the least share, ties to the lowest
        # link index — the array solve's ``argmin``, so both solves take
        # every bottleneck in the same order.  That needs every link to keep
        # an entry at or below its share.  Draining a link raises its share,
        # save by an ulp of the fused drain; so an entry found below its
        # link's share is corrected in place, and a drain that lowers a
        # share pushes a fresh entry, which leaves the old one above the
        # share, to be dropped when it surfaces.
        share_heap = [(remaining[index] / count, index) for index, count in counts.items()]
        heapq.heapify(share_heap)
        n_left = len(unfrozen)
        while n_left:
            key, link = share_heap[0]
            count = counts[link]
            if not count:  # every member frozen: the link is spent
                heapq.heappop(share_heap)
                continue
            level = remaining[link] / count
            if key != level:
                if key < level:
                    heapq.heapreplace(share_heap, (level, link))
                else:
                    heapq.heappop(share_heap)
                continue
            heapq.heappop(share_heap)
            to_freeze = [slot for slot in self._members[link] if not frozen[slot]]
            n_left -= len(to_freeze)

            # Count the round's crossings per link, then drain each link
            # once with the fused ``remaining - k*level`` (clamped at zero),
            # the form the array-backed solve computes.
            drains: Dict[int, int] = {}
            for slot in to_freeze:
                frozen[slot] = 1
                slot_rate[slot] = level
                for index in slot_links[slot]:
                    drains[index] = drains.get(index, 0) + 1
            for index, k in drains.items():
                before, count = remaining[index], counts[index]
                left = before - k * level
                # inf - k*inf is NaN: an infinite link stays infinite.
                left = left if left > 0.0 else 0.0 if left == left else math.inf
                remaining[index] = left
                counts[index] = count - k
                if count > k and left / (count - k) < before / count:
                    heapq.heappush(share_heap, (left / (count - k), index))

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

    def _solve_vector(self) -> Tuple[int, Optional[int]]:
        """Array-backed water-filling over the links in use; returns how
        many rounds took their batch from the memo, and the first round it
        searched (None if it left slots unconstrained outside any batch).

        Per round: one masked divide + ``argmin`` finds the bottleneck link
        (ties break on the lowest link index, matching the scalar heap's
        ``(share, index)`` order); the freeze batch's link histogram
        ``(idx, k)`` drains every touched link by the fused ``remaining -
        k*level`` clamp — the identical expression the scalar path evaluates
        per touched link, so the two paths stay bit-identical.  A fill
        reuses three things the previous fill computed, each exactly:

        **The log prefix.**  Every round is logged (level, ``idx``, ``k``,
        the product ``k*level``, the batch; ``_freeze_round`` per slot).
        Rounds ``< _resume`` survive removals: a flow frozen in round ``r``
        has, in every round ``j < r``, no link that is the bottleneck;
        taking it away only *raises* its links' shares, so round ``j``'s
        ``argmin`` and tie-break, the batch and the drain are unchanged.
        Only ``counts`` on its links differ, and those are rebuilt from
        ``_link_use``.
        :meth:`remove_flow` therefore lowers ``_resume`` to the removed
        flow's freeze round; everything else (an add, a capacity change, a
        partial or scalar solve in between, :meth:`clear`) sets it to 0.
        The prefix is applied *in one pass* before the loop: links are
        independent, so only each link's own drain order matters, and
        ``np.subtract.at`` applies the logged ``k*level`` products
        unbuffered, in log order.
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
        round); ``_link_pos`` translates logged and memoised ``idx``.  That
        layout (and the permutation of ``_link_use``'s order into it) is
        kept until a link enters or leaves use — the only edit that changes
        that order — a capacity changes, or :meth:`clear` runs.

        The log holds each flow×link incidence at most once — the round
        that froze the flow — and so does the memo: O(incidences).
        """
        slot_rate = self._slot_rate
        for slot in self._linkless:
            # Flows that traverse no links are not limited at all.
            slot_rate[slot] = math.inf

        n_used = len(self._link_use)
        pos = self._link_pos
        if self._layout is None:
            used = np.fromiter(self._link_use.keys(), dtype=np.intp, count=n_used)
            order = used.argsort()
            used = used[order]
            pos[used] = np.arange(n_used)
            self._layout = used, order, np.asarray(self._capacity)[used]
        used, order, capacity = self._layout
        # (Counts are float64 — exact far beyond any flow count — so the
        # per-round divide and drains run on one dtype, without a cast.)
        counts = np.fromiter(self._link_use.values(), dtype=np.float64, count=n_used)[order]
        remaining = capacity.copy()
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
        inf = math.inf
        zero = np.zeros(())  # (a Python scalar operand is converted per call)
        memo = self._batch_memo
        memoised = 0
        searched_from: Optional[int] = mark
        while n_left:
            # Bottleneck search: equal share of every link still carrying
            # unfrozen flows, in one vector divide; links with no unfrozen
            # members are masked to +inf.
            np.greater(counts, zero, out=active)
            shares.fill(inf)
            np.divide(remaining, counts, out=shares, where=active)
            bottleneck = int(shares.argmin())
            bottleneck_share = shares.item(bottleneck)

            if bottleneck_share == inf:
                # Unfrozen flows remain but nothing constrains them
                # (rare: every remaining link has infinite headroom),
                # so a Python sweep over the registry is fine here.
                nlinks = self._slot_nlinks
                for slot in self._flow_slot.values():
                    if nlinks[slot] and freeze_round[slot] == _NEVER:
                        slot_rate[slot] = inf
                searched_from = None
                break
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
                # Gather the batch's link rows from the flat CSR buffer and
                # histogram them over the links in use.
                rows = self._row_data[
                    csr_gather(self._row_start[batch], self._slot_nlinks[batch])
                ]
                occ = np.bincount(pos[rows], minlength=n_used)
                # (nonzero of a bool mask is twice as fast as of int64)
                hit = (occ > 0).nonzero()[0]
                idx = used[hit]
                k = occ[hit].astype(np.float64)
                memo[link] = batch, idx, k

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
        return memoised, searched_from
