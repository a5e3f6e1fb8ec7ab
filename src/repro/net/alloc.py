"""Indexed, incremental max-min fair allocation engine.

A from-scratch progressive filling (the reference the tests keep in
``tests/oracles/max_min.py``) receives plain string-keyed mappings,
rebuilds its ``link -> members`` index on every call, and intersects member
sets against the unfrozen set at every water-filling step.  That is fine for
a one-off allocation, but the fluid simulator re-solves after *every* event
(a flow starting, finishing, or being switched off), so almost all of that
work is repeated with a nearly identical flow set.

:class:`IncrementalAllocator` keeps the state the solver needs *between*
solves.  It knows flows by *slot* alone — a dense integer it hands out when
a flow's row of link indices is added, and takes back to remove it — and
holds no flow id: the caller (the fluid simulator) keeps its own names.

* link ids are interned to dense indices once, and slots stay dense under
  churn (a free list);
* each flow's path is one row of a flat CSR buffer of link indices, and
  link membership lives in one flat ``intp`` store, a segment per link
  (:meth:`IncrementalAllocator._link_members`), beside a member-count
  vector: no Python object per membership, and each path held once;
* :meth:`~IncrementalAllocator.add_flows` / :meth:`~IncrementalAllocator.remove_flows`
  apply deltas in O(path length) a flow below ``_BATCH_MIN`` flows (a
  leaving member's place goes to its segment's last member), and with a
  fixed number of array operations for a larger batch, which leaves the
  state the flow-by-flow edit would (slot numbers, free list, each link's
  members as a set, rates);
* :meth:`~IncrementalAllocator.solve_slots` runs progressive filling over
  integer indices (counters instead of set intersections) and keeps its
  per-slot rates until the flow set changes again.

The reference freezes one link a round and drains flow by flow, so it
agrees with the solver within rounding — ``tests/test_hotpath.py`` checks
agreement within 1e-9 on randomized instances.

At or above ``_VECTOR_MIN_FLOWS`` registered flows a solve
switches to an **array-backed water-filling path**: remaining headroom
and unfrozen-member counts live in NumPy vectors over the links in use
(ascending by interned link slot; idle links never enter a round), each
flow's path is a cached int index array (the rows of a CSR-style
flow×link incidence), and the per-round search becomes one masked divide
plus a minimum.
Both solves run one round per *level* — the least current equal share —
and freeze in it every unfrozen flow on every link at that share, each
once, as progressive filling does (Bertsekas & Gallager, *Data Networks*,
ch. 6): the array path finds those links by ``shares == level`` over the
links in use, the scalar one by popping an exact lazy heap down to the
level.  Both drain each touched link once with the same subtract-then-clamp
in the same dtype, so full scalar and full vector solves are bit-identical
to each other on every instance, and no rate depends on how the links are
numbered.  A path may not repeat a link:
:meth:`~IncrementalAllocator.add_flows` refuses one by its row in the batch
and the link's name.

Three further mechanisms keep event-loop re-solves cheap at scale:

* **Slot-rate output** — solves write per-slot rates into a flat float64
  vector, which :meth:`solve_slots` hands to the caller: no per-flow
  mapping in sight.
* **Resumable water-filling** — a full vector solve logs its rounds
  (level, drained links, drains, batch, and per slot the round that froze
  it).  Removing a flow leaves every round before the one that froze it
  exactly as it was, so the next full vector solve applies those rounds'
  drains from the log in one ordered scatter — no search, no Python
  iteration per round — and computes only the rest (see
  :meth:`IncrementalAllocator._solve_vector` for why).
* **Solving on the links that bind** — a full solve leaves the set B of
  links it saturated (its bottlenecks, and every link within ``_BIND_EPS``
  of its capacity) and every other link's slack.  While each flow crosses
  exactly one link of B and only removals follow, a removal re-rates the
  flows of its link of B in closed form, ``C / n``, and keeps every other
  rate, once no other link they cross can bind.  That is certified once
  per full solve for a *hose-safe* link, one the links of B whose flows
  cross it could not fill at their full capacities together; on any other
  link by its tracked slack, debited per link of B from counts of the
  flows each sends across it.  See
  :meth:`IncrementalAllocator._build_bind` and
  :meth:`IncrementalAllocator._solve_binding` for why this is the fill's
  answer bit for bit.  Any other edit, and a removal the path refuses, is
  followed by one full solve, which leaves B again.  A caller that knows a
  run of completions on the links of B ahead of time (the fluid loop, in
  lockstep) hands them over as one batch
  (:meth:`IncrementalAllocator.retire_in_lockstep`), which leaves what the
  removals and binding solves one completion at a time would.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple, Union

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


# The arrays the per-flow paths index one entry at a time, in the order of
# ``IncrementalAllocator._views`` (a path that needs a few takes them by
# position): through a memoryview an entry is read or written in about half
# the time ``ndarray.item`` / ``__setitem__`` take.
_VIEWED = (
    "_link_count", "_seg_start", "_seg_cap", "_store", "_store_k",
    "_row_pos", "_row_start", "_slot_nlinks", "_row_data", "_live",
)

# The segment every link gets when a flow is added flow by flow to an empty
# membership store (see IncrementalAllocator._move_segment).
_FIRST_CAP = 8

# A membership store bigger than this (and than the one a first flow gets)
# is repacked, smaller, once it holds four times more entries than
# memberships, and let go once it holds none (see _shrink_store); a
# smaller one only grows.
_REPACK_MIN = 1024


# The margin, relative to a link's capacity, within which a full solve
# counts a link as saturated (in B), and above which a link's tracked slack
# certifies that it cannot bind (as does the capacity of the hoses across a
# hose-safe link: see IncrementalAllocator._build_bind).  It bounds
# rounding only: a tracked slack is the fill's ``remaining`` after at most
# one drain per member, then one credit per removed member and one debit
# ``delta * m`` per kept pair per re-rating, and each of these operations
# rounds at most three times by at most 2**-53 of the link's capacity; a
# link can reach a round's level only once its exact slack is within that
# rounding of it.  So while the operations behind B (``_bind_ops``: twice the
# routed flows at the solve, plus the links of every removed row and the
# pairs of every debit since) stay under ``_BIND_EPS * 2**51``, tracked and
# exact slack differ by at most three quarters of the margin, and a tracked
# slack above the margin proves an exact one above every rounding that
# could reorder the fill; past that, the path refuses until the next full
# solve.  Refusing is always exact, so a larger or smaller margin only
# trades refusals (tests/test_alloc_binding.py scales it both ways).
_BIND_EPS = 1e-9

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


def _distinct(ids: np.ndarray) -> np.ndarray:
    """``ids`` without repeats, ascending, by sort and diff (plain
    ``np.unique`` imports ``numpy.ma``)."""
    ids = np.sort(ids)
    keep = np.empty(ids.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


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


class _Bound(NamedTuple):
    """B's certificate, as :meth:`IncrementalAllocator._build_bind` leaves
    it.  A *pair* ``(d, l)`` is a link ``d`` of B and a link ``l`` outside
    it that members of ``d`` cross, and its count ``m_dl`` is how many do;
    only the pairs on links that are not hose-safe are kept (when none
    is, the pair fields are None and ``pair_start`` is empty).  ``views``
    are memoryviews of ``link_of``, ``pair_at``, ``headroom`` and
    ``pair_count``, for the edits that read them an entry at a time."""

    link_of: np.ndarray  # per slot: its one link of B (-1: crosses none)
    pair_at: Optional[np.ndarray]  # per CSR entry: its kept pair, or -1
    headroom: np.ndarray  # per link: slack - _BIND_EPS * capacity (read on kept links)
    pair_link: Optional[np.ndarray]  # per kept pair: its link outside B
    pair_count: Optional[np.ndarray]  # per kept pair: m_dl
    pair_start: List[int]  # link d's kept pairs: [pair_start[d], pair_start[d + 1])
    views: Tuple[Optional[memoryview], ...]


def _check_capacities(link_ids: Sequence[str], capacities: Sequence[float]) -> None:
    """Reject a NaN or negative capacity by its link's name (zero and +inf
    are capacities: a dead link, an unconstrained one)."""
    for link_id, cap in zip(link_ids, capacities):
        if not cap >= 0.0:
            raise SimulationError(f"link {link_id!r} has capacity {cap!r}: must be >= 0, not NaN")


class IncrementalAllocator:
    """Max-min fair allocator with O(path) flow add/remove deltas.

    Args:
        capacities: mapping of link id to capacity in bits/second.  The link
            universe is fixed at construction; flows may only reference these
            links.  Their capacities may change (:meth:`update_capacities`).

    A flow is a row of link indices (into the universe, in the order of
    ``capacities``) and, while registered, a *slot*: :meth:`add_flows`
    hands the slots out, :meth:`remove_flows` and :meth:`remove_flow` take
    them back, and :meth:`solve_slots` gives the rates by slot.  A slot
    that is not live, or is repeated in a batch, is refused with nothing
    changed; the allocator holds no flow id.

    A full solve takes the array-backed path at or above
    ``_VECTOR_MIN_FLOWS`` registered flows, and the heap-based one below;
    both produce bit-identical rates.

    What a flow holds leaves with it.  Link membership takes three
    ``intp`` entries per flow × link incidence (the member's slot, the
    link's place in the member's row, and beside the CSR entry the
    member's place in the link's segment), in a store that is trimmed as
    flows leave, so an allocator whose flows have all left holds at most
    the store a first flow gets, whatever it once carried.
    """

    def __init__(self, capacities: Mapping[str, float]) -> None:
        self._link_ids: List[str] = list(capacities)
        self._link_index = {link_id: i for i, link_id in enumerate(self._link_ids)}
        self._capacity = [float(cap) for cap in capacities.values()]
        _check_capacities(self._link_ids, self._capacity)
        self._capacity_array: Optional[np.ndarray] = None  # (see _capacities)
        # The vector fill's link layout and link → position table (see
        # _solve_vector); None until the next vector solve rebuilds it.
        self._layout: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._link_pos = np.zeros(len(self._link_ids), dtype=np.intp)
        # Flow slots: ``_n_slots`` handed out so far, a free list that keeps
        # them dense under churn, and per slot whether it is live.
        self._n_slots = 0
        self._n_live = 0
        self._live = np.zeros(0, dtype=bool)
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
        # Link membership, in one flat store (entries outside the segments'
        # members are never read, so no store is zeroed): the slots
        # crossing link ``l``
        # are ``_store[_seg_start[l] : _seg_start[l] + _link_count[l]]``
        # (:meth:`_link_members`), in a segment of ``_seg_cap[l]`` entries
        # that moves to the store's end, twice as big, when it is full.
        # Beside each member ``_store_k`` holds the link's index in the
        # member's own row, and beside each CSR entry ``_row_pos`` holds its
        # slot's index in its link's segment, so a member leaves in O(1):
        # the segment's last member takes its place.  A link that empties
        # keeps its segment; the store is repacked when it is full, and
        # when it is large and mostly slack, which drops empty links'
        # segments; a large store is let go when every flow has left.
        n_links = len(self._link_ids)
        self._small_store = max(_REPACK_MIN, 2 * _FIRST_CAP * n_links)
        self._link_count = np.zeros(n_links, dtype=np.intp)
        self._seg_start = np.zeros(n_links, dtype=np.intp)
        self._seg_cap = np.zeros(n_links, dtype=np.intp)
        self._store = np.zeros(0, dtype=np.intp)
        self._store_k = np.zeros(0, dtype=np.intp)
        self._store_used = 0  # high-water mark of the store
        self._n_members = 0  # memberships: the sum of _link_count
        self._row_pos = np.zeros(0, dtype=np.intp)
        # Slots of live linkless flows and each slot's path length, so the
        # vector solve can build its working sets without a Python sweep
        # over every registered flow.
        self._linkless: Set[int] = set()
        self._slot_nlinks = np.zeros(0, dtype=np.int64)
        # Per-slot solved rates (what solve_slots returns).
        self._slot_rate = np.zeros(0, dtype=np.float64)
        self._solved = False
        # The links of B removals left members since the last solve, while B
        # is of use (see _solve_binding).
        self._dirty_links: Set[int] = set()
        self._views = [memoryview(getattr(self, name)) for name in _VIEWED]
        # Typed solve counters (thin-viewed by :meth:`solver_stats` and
        # aggregated process-wide by ``obs.metrics.snapshot()``).
        self._full_solves = obs.Counter("repro.alloc.full_solves")
        self._rounds = obs.Counter("repro.alloc.rounds")
        self._rounds_replayed = obs.Counter("repro.alloc.rounds_replayed")
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
        # round, the slots the binding path re-rated, or None.
        self._written: object = _UNREAD
        # The links that bind (see _solve_binding).  A full solve leaves
        # in ``_bind_fill`` the links it filled, their capacities and what
        # remained of them; the first removal builds ``_bind`` from it, a
        # ``_Bound``: each flow's link of B and the certificate of the
        # links outside B.  ``_bind`` is False while B holds but is of no
        # use (a flow crosses two of its links), and None while void (an
        # add or a capacity change since the solve).
        self._bind_fill: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._bind: Union[None, bool, _Bound] = None
        self._bind_ops = 0
        self._binding_solves = obs.Counter("repro.alloc.binding_solves")
        self._binding_refusals = obs.Counter("repro.alloc.binding_refusals")

    # ----------------------------------------------------------- inspection
    def __len__(self) -> int:
        return self._n_live

    # ------------------------------------------------------------- mutation
    def _check_row(self, i: int, row: Sequence[int]) -> None:
        """Refuse row ``i`` of a batch if it crosses one link twice, by its
        row and the link's name; the error's ``row`` is ``i``, for a caller
        that knows the flow by another name.

        Such a path is max-min fair under no single reading (counted once
        per link, it would drain the link once per crossing), and no route
        a topology builds repeats a link.
        """
        if len(set(row)) != len(row):
            seen: Set[int] = set()
            for index in row:
                if index in seen:
                    error = SimulationError(
                        f"row {i} of the batch crosses link "
                        f"{self._link_ids[index]!r} more than once"
                    )
                    error.row = i
                    raise error
                seen.add(index)

    def _add_row(self, indexed: List[int]) -> int:
        """Register one validated row; its slot."""
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._n_slots
            self._n_slots += 1
            if slot >= self._slot_rate.shape[0]:
                self._grow_slot_arrays(slot + 1)
        # Make room for the row before registering the flow: a compaction
        # triggered by the capacity check must only see recorded rows.
        n_row = len(indexed)
        if self._row_used + n_row > self._row_data.shape[0]:
            self._ensure_row_capacity(n_row)
        base = self._row_used
        self._row_used += n_row
        self._row_live += n_row
        (count, start, cap, store, store_k, row_pos, row_start, nlinks,
         row_data, live) = self._views
        live[slot] = True
        self._n_live += 1
        row_start[slot] = base
        nlinks[slot] = n_row
        if not n_row:
            self._linkless.add(slot)
        for k, index in enumerate(indexed):
            row_data[base + k] = index
            n = count[index]
            if not n:
                self._layout = None  # (the link enters use)
            if n == cap[index]:
                self._move_segment(index, max(4, 2 * n))
                store, store_k = self._views[3:5]
            at = start[index] + n
            store[at] = slot
            store_k[at] = k
            row_pos[base + k] = n
            count[index] = n + 1
        self._n_members += n_row
        # A new flow can lower shares in any round: the next fill starts over.
        self._resume = 0
        self._bind = self._bind_fill = None  # (and saturate any link)
        self._solved = False
        return slot

    def _link_members(self, link: int) -> memoryview:
        """The slots of the flows crossing link index ``link``, in no
        particular order: a memoryview of the store's ``intp`` entries,
        valid until the next edit (copy it to keep it)."""
        views = self._views
        at = views[1][link]
        return views[3][at : at + views[0][link]]

    def _bind_views(self, *names: str) -> None:
        """Point ``_views`` at the arrays ``names`` now are (call it after
        replacing one, or it keeps reading the old one)."""
        views = self._views
        for name in names:
            views[_VIEWED.index(name)] = memoryview(getattr(self, name))

    def _store_reserve(self, n: int) -> int:
        """Where ``n`` free store entries start, at the store's end (after a
        repack, if the store is full)."""
        if self._store_used + n > self._store.shape[0]:
            self._repack_store(n)
        at = self._store_used
        self._store_used += n
        return at

    def _repack_store(self, extra: int = 0, trim: bool = False) -> None:
        """Copy the segments, in link order, to the front of a new store
        with room for ``extra`` more entries.  Every segment keeps its room
        (an add that made room for its batch needs it), and the store holds
        twice what it keeps, and exactly ``extra`` more: so growing repacks
        take turns with as many entries reserved, and a batch added to an
        empty store fills it.  With ``trim`` (the store shrinks), an empty
        link's segment is dropped, a segment keeps at most twice its
        members (four, at least) and the store only what it keeps: at most
        twice its memberships plus four entries per link.  A store trimmed
        again is larger than a first store (16 entries per link), so it
        holds more than six memberships per link, and the next trim waits
        until at least a third of them have left."""
        if trim:
            links = np.flatnonzero(self._link_count)
            counts = self._link_count[links]
            caps = np.minimum(self._seg_cap[links], np.maximum(4, 2 * counts))
        else:
            links = np.flatnonzero(self._seg_cap)
            counts = self._link_count[links]
            caps = self._seg_cap[links]
        starts = caps.cumsum() - caps
        kept = int(caps.sum())
        src = csr_gather(self._seg_start[links], counts)
        dst = csr_gather(starts, counts)
        size = max(64, (kept if trim else 2 * kept) + extra)
        for name in ("_store", "_store_k"):
            packed = np.empty(size, dtype=np.intp)
            packed[dst] = getattr(self, name)[src]
            setattr(self, name, packed)
        self._seg_cap.fill(0)
        self._seg_cap[links] = caps
        self._seg_start[links] = starts
        self._store_used = kept
        self._bind_views("_store", "_store_k")

    def _move_segment(self, link: int, cap: int) -> None:
        """Give ``link`` a segment of ``cap`` entries at the store's end,
        holding its members.  The first flow added to an empty store gives
        every link a segment of ``_FIRST_CAP`` instead, in a store with as
        much room again."""
        if not self._store.shape[0]:
            n_links = self._link_count.shape[0]
            self._store = np.empty(2 * _FIRST_CAP * n_links, dtype=np.intp)
            self._store_k = np.empty(2 * _FIRST_CAP * n_links, dtype=np.intp)
            self._seg_start[:] = np.arange(0, _FIRST_CAP * n_links, _FIRST_CAP)
            self._seg_cap.fill(_FIRST_CAP)
            self._store_used = _FIRST_CAP * n_links
            self._bind_views("_store", "_store_k")
            if cap <= _FIRST_CAP:
                return
        at = self._store_reserve(cap)
        count, start, seg_cap, store, store_k = self._views[:5]
        n = count[link]
        if n:
            old = start[link]
            store[at : at + n] = store[old : old + n]
            store_k[at : at + n] = store_k[old : old + n]
        start[link] = at
        seg_cap[link] = cap

    def _shrink_store(self) -> None:
        """After removals from a large store — over ``_REPACK_MIN`` entries
        and bigger than the one a first flow gets: let it go once no
        membership is left, and trim it once it holds four times more
        entries than memberships.  (A smaller store keeps its segments, for
        the next flows on the same links.)"""
        if not self._n_members:
            self._seg_cap.fill(0)
            self._store = np.zeros(0, dtype=np.intp)
            self._store_k = np.zeros(0, dtype=np.intp)
            self._store_used = 0
            self._bind_views("_store", "_store_k")
        elif 4 * self._n_members <= self._store.shape[0]:
            self._repack_store(trim=True)

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
        grown_live = np.zeros(size, dtype=bool)
        grown_live[: self._live.shape[0]] = self._live
        self._live = grown_live
        # Only an add grows the arrays, and an add voids the round log, so
        # there is nothing to carry over.
        self._freeze_round = np.full(size, _NEVER, dtype=np.int64)
        self._bind_views("_row_start", "_slot_nlinks", "_live")

    def add_flows(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Register a batch of flows given as link-index rows; their slots.

        ``rows`` holds the flows' rows laid end to end — indices into the
        link universe in the order of the ``capacities`` mapping —
        ``lengths[i]`` links for flow ``i``.  A slot indexes the vector
        :meth:`solve_slots` returns, and is the flow's until it is removed.
        Below ``_BATCH_MIN`` flows the rows are registered one by one; a
        larger batch leaves exactly that state: same slots (free list
        last-in-first-out, then fresh ones), same membership, same rates at
        the next solve.

        Raises:
            SimulationError: on columns that disagree, link indices outside
                the universe, or a row that repeats a link (the error's
                ``row`` is its index in the batch); nothing is registered
                in that case.
        """
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.asarray(lengths, dtype=np.int64)
        n = lengths.shape[0]
        total = rows.shape[0]
        if n < _BATCH_MIN:
            ends = list(itertools.accumulate(lengths.tolist()))
            agree = (ends[-1] if n else 0) == total
        else:
            agree = int(lengths.sum()) == total
        if not agree:
            raise SimulationError("flow batch columns disagree in length")
        if n < _BATCH_MIN:
            # Small batches stay clear of NumPy and are cheaper flow by flow
            # (called once per fluid event, their fixed costs are the whole
            # cost): the per-flow edit, exactly, once every row is valid.
            flat = rows.tolist()
            if total and (min(flat) < 0 or max(flat) >= len(self._link_ids)):
                raise SimulationError("flow batch references an unknown link index")
            spans = list(zip([0] + ends, ends))
            for i, (a, b) in enumerate(spans):
                self._check_row(i, flat[a:b])
            return np.array([self._add_row(flat[a:b]) for a, b in spans], dtype=np.intp)
        row_offset = np.cumsum(lengths) - lengths
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
                start = int(row_offset[owner])
                row = rows[start : start + int(lengths[owner])]
                self._check_row(owner, row.tolist())
            del links_sorted, repeats

        # Slots, in the flow-by-flow order: the free list from its tail,
        # then fresh.
        n_reused = min(n, len(self._free_slots))
        slot_list = self._free_slots[len(self._free_slots) - n_reused :][::-1]
        del self._free_slots[len(self._free_slots) - n_reused :]
        first_fresh = self._n_slots
        slot_list.extend(range(first_fresh, first_fresh + n - n_reused))
        slots = np.array(slot_list, dtype=np.intp)
        self._n_slots += n - n_reused
        self._grow_slot_arrays(self._n_slots)
        # The CSR block is one slice write.  Room is made before any flow of
        # the batch is registered: a compaction must only see recorded rows.
        if total:
            self._ensure_row_capacity(total)
            self._row_data[self._row_used : self._row_used + total] = rows
        base = self._row_used
        self._row_start[slots] = base + row_offset
        self._row_used += total
        self._row_live += total
        self._slot_nlinks[slots] = lengths
        self._live[slots] = True
        self._n_live += n
        self._linkless.update(slots[lengths == 0].tolist())
        if total:
            self._join_batch(
                slots, base, row_offset, by_link, owner_sorted,
                touched, group_end - group_start,
            )
        # A new flow can lower shares in any round: the next fill starts over.
        self._resume = 0
        self._bind = self._bind_fill = None  # (and saturate any link)
        self._solved = False
        return slots

    def _join_batch(
        self, slots, base, row_offset, by_link, owner_sorted, touched, sizes
    ) -> None:
        """Append a batch's incidences to their links' segments.

        The incidences come grouped by link (``_group_by_link``): group
        ``g`` — ``sizes[g]`` incidences on link ``touched[g]`` — in batch
        order, incidence ``e`` the ``by_link[e]``-th entry of the batch's
        rows (written at ``base``), of batch flow ``owner_sorted[e]``.
        Each link's new members follow its old ones in batch order, as the
        flow-by-flow edit would append them.  The arrays are worked in
        place, one temporary at a time (at ``fluid_giant`` each is 3 MB):
        ``owner_sorted`` is consumed.
        """
        old = self._link_count[touched]
        need = old + sizes
        grow = need > self._seg_cap[touched]
        if grow.any():
            self._grow_segments(touched[grow], need[grow])
        if not old.all():
            self._layout = None  # (links enter use)
        # Each incidence's index in its link's segment, then its place in
        # the store.
        at = np.arange(by_link.shape[0])
        at += np.repeat(old - (sizes.cumsum() - sizes), sizes)
        by_link += base  # (the entries' CSR positions, for a moment)
        self._row_pos[by_link] = at
        by_link -= base
        at += np.repeat(self._seg_start[touched], sizes)
        self._store[at] = slots[owner_sorted]
        np.subtract(by_link, row_offset[owner_sorted], out=owner_sorted)
        self._store_k[at] = owner_sorted
        self._link_count[touched] = need
        self._n_members += at.shape[0]

    def _grow_segments(self, links: np.ndarray, need: np.ndarray) -> None:
        """Give each of ``links`` a segment of at least ``need`` entries at
        the store's end (twice its old one; exactly ``need`` for an empty
        link), holding its members."""
        cap = self._seg_cap[links]
        new_cap = np.where(
            self._link_count[links] == 0, need, np.maximum(need, 2 * cap)
        )
        total = int(new_cap.sum())
        at = self._store_reserve(total)
        starts = at + new_cap.cumsum() - new_cap
        counts = self._link_count[links]
        src = csr_gather(self._seg_start[links], counts)
        dst = csr_gather(starts, counts)
        self._store[dst] = self._store[src]
        self._store_k[dst] = self._store_k[src]
        self._seg_start[links] = starts
        self._seg_cap[links] = new_cap

    def remove_flow(self, slot: int) -> None:
        """Free the live slot ``slot``: its flow leaves.

        Raises:
            SimulationError: the slot is not live; nothing changes then.
        """
        (count, start, _, store, store_k, row_pos, row_start, nlinks,
         row_data, live) = self._views
        if not (0 <= slot < self._n_slots and live[slot]):
            raise SimulationError(f"slot {slot!r} is not live")
        if self._bind_fill is not None:
            self._build_bind()
        live[slot] = False
        self._n_live -= 1
        base = row_start[slot]
        row = row_data[base : base + nlinks[slot]].tolist()
        nlinks[slot] = 0
        bound, pair_at = self._bind, None
        if bound:
            link_of, pair_at, headroom, pair_count = bound.views
            if row:
                self._dirty_links.add(link_of[slot])
                self._bind_ops += len(row)
            rate = self._slot_rate.item(slot)
        for k, index in enumerate(row):
            if pair_at is not None:
                pair = pair_at[base + k]
                if pair >= 0:  # (a kept link: credit it, count one member less)
                    headroom[index] += rate
                    pair_count[pair] -= 1
            left = count[index] - 1
            count[index] = left
            if left:
                # The segment's last member takes the leaving one's place.
                i = row_pos[base + k]
                if i != left:
                    at = start[index]
                    moved, moved_k = store[at + left], store_k[at + left]
                    store[at + i] = moved
                    store_k[at + i] = moved_k
                    row_pos[row_start[moved] + moved_k] = i
            else:
                self._layout = None  # (the link leaves use)
        self._n_members -= len(row)
        if self._store.shape[0] > self._small_store:
            self._shrink_store()
        # Rounds before the one that froze this flow never had it on a link
        # at their level, so they survive its removal (see _solve_vector).
        if self._resume:
            self._resume = min(self._resume, int(self._freeze_round[slot]))
        self._row_live -= len(row)
        self._linkless.discard(slot)
        self._free_slots.append(slot)
        self._solved = False

    def remove_flows(self, slots) -> None:
        """Free a batch of live slots; the state :meth:`remove_flow` called
        on each in turn would leave (freed slots join the free list in batch
        order; a link's members may come out in another order).

        Raises:
            SimulationError: a slot is not live, or is repeated in the
                batch; nothing changes in that case.
        """
        slots = np.asarray(slots, dtype=np.intp)
        n = slots.shape[0]
        if n and (
            slots.min() < 0 or slots.max() >= self._n_slots or not self._live[slots].all()
        ):
            raise SimulationError("a slot of the batch is not live")
        ordered = np.sort(slots)
        if (ordered[1:] == ordered[:-1]).any():
            raise SimulationError("a slot is repeated in the batch")
        if n < _BATCH_MIN:
            # Cheaper flow by flow (see _BATCH_MIN).
            for slot in slots.tolist():
                self.remove_flow(slot)
            return
        if self._bind_fill is not None:
            self._build_bind()
        self._forget(slots, booked=True)

    def _forget(self, slots: np.ndarray, booked: bool) -> None:
        """Free the live ``slots``, in that order (:meth:`remove_flows`'
        edit); with ``booked``, book the removal on B: its dirty links, ops,
        credits and pair counts."""
        self._live[slots] = False
        self._n_live -= slots.shape[0]
        lengths = self._slot_nlinks[slots]
        total = int(lengths.sum())
        if total:
            entries = csr_gather(self._row_start[slots], lengths)
            bound = self._bind
            if bound and booked:
                links_of = bound.link_of[slots]
                self._dirty_links.update(links_of[lengths > 0].tolist())
                self._bind_ops += total
                if bound.pair_at is not None:
                    pairs = bound.pair_at[entries]
                    kept = pairs >= 0
                    rates = self._slot_rate[slots].repeat(lengths)[kept]
                    np.add.at(bound.headroom, self._row_data[entries[kept]], rates)
                    np.subtract.at(bound.pair_count, pairs[kept], 1)
            self._leave_batch(entries)
            if self._store.shape[0] > self._small_store:
                self._shrink_store()
        # Rounds before the first that froze any of these flows never had
        # one of them on a link at their level, so they survive the removal.
        if self._resume:
            self._resume = min(self._resume, int(self._freeze_round[slots].min()))
        self._row_live -= total
        self._slot_nlinks[slots] = 0
        slot_list = slots.tolist()
        self._linkless.difference_update(slot_list)
        self._free_slots.extend(slot_list)
        self._solved = False

    def _leave_batch(self, entries: np.ndarray) -> None:
        """Take the incidences at CSR positions ``entries`` out of their
        links' segments.

        Per link, the members left in the segment's tail (past its new
        count) fill the holes the leaving ones open before it, lowest hole
        first.  Holes and movers are both taken in store order, in which a
        link's entries are one run, and a link has as many of one as of the
        other, so the two lists pair up link by link.
        """
        n_gone = entries.shape[0]
        links = self._row_data[entries]
        index = self._row_pos[entries]
        del entries
        _, _, touched, group_start, group_end = _group_by_link(links)
        sizes = group_end - group_start
        count = self._link_count
        count[touched] -= sizes
        starts = self._seg_start[links]
        at = starts + index  # each leaving member's place in the store
        store, store_k = self._store, self._store_k
        store[at] = -1
        hole = index < count[links]
        del links, starts
        order = np.argsort(at[hole])
        holes, hole_index = at[hole][order], index[hole][order]
        del at, index, hole, order
        # The tails, in store order; their members that stay move.
        order = np.argsort(self._seg_start[touched])
        by_start = touched[order]
        tails = csr_gather(self._seg_start[by_start] + count[by_start], sizes[order])
        movers = tails[store[tails] >= 0]
        moved, moved_k = store[movers], store_k[movers]
        store[holes] = moved
        store_k[holes] = moved_k
        self._row_pos[self._row_start[moved] + moved_k] = hole_index
        if not count[touched].all():
            self._layout = None  # (links leave use)
        self._n_members -= n_gone

    def update_capacities(self, capacities: Mapping[str, float]) -> None:
        """Change the capacity of existing links.

        A changed link is edited as an add on it would be: the round log
        (every logged level is a share of the old capacity) and B are void,
        so the next solve is a full one.  An unchanged value edits nothing.

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
            self._capacity_array = None
            self._resume = 0
            self._bind = self._bind_fill = None
            self._layout = None
            self._solved = False

    def _capacities(self) -> np.ndarray:
        """The link capacities as one array, kept until a capacity changes
        (a universe of a few thousand links takes ≈60 µs to convert)."""
        if self._capacity_array is None:
            self._capacity_array = np.asarray(self._capacity)
        return self._capacity_array

    # --------------------------------------------------------------- solve
    def uses_vector_path(self) -> bool:
        """Whether the next full solve will take the array-backed path."""
        return self._n_live >= _VECTOR_MIN_FLOWS

    def solve_slots(self) -> np.ndarray:
        """Max-min fair rates for the registered flows, by slot (kept
        between edits).

        ``result[slot]`` is the rate of the flow :meth:`add_flows` gave
        ``slot``: the rate a from-scratch progressive filling over the
        current flow set gives it.  The scalar and array-backed paths give
        bit-identical rates, so which one ran is unobservable from the
        result.  The array is owned by the allocator: treat it as
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
        replayed prefix) and the linkless slots, the binding path the
        members it re-rated.  A scalar fill, a fill that left slots
        unconstrained, or two solves give None.  A solve records O(1): a
        mark or the binding path's array.
        """
        written, self._written = self._written, _UNREAD
        if written is _UNREAD:
            return np.zeros(0, dtype=np.intp)
        if written is None or isinstance(written, np.ndarray):
            return written
        parts = [entry[4] for entry in self._round_log[written:]]
        linkless = self._linkless
        parts.append(np.fromiter(linkless, dtype=np.intp, count=len(linkless)))
        return np.concatenate(parts)

    def solver_stats(self) -> Dict[str, int]:
        """Counters: full solves, and the water-filling rounds of the full
        vector solves — all of them (``rounds``, one per level) and those
        replayed from the round log instead of searched for again
        (``rounds_replayed``); and the solves after removals alone that the
        binding path served (``binding_solves``) or refused
        (``binding_refusals``).

        A thin view over this instance's :class:`repro.obs.Counter`
        instruments (the process-wide aggregate across allocators lives
        in ``obs.metrics.snapshot()`` under ``repro.alloc.*``).
        """
        return {
            "full_solves": self._full_solves.count,
            "rounds": self._rounds.count,
            "rounds_replayed": self._rounds_replayed.count,
            "binding_solves": self._binding_solves.count,
            "binding_refusals": self._binding_refusals.count,
        }

    def _ensure_solved(self) -> None:
        """Make ``_slot_rate`` current.  When only removals came since the
        last full solve and B holds, the binding path re-rates them; when
        it refuses, or after any other edit, one full solve runs — the heap
        fill below ``_VECTOR_MIN_FLOWS`` flows, the array fill at or above
        — and leaves the fill the next removal builds B from."""
        if self._solved:
            return
        binding = None
        if self._bind is not None:
            if self._bind:
                binding = self._solve_binding()
            (self._binding_refusals if binding is None else self._binding_solves).inc()
        if binding is not None:
            written = binding
        else:
            # Full solves are traced; binding solves run once per fluid
            # event and get counters only.
            vectorised = self.uses_vector_path()
            with obs.span(
                "alloc.solve",
                mode="vector" if vectorised else "scalar",
                flows=self._n_live,
                links=len(self._link_ids),
            ) as span:
                if vectorised:
                    resumed_from = self._resume
                    written = self._solve_vector()
                    span.set(rounds=len(self._round_log), resumed_from=resumed_from)
                else:
                    self._bind_fill = self._filled(self._solve_scalar())
                    self._resume = 0
                    written = None
            self._bind = None
            self._full_solves.inc()
        self._written = written if self._written is _UNREAD else None
        self._dirty_links.clear()
        self._solved = True

    def _build_bind(self) -> None:
        """B, each routed flow's one link of B, and the certificate of every
        other link in use, from what the last full solve left: called before
        the first removal since, while the registry is the one that solve
        saw.  Every routed flow has a bottleneck and a bottleneck is left
        saturated, so the member counts of B add up to the routed flows
        exactly when each crosses one link of B; if not (or an infinite
        link is in use, which can leave a flow with no bottleneck), B is of
        no use until the next full solve.

        **Hose-safe links.**  While B holds, the members of a link ``d`` of
        B share one rate, ``C_d / n_d`` rounded once (:meth:`_solve_binding`),
        and ``m_dl <= n_d`` of them cross a link ``l``: so they carry at
        most ``(1 + u) C_d`` across ``l``, ``u = 2**-53``, whatever is
        removed.  A link ``l`` outside B on which the capacities of the
        distinct ``d`` add up to at most ``(1 - _BIND_EPS) C_l`` is
        *hose-safe*: no set of those hoses can fill it, and removals only
        take hoses off it.  A sum of ``k`` terms (``k`` at most the routed
        flows; the first test below sums one term per incidence) rounds
        by at most ``(k - 1) u`` of itself and the threshold by ``2u``, so
        ``l``'s exact slack stays above ``(_BIND_EPS - (k + 3) u) C_l``.
        Every served solve is held to ``_bind_ops <= _BIND_EPS * 2**51``,
        and ``_bind_ops`` starts at twice the routed flows, so
        ``k u <= _BIND_EPS / 8`` and the fill's
        own rounding on ``l`` (at most two per member, ``2 u C_l`` each)
        stays under ``_BIND_EPS C_l / 4``: below that slack whenever
        ``_BIND_EPS > 5u``.  (A smaller margin's budget is under 2, which
        no routed flow's solve passes.)  So a hose-safe link never reaches a
        round's level, and it leaves the per-event check: its headroom is
        never read again.

        **The kept counts.**  On every other link ``l`` outside B the
        incidences are counted per pair ``(d, l)`` — one stable sort of
        their keys, ``d``-major, so each ``d``'s pairs are one run — and
        ``pair_at`` gives each incidence its pair: a removal credits its
        rate to ``l``'s headroom and takes one from ``m_dl``, and
        :meth:`_solve_binding` debits ``d``'s re-rating ``m_dl`` times
        over in one operation.
        """
        (links, capacity, remaining), self._bind_fill = self._bind_fill, None
        self._bind = False
        if np.isinf(capacity).any():
            return
        n_links = len(self._capacity)
        in_b, headroom = np.zeros(n_links, dtype=bool), np.full(n_links, math.inf)
        # (A link in no use at the solve can enter use only by an add, which
        # voids B, so its infinite headroom is never read.)
        headroom[links] = remaining - _BIND_EPS * capacity
        in_b[links] = headroom[links] <= 0.0
        routed = self._n_live - len(self._linkless)
        self._bind_ops = 2 * routed
        if int(self._link_count[in_b].sum()) != routed:
            return
        # Every incidence on a link in use: those on B name their flow's
        # link of B, the others are keyed by their pair.
        n_in = self._link_count[links]
        at = csr_gather(self._seg_start[links], n_in)
        slots = self._store[at]
        owner = links.repeat(n_in)
        on_b = in_b[owner]
        link_of = np.full(self._slot_rate.shape[0], -1, dtype=np.intp)
        link_of[slots[on_b]] = owner[on_b]
        off = ~on_b
        at, slots = at[off], slots[off]
        d, other = link_of[slots], owner[off]
        # Summed once per incidence, the capacities bound the distinct sum
        # from above: when every link passes so, every link is hose-safe.
        cap = self._capacities()
        limit = (1.0 - _BIND_EPS) * cap
        pair_at, pair_link, pair_count, pair_start = None, None, None, []
        if (np.bincount(other, weights=cap[d], minlength=n_links) > limit).any():
            by_key, _, pairs, first, end = _group_by_link(d * n_links + other)
            pair_d, pair_l = np.divmod(pairs, n_links)
            unsafe = np.bincount(pair_l, weights=cap[pair_d], minlength=n_links) > limit
            if unsafe.any():
                kept = unsafe[pair_l]
                sizes = end - first
                index = np.cumsum(kept) - 1
                index[~kept] = -1
                entries = self._row_start[slots] + self._store_k[at]
                pair_at = np.full(self._row_used, -1, dtype=np.intp)
                pair_at[entries[by_key]] = index.repeat(sizes)
                pair_link, pair_count = pair_l[kept], sizes[kept]
                pair_start = np.searchsorted(pair_d[kept], np.arange(n_links + 1)).tolist()
        views = tuple(
            None if array is None else memoryview(array)
            for array in (link_of, pair_at, headroom, pair_count)
        )
        self._bind = _Bound(
            link_of, pair_at, headroom, pair_link, pair_count, pair_start, views
        )

    def _filled(self, remaining: Dict[int, float]):
        """A scalar fill's ``remaining`` as ``(links, capacities, remaining)``."""
        links = np.fromiter(remaining, dtype=np.intp, count=len(remaining))
        values = np.fromiter(remaining.values(), dtype=np.float64, count=len(remaining))
        return links, self._capacities()[links], values

    def _solve_binding(self) -> Optional[np.ndarray]:
        """Re-rate the members of the dirty links of B in closed form;
        returns the slots re-rated, or None (no rate written) to refuse.

        Every flow crosses exactly one link of B (:meth:`_build_bind`), and
        removals keep that so.  Restricted to B the fill freezes each link
        ``d``'s ``n`` members in one round at ``C_d / n``, the fill's own
        ``remaining / counts`` with ``remaining == C_d``, as no other round
        drains ``d``; so all of them share one rate, ``r_d``.  The fill over
        every link is the same fill as long as no link outside B reaches a
        round's level: levels never fall from round to round (up to an
        ulp), and each unfrozen member ends at or above the current level,
        so a link at a round's level ends the fill saturated, within
        rounding.
        A hose-safe link never does (:meth:`_build_bind`).  Nor does a link
        left with headroom — tracked slack above ``_BIND_EPS`` of its
        capacity, a margin that covers every rounding while ``_bind_ops``
        stays under ``_BIND_EPS * 2**51`` (see ``_BIND_EPS``).  So each
        dirty ``d``'s change, ``δ = C_d / n - r_d`` per member, is debited
        ``δ m_dl`` from every kept link ``l`` of ``d``; if one is left
        without headroom the solve is refused, and the full solve that
        follows drops B with its headroom.  The budget gates every served
        solve, whether it debited or not.  Flows off the dirty links keep
        their rates: their links of B and their counts did not change.  The
        round log stays the one of the last fill: it only ever depends on
        the flow set, which removals keep it valid for.  (Bertsekas &
        Gallager, *Data Networks*, §6.5: a max-min fair allocation is the
        feasible one in which every flow crosses a saturated link where no
        flow gets more.)
        """
        bound = self._bind
        headroom, pair_link, pair_count = bound.headroom, bound.pair_link, bound.pair_count
        pair_start = bound.pair_start
        count, capacity = self._views[0], self._capacity
        slot_rate = self._slot_rate
        parts, rates = [], []
        for link in self._dirty_links:
            n = count[link]
            if not n:
                continue
            members = self._link_members(link)
            new = capacity[link] / n
            if pair_start:
                a, b = pair_start[link], pair_start[link + 1]
                if a != b:
                    at = pair_link[a:b]
                    left = headroom[at] - (new - slot_rate.item(members[0])) * pair_count[a:b]
                    if left.min() <= 0.0:
                        return None
                    headroom[at] = left
                    self._bind_ops += b - a
            parts.append(np.frombuffer(members, dtype=np.intp))
            rates.append(new)
        if self._bind_ops > _BIND_EPS * 2.0**51:
            return None
        for members, new in zip(parts, rates):
            slot_rate[members] = new
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)

    def binds(self) -> bool:
        """Whether B holds while the rates are solved: each routed flow on
        exactly one link of B, and only removals since the last full solve.
        B is built here if that solve left it unbuilt, as the next removal
        would build it."""
        if not self._solved:
            return False
        if self._bind_fill is not None:
            self._build_bind()
        return bool(self._bind)

    def binding_links(self, slots: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """While :meth:`binds`: each of ``slots``' link of B and that
        link's capacity, or None if one of them crosses no link."""
        links = self._bind.link_of[slots]
        if not links.shape[0] or links.min() < 0:
            return None
        return links, self._capacities()[links]

    def retire_in_lockstep(self, counts: np.ndarray, slots: np.ndarray, final: bool) -> int:
        """Remove a run of completions on the links of B as one batch, each
        followed by the solve that re-rates the survivors of its links;
        returns how many completions it took: all, or those before the
        first whose solve :meth:`_solve_binding` would refuse.

        Completion ``e``, in time order, retires the next ``counts[e]`` of
        ``slots``, in the order :meth:`remove_flows` would take them:
        members of one link of B, or of several that complete at one
        instant.  The binding solve after it gives each such link's ``n``
        survivors ``C / n``, the links in the order ``_dirty_links`` would
        give them; after the last, when ``final``, no solve follows (it
        leaves no flow).  Call it while :meth:`binds`.  What it leaves is
        what those removals and solves, one completion at a time, would
        leave: the free list, ``_resume``, the survivors' rates,
        ``_bind_ops``, the pair counts, the solver counters and each kept
        link's headroom, its credits and debits summed in the order those
        calls make them (:meth:`_book_kept`).  The batch leaves the store's
        segments in another order than one-by-one removals would (see
        :meth:`remove_flows`).
        """
        bound = self._bind
        n_events = counts.shape[0]
        first = np.cumsum(counts) - counts
        event_of = np.arange(n_events).repeat(counts)
        link_of = bound.link_of[slots]
        # Each completion's links, one *part* per link: in the order a set
        # built from the removals iterates them, as ``_dirty_links`` does
        # after each solve's clear().
        parts = np.ones(n_events, dtype=np.intp)
        part_link = link_of[first]
        part_of = np.arange(n_events)[event_of]
        several = np.zeros(n_events, dtype=bool)
        same_event = event_of[1:] == event_of[:-1]
        several[event_of[1:][(link_of[1:] != link_of[:-1]) & same_event]] = True
        if several.any():
            orders = {
                e: list(set(link_of[first[e] : first[e] + counts[e]].tolist()))
                for e in np.flatnonzero(several).tolist()
            }
            parts[list(orders)] = [len(order) for order in orders.values()]
            start = np.cumsum(parts) - parts
            part_link = link_of[first].repeat(parts)
            part_of = start[event_of]
            for e, order in orders.items():
                part_link[start[e] : start[e] + parts[e]] = order
                at = {link: i for i, link in enumerate(order)}
                part_of[first[e] : first[e] + counts[e]] += [
                    at[link] for link in link_of[first[e] : first[e] + counts[e]].tolist()
                ]
        part_event = np.arange(n_events).repeat(parts)
        n_parts = part_link.shape[0]
        # Each part's survivors, and its link's rate before and after.
        gone = np.bincount(part_of, minlength=n_parts)
        by_link = np.argsort(part_link, kind="stable")
        grouped = part_link[by_link]
        head = np.ones(n_parts, dtype=bool)
        head[1:] = grouped[1:] != grouped[:-1]
        heads = np.flatnonzero(head)
        run = np.cumsum(gone[by_link])
        before = (run - gone[by_link])[heads]
        n_after = np.empty(n_parts, dtype=np.int64)
        n_after[by_link] = self._link_count[grouped] - (run - before[np.cumsum(head) - 1])
        new = np.zeros(n_parts)
        np.divide(self._capacities()[part_link], n_after, out=new, where=n_after > 0)
        old = np.empty(n_parts)
        old[by_link[1:]] = new[by_link[:-1]]
        old[by_link[heads]] = self._slot_rate[self._store[self._seg_start[grouped[heads]]]]
        solved = np.ones(n_events, dtype=bool)
        solved[-1] = not final
        served = solved[part_event] & (n_after > 0)
        if bound.pair_start:
            pair_start = np.asarray(bound.pair_start, dtype=np.intp)
            debits = np.where(served, pair_start[part_link + 1] - pair_start[part_link], 0)
        else:
            debits = np.zeros(n_parts, dtype=np.intp)
        # The budget, after each completion's removals and debits.
        lengths = self._slot_nlinks[slots]
        removed = np.add.reduceat(lengths, first)
        debited = np.bincount(part_event, weights=debits).astype(np.intp)
        bind_ops = self._bind_ops + np.cumsum(removed + debited)
        refused = solved & (bind_ops > _BIND_EPS * 2.0**51)
        j = int(refused.argmax()) if refused.any() else n_events
        if bound.pair_at is not None and j:
            j = self._book_kept(
                j, slots[: first[j - 1] + counts[j - 1]], event_of, part_of,
                part_event, part_link, served, old, new - old,
            )
        if not j:
            return 0
        self._bind_ops = int(bind_ops[j - 1])
        self._forget(slots[: first[j - 1] + counts[j - 1]], booked=False)
        # Each re-rated link's survivors keep its last taken solve's rate.
        last = {}
        for part in np.flatnonzero(served & (part_event < j)).tolist():
            last[int(part_link[part])] = part
        for link, part in last.items():
            self._slot_rate[np.frombuffer(self._link_members(link), dtype=np.intp)] = new[part]
        self._binding_solves.inc(int(solved[:j].sum()))
        self._solved = bool(solved[j - 1])
        if not self._solved:
            self._dirty_links.update(link_of[first[j - 1] :].tolist())
        return j

    def _book_kept(
        self, n_events, slots, event_of, part_of, part_event, part_link, served, old, delta
    ) -> int:
        """:meth:`retire_in_lockstep`'s kept links, for its first
        ``n_events`` completions: how many come before the first whose
        debits leave a kept link without headroom; the credits and debits
        of those are booked.

        A kept link's headroom is positive while the path serves — a debit
        that leaves it at or below zero is refused, and a credit raises it
        — and adding 0.0 to a positive number is exact.  So every
        operation fits one dense table, a column per kept link and, per
        completion, a row per credit to one link (a completion may retire
        several members) and then a debit row per part, ``-(δ m)`` per
        pair and 0.0 elsewhere; ``add.accumulate`` down the columns then
        sums each kept link's credits and debits in the order
        :meth:`remove_flows` and :meth:`_solve_binding` make them, and a
        debit row at or below zero is the refusal.  ``m`` is the pair's
        count less its credits so far, per link of B a cumulative sum over
        its own parts.  The table is filled a block of completions at a
        time, no bigger than the membership store.
        """
        bound = self._bind
        n_links = len(self._capacity)
        n_parts = int(np.searchsorted(part_event, n_events))
        part_link, served = part_link[:n_parts], served[:n_parts]
        pair_start = np.asarray(bound.pair_start, dtype=np.intp)
        n_pairs = np.diff(pair_start)
        # The links of B here, and the kept links their pairs reach.
        on_b = np.zeros(n_links, dtype=bool)
        on_b[part_link] = True
        ds = np.flatnonzero(on_b)
        d_index = np.zeros(n_links, dtype=np.intp)
        d_index[ds] = np.arange(ds.shape[0])
        pairs = csr_gather(pair_start[ds], n_pairs[ds])
        kept = np.zeros(n_links, dtype=bool)
        kept[bound.pair_link[pairs]] = True
        kept_links = np.flatnonzero(kept)
        n_kept = kept_links.shape[0]
        if not n_kept:
            return n_events
        col = np.zeros(n_links, dtype=np.intp)
        col[kept_links] = np.arange(n_kept)
        members = np.zeros((ds.shape[0], n_kept), dtype=np.int64)
        members[np.arange(ds.shape[0]).repeat(n_pairs[ds]), col[bound.pair_link[pairs]]] = (
            bound.pair_count[pairs]
        )
        # The credits, each with its rank among its completion's credits
        # to the same link.
        lengths = self._slot_nlinks[slots]
        entries = csr_gather(self._row_start[slots], lengths)
        pair = bound.pair_at[entries]
        hit = pair >= 0
        owner = np.arange(slots.shape[0]).repeat(lengths)[hit]
        c_event, c_part = event_of[owner], part_of[owner]
        c_col, c_pair = col[self._row_data[entries[hit]]], pair[hit]
        key = c_event * n_kept + c_col
        order = np.argsort(key, kind="stable")
        heads = np.flatnonzero(np.append(True, key[order][1:] != key[order][:-1]))
        rank = np.empty(order.shape[0], dtype=np.intp)
        rank[order] = np.arange(order.shape[0])
        rank[order] -= heads.repeat(np.diff(np.append(heads, key.shape[0])))
        # Rows: per completion its credit ranks, then one debit row a part.
        ranks = np.zeros(n_events, dtype=np.intp)
        np.maximum.at(ranks, c_event, rank + 1)
        rows = ranks + np.bincount(part_event[:n_parts], minlength=n_events)
        row_at = np.cumsum(rows) - rows
        part_row = row_at[part_event[:n_parts]] + ranks[part_event[:n_parts]] + (
            np.arange(n_parts) - (np.cumsum(rows - ranks) - (rows - ranks))[part_event[:n_parts]]
        )
        block = max(1, self._store.shape[0] // n_kept)
        cuts = np.searchsorted(np.cumsum(rows), np.arange(block, int(rows.sum()), block), "right")
        headroom = bound.headroom[kept_links]
        credited = np.zeros((ds.shape[0], n_kept), dtype=np.int64)
        j = n_events
        for a, b in zip(np.append(0, cuts).tolist(), np.append(cuts, n_events).tolist()):
            if a >= b:
                continue
            base = row_at[a]
            table = np.zeros((1 + int(row_at[b - 1] + rows[b - 1] - base), n_kept))
            table[0] = headroom
            lo, hi = np.searchsorted(c_event, (a, b))
            credit_row = 1 + row_at[c_event[lo:hi]] - base + rank[lo:hi]
            table[credit_row, c_col[lo:hi]] = old[c_part[lo:hi]]
            # Each pair's credits so far, per link of B over its own parts.
            pa, pb = np.searchsorted(part_event, (a, b))
            count = np.zeros((pb - pa, n_kept), dtype=np.int64)
            np.add.at(count, (c_part[lo:hi] - pa, c_col[lo:hi]), 1)
            d = d_index[part_link[pa:pb]]
            by = np.argsort(d, kind="stable")
            run, d = count[by], d[by]
            heads = np.flatnonzero(np.append(True, d[1:] != d[:-1]))
            sizes = np.diff(np.append(heads, pb - pa))
            np.cumsum(run, axis=0, out=run)
            start = np.zeros((heads.shape[0], n_kept), dtype=np.int64)
            start[1:] = run[heads[1:] - 1]
            run += (credited[d[heads]] - start).repeat(sizes, axis=0)
            credited[d[heads]] = run[heads + sizes - 1]
            count[by] = run
            debit = -(delta[pa:pb, None] * (members[d_index[part_link[pa:pb]]] - count))
            debit[~served[pa:pb]] = 0.0
            at = 1 + part_row[pa:pb] - base
            table[at] = debit
            np.add.accumulate(table, axis=0, out=table)
            low = served[pa:pb] & (table[at] <= 0.0).any(axis=1)
            if low.any():
                j = int(part_event[pa + int(low.argmax())])
                headroom = table[row_at[j] - base]
                break
            headroom = table[-1]
        bound.headroom[kept_links] = headroom
        np.subtract.at(bound.pair_count, c_pair[c_event < j], 1)
        return j

    def _solve_scalar(self) -> Dict[int, float]:
        """Heap-based progressive filling over interned int slots; returns
        what remains of each link it filled."""
        slot_rate = self._slot_rate
        capacity = self._capacity
        views = self._views
        row_start, row_len, row_data = views[6], views[7], views[8]
        for slot in self._linkless:
            # Flows that traverse no links are not limited at all.
            slot_rate[slot] = math.inf
        used = np.flatnonzero(self._link_count)
        counts = dict(zip(used.tolist(), self._link_count[used].tolist()))
        # Working copies for only the links currently in play.
        remaining: Dict[int, float] = {
            index: capacity[index] for index in counts
        }

        frozen = bytearray(self._n_slots)
        # Lazy heap of ``(share, link)``, an entry valid while it holds its
        # link's current share: the least valid entry is then the least
        # share.  That needs every link to keep an entry at or below its
        # share.  Draining a link raises its share, save by an ulp of the
        # fused drain; so an entry found below its link's share is corrected
        # in place, and a drain that lowers a share pushes a fresh entry,
        # which leaves the old one above the share, to be dropped when it
        # surfaces.
        share_heap = [(remaining[index] / count, index) for index, count in counts.items()]
        heapq.heapify(share_heap)
        n_left = self._n_live - len(self._linkless)
        while n_left:
            # One round: every valid entry at the least share — the level —
            # is popped and its link's unfrozen members are frozen, each
            # once (a link may surface twice); the first valid entry above
            # the level stays for the next round.
            level = None
            to_freeze: List[int] = []
            while share_heap:
                key, link = share_heap[0]
                count = counts[link]
                if count:  # (else every member is frozen: the link is spent)
                    share = remaining[link] / count
                    if key < share:
                        heapq.heapreplace(share_heap, (share, link))
                        continue
                    if key == share:
                        if level is None:
                            level = key
                        elif key != level:
                            break
                        heapq.heappop(share_heap)
                        for slot in self._link_members(link).tolist():
                            if not frozen[slot]:
                                frozen[slot] = 1
                                to_freeze.append(slot)
                        continue
                heapq.heappop(share_heap)
            n_left -= len(to_freeze)

            # Count the round's crossings per link, then drain each link
            # once with the fused ``remaining - k*level`` (clamped at zero),
            # the form the array-backed solve computes.
            drains: Dict[int, int] = {}
            for slot in to_freeze:
                slot_rate[slot] = level
                start = row_start[slot]
                for index in row_data[start : start + row_len[slot]].tolist():
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
        return remaining

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
        for name in ("_row_data", "_row_pos"):
            grown = np.empty(size, dtype=np.intp)
            grown[: self._row_used] = getattr(self, name)[: self._row_used]
            setattr(self, name, grown)
        self._bind_views("_row_data", "_row_pos")

    def _compact_rows(self) -> None:
        """Repack live rows to the front of ``_row_data`` (vectorised)."""
        if not self._n_live:
            self._row_used = 0
            return
        slots = np.flatnonzero(self._live[: self._n_slots])
        lens = self._slot_nlinks[slots]
        ends = np.cumsum(lens)
        offs = ends - lens
        total = int(ends[-1])
        gather = np.repeat(self._row_start[slots] - offs, lens)
        gather += np.arange(total)
        self._row_data[:total] = self._row_data[gather]
        self._row_pos[:total] = self._row_pos[gather]
        self._row_start[slots] = offs
        self._row_used = total

    def _solve_vector(self) -> Optional[int]:
        """Array-backed water-filling over the links in use; returns the
        first round it searched (None if it left slots unconstrained outside
        any batch).

        Per round: one masked divide finds the least share, the round's
        *level*, and every link at it; the round freezes the union of their
        unfrozen members, each flow once, and the batch's link histogram
        ``(idx, k)`` drains every touched link by the fused ``remaining -
        k*level`` clamp — the identical expression the scalar path
        evaluates per touched link, so the two paths stay bit-identical.
        No link index decides anything: a round is a level, its links a set.

        **The log prefix.**  Every round is logged (level, ``idx``, ``k``,
        the product ``k*level``, the batch; ``_freeze_round`` per slot).
        Rounds ``< _resume`` survive removals: a flow frozen in round ``r``
        crosses no link of round ``j``'s tied set for any ``j < r``, and
        taking it away only *raises* its own links' shares, which were
        already above round ``j``'s level; so round ``j``'s level, tied set,
        batch and drains are unchanged.  Only ``counts`` on its links
        differ, and those are read from ``_link_count``.
        :meth:`remove_flow` therefore lowers ``_resume`` to the removed
        flow's freeze round; everything else (an add, a capacity change, a
        scalar solve in between) sets it to 0.
        The prefix is applied *in one pass* before the loop: links are
        independent, so only each link's own drain order matters, and
        ``np.subtract.at`` applies the logged ``k*level`` products
        unbuffered, in log order.
        The clamp is deferred to one ``maximum`` at the end — a link whose
        running value goes ``<= 0`` stays ``<= 0`` under further positive
        drains, where the per-round clamp would have held it at 0, so both
        end at ``0.0``; ``inf - k*level`` stays ``inf``.

        **Nothing for idle links.**  ``remaining`` / ``counts`` / ``shares``
        cover the links in use only (a link with no live flow never enters
        a round); ``_link_pos`` translates logged ``idx``.  That layout,
        ``flatnonzero(_link_count)``, is kept until a link enters or leaves
        use or a capacity changes.

        The log holds each flow×link incidence at most once — the round
        that froze the flow: O(incidences).
        """
        slot_rate = self._slot_rate
        for slot in self._linkless:
            # Flows that traverse no links are not limited at all.
            slot_rate[slot] = math.inf

        pos = self._link_pos
        if self._layout is None:
            used = np.flatnonzero(self._link_count)
            pos[used] = np.arange(used.shape[0])
            self._layout = used, self._capacities()[used]
        used, capacity = self._layout
        n_used = used.shape[0]
        # (Counts are float64 — exact far beyond any flow count — so the
        # per-round divide and drains run on one dtype, without a cast.)
        counts = self._link_count[used].astype(np.float64)
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
        n_left = self._n_live - len(self._linkless)
        if mark:
            _, idxs, ks, drains, batches = zip(*log)
            at = pos[np.concatenate(idxs)]
            np.subtract.at(remaining, at, np.concatenate(drains))
            np.maximum(remaining, 0.0, out=remaining)
            np.subtract.at(counts, at, np.concatenate(ks))
            n_left -= sum(map(len, batches))
        inf = math.inf
        zero = np.zeros(())  # (a Python scalar operand is converted per call)
        searched_from: Optional[int] = mark
        while n_left:
            # The level: the least equal share of the links still carrying
            # unfrozen flows, in one vector divide; links with no unfrozen
            # members are masked to +inf.
            np.greater(counts, zero, out=active)
            shares.fill(inf)
            np.divide(remaining, counts, out=shares, where=active)
            level = float(shares.min())

            if level == inf:
                # Unfrozen flows remain but nothing constrains them
                # (rare: every remaining link has infinite headroom).
                n = self._n_slots
                slot_rate[: n][
                    self._live[:n] & (self._slot_nlinks[:n] > 0) & (freeze_round[:n] == _NEVER)
                ] = inf
                searched_from = None
                break
            tied = used[(shares == level).nonzero()[0]]
            batch = self._store[
                csr_gather(self._seg_start[tied], self._link_count[tied])
            ]
            batch = batch[freeze_round[batch] == _NEVER]
            if tied.shape[0] > 1:
                batch = _distinct(batch)
            if not batch.shape[0]:
                # (would loop forever: the round freezes nothing)
                raise SimulationError(
                    f"link {self._link_ids[tied[0]]!r} counts an "
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

            # Drain the round's links with the fused ``remaining - k*level``
            # clamp the scalar path computes.  Links outside ``idx`` would
            # see ``remaining - 0*level``, which is exact, so the sparse
            # drain equals a drain over the full link vector.
            slot_rate[batch] = level
            freeze_round[batch] = len(log)
            drain = k * level
            log.append((level, idx, k, drain, batch))
            n_left -= batch.shape[0]
            counts[hit] -= k
            segment = remaining[hit] - drain
            np.maximum(segment, zero, out=segment)
            remaining[hit] = segment

        self._rounds.inc(len(log))
        self._rounds_replayed.inc(mark)
        self._resume = len(log)
        self._bind_fill = used, capacity, remaining
        return searched_from
