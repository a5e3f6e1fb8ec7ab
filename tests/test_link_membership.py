"""The allocator's link membership against the rows that define it.

``IncrementalAllocator`` keeps, per link, the slots of the flows crossing
it in one flat store, edited in O(1) per incidence by the per-flow calls
and as whole batches by ``add_flows`` / ``remove_flows``; segments move
when they fill, the store is repacked, trimmed and let go, and the CSR
rows are compacted.  Random interleavings of all four edits — with freed
slots reused, links that empty and fill again, and every repack reached —
are held after every edit to what the live CSR rows say:

* each link's members (read through ``_link_members``) are, as a set, the
  slots whose rows cross it, and each is where its row entry's position
  says it is;
* both solve paths give rates ``==`` to a fresh allocator holding the same
  flows.
"""

from __future__ import annotations

import collections
import itertools
import random

import numpy as np
import pytest

from oracles.max_min import add_paths, force_solves, rates_by_name
from repro.net import alloc
from repro.net.alloc import IncrementalAllocator

N_LINKS = 40
LINK_IDS = [f"l{i}" for i in range(N_LINKS)]


def live_rows(allocator):
    """Slot -> row (link indices) of every registered flow, from the CSR."""
    rows = {}
    for slot in np.flatnonzero(allocator._live[: allocator._n_slots]).tolist():
        start = int(allocator._row_start[slot])
        rows[slot] = allocator._row_data[
            start : start + int(allocator._slot_nlinks[slot])
        ].tolist()
    return rows


def assert_membership(allocator, context):
    rows = live_rows(allocator)
    expected = collections.defaultdict(set)
    for slot, row in rows.items():
        for link in row:
            expected[link].add(slot)
    for link in range(N_LINKS):
        members = allocator._link_members(link).tolist()
        assert len(members) == len(expected[link]), (context, link)
        assert set(members) == expected[link], (context, link)
        assert int(allocator._link_count[link]) == len(members), (context, link)
    for slot, row in rows.items():
        start = int(allocator._row_start[slot])
        for k, link in enumerate(row):
            at = int(allocator._row_pos[start + k])
            assert allocator._link_members(link)[at] == slot, (context, slot, link)


def fresh_rates(flows, capacities):
    twin = IncrementalAllocator(capacities)
    paths = {flow_id: [LINK_IDS[i] for i in row] for flow_id, row in flows.items()}
    return rates_by_name(twin, add_paths(twin, paths))


class Reached:
    """Counts the store and row-buffer events the edits set off."""

    def __init__(self, monkeypatch):
        self.counts = collections.Counter()
        for name in ("_compact_rows", "_repack_store", "_move_segment", "_shrink_store"):
            self._wrap(monkeypatch, name)

    def _wrap(self, monkeypatch, name):
        original = getattr(IncrementalAllocator, name)

        def counted(allocator, *args, **kwargs):
            self.counts[name] += 1
            if name == "_repack_store" and kwargs.get("trim"):
                self.counts["trim"] += 1
            if name == "_shrink_store" and not allocator._n_members:
                self.counts["released"] += 1
            return original(allocator, *args, **kwargs)

        monkeypatch.setattr(IncrementalAllocator, name, counted)


def _row(rng):
    """1-5 distinct links among a hot few and the rest, sometimes none."""
    if rng.random() < 0.05:
        return []
    pool = range(8) if rng.random() < 0.5 else range(N_LINKS)
    return rng.sample(pool, rng.randint(1, 5))


@pytest.mark.parametrize("vector", [True, False], ids=["vector", "scalar"])
@pytest.mark.parametrize("seed", range(3))
def test_membership_follows_the_rows_under_random_edits(vector, seed, monkeypatch):
    # Small cuts, so that every path runs at test sizes: batches from 8
    # flows, and stores from 64 entries are trimmed and let go.
    monkeypatch.setattr(alloc, "_BATCH_MIN", 8)
    monkeypatch.setattr(alloc, "_REPACK_MIN", 64)
    force_solves(monkeypatch, vector)
    reached = Reached(monkeypatch)
    rng = random.Random(seed)
    capacities = {link: rng.choice([1.0, 3.0, 10.0]) for link in LINK_IDS}
    allocator = IncrementalAllocator(capacities)
    flows, slot_of = {}, {}  # flow id -> row and slot, registered
    names = (f"f{i}" for i in itertools.count())
    reused = emptied_and_refilled = 0
    was_empty = set(range(N_LINKS))
    for step in range(70):
        context = f"seed={seed} step={step}"
        roll = rng.random()
        if flows and (roll < 0.4 or len(flows) > 300):
            n_gone = rng.choice([1, 3, 8, len(flows) // 2, len(flows) - 5, len(flows)])
            gone = rng.sample(sorted(flows), min(len(flows), max(1, n_gone)))
            if len(gone) == 1 or rng.random() < 0.3:
                for flow_id in gone:
                    allocator.remove_flow(slot_of[flow_id])
            else:
                allocator.remove_flows([slot_of[flow_id] for flow_id in gone])
            for flow_id in gone:
                del flows[flow_id], slot_of[flow_id]
        else:
            new = {next(names): _row(rng) for _ in range(rng.choice([1, 5, 8, 40, 120]))}
            free = set(allocator._free_slots)
            if len(new) == 1 or rng.random() < 0.3:
                slots = list(
                    add_paths(
                        allocator,
                        {flow_id: [LINK_IDS[i] for i in row] for flow_id, row in new.items()},
                    ).values()
                )
            else:
                flat = list(itertools.chain.from_iterable(new.values()))
                slots = allocator.add_flows(
                    np.array(flat, dtype=np.intp), [len(r) for r in new.values()]
                ).tolist()
            reused += len(free & set(slots))
            flows.update(new)
            slot_of.update(zip(new, slots))
        counts = allocator._link_count
        emptied_and_refilled += len(was_empty & set(np.flatnonzero(counts).tolist()))
        was_empty = set(np.flatnonzero(counts == 0).tolist())
        assert_membership(allocator, context)
        assert rates_by_name(allocator, slot_of) == fresh_rates(flows, capacities), context
    # Every mechanism was reached.
    assert reused and emptied_and_refilled, (reused, emptied_and_refilled)
    for event in ("_compact_rows", "_repack_store", "_move_segment", "trim", "released"):
        assert reached.counts[event], (event, reached.counts)
