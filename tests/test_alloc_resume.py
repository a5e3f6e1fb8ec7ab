"""Resumable water-filling and the dirty-closure walk of ``repro.net.alloc``.

One long-lived allocator, its solves forced onto the vector path, is driven
through random edit sequences; after every edit its rates must equal —
exactly — what a fresh allocator computes from scratch for the same flow
set, on the vector path and on the scalar path, agree with the reference
(``tests/oracles/max_min.py``) within 1e-9, and pass the
max-min certificate.  Every vector fill is also held — slot rates and
per-round levels, ``==`` — to the fill of the commit before the freeze-batch
memo, the compact link state and the one-pass replay
(``tests/oracles/parent_fill.py``).  The counters must show the resume and
the memo working where they have to, and no replay after an add.
"""

import math
import random

import pytest

from oracles.max_min import force_solves, max_min_allocation
from oracles.parent_fill import ParentFill
from repro.net import alloc
from repro.net.alloc import _BATCH_MIN, IncrementalAllocator, _partial_limit
from repro.net.fairness import FlowDemand, max_min_violations
from repro.net.topology import TreeSpec, build_multi_rooted_tree


@pytest.fixture(autouse=True)
def _vector_solves(monkeypatch):
    """Every allocator here solves on the vector path unless told otherwise."""
    force_solves(monkeypatch, True)


# ------------------------------------------------------------------ instances
def _tree_instance(rng):
    """A random tree, and flows between random host pairs: mostly cross-rack
    (one big sharing component), some linkless."""
    spec = TreeSpec(
        pods=rng.randint(1, 2),
        racks_per_pod=rng.randint(2, 3),
        hosts_per_rack=rng.randint(3, 5),
        num_cores=rng.randint(1, 2),
    )
    topo = build_multi_rooted_tree(spec)
    caps = topo.capacities()
    hosts = topo.hosts()
    demands = {}
    for f in range(rng.randint(150, 260)):
        src, dst = rng.choice(hosts), rng.choice(hosts)
        links = () if rng.random() < 0.03 else tuple(
            link.link_id for link in topo.path_links(src, dst)
        )
        demands[f"f{f}"] = FlowDemand(links=links)
    return caps, demands


def _mesh_instance(rng):
    """Random link sets with no tree in them: a core of shared links (one
    big component), a few private links used by small groups (so edits there
    re-solve partially), and a link of infinite capacity (flows that only
    cross it stay unconstrained)."""
    caps = {f"c{i}": rng.uniform(1.0, 10.0) for i in range(rng.randint(12, 30))}
    caps.update({f"p{i}": rng.uniform(1.0, 10.0) for i in range(4)})
    caps["open"] = math.inf
    core = [lid for lid in caps if lid.startswith("c")]
    demands = {}
    for f in range(rng.randint(150, 260)):
        roll = rng.random()
        if roll < 0.04:
            links = (f"p{rng.randrange(4)}",)
        elif roll < 0.07:
            links = ("open",)
        elif roll < 0.10:
            links = ()
        else:
            links = tuple(rng.sample(core, rng.randint(1, 4)))
            if rng.random() < 0.1:
                links += ("open",)
        demands[f"f{f}"] = FlowDemand(links=links)
    return caps, demands


# --------------------------------------------------------------------- oracle
def _from_scratch(caps, active, vector):
    with pytest.MonkeyPatch.context() as patch:
        force_solves(patch, vector)
        fresh = IncrementalAllocator(caps)
        for fid in sorted(active):
            fresh.add_flow(fid, active[fid].links)
        return fresh.solve()


def _check(live, slot_of, caps, active, context):
    """The live allocator's slot rates against every oracle."""
    slot_rates = live.solve_slots()
    got = {fid: float(slot_rates[slot_of[fid]]) for fid in active}
    assert got == live.solve(), context
    assert got == _from_scratch(caps, active, vector=True), context
    assert got == _from_scratch(caps, active, vector=False), context
    reference = max_min_allocation(active, caps)
    for fid, rate in reference.items():
        if math.isinf(rate):
            assert math.isinf(got[fid]), (context, fid)
        else:
            assert got[fid] == pytest.approx(rate, rel=1e-9, abs=1e-9), (context, fid)
    assert max_min_violations(active, caps, got) == [], context
    return got


class _Driver:
    """One live allocator, the flow set it should hold, the parent commit's
    fill shadowing it, and stats deltas."""

    def __init__(self, caps, demands):
        self.caps = caps
        self.live = IncrementalAllocator(caps)
        self.parent_fill = ParentFill()
        self.active = {}
        self.slot_of = {}
        self.stats = self.live.solver_stats()
        self.last_was_full = False
        self.rates = {}
        self.levels = []
        self.add(demands)
        self.settle("initial")

    def add(self, demands):
        for fid, demand in demands.items():
            self.slot_of[fid] = self.live.add_flow(fid, demand.links)
            self.active[fid] = demand
        self.parent_fill.added()

    def remove(self, fids, batched=False):
        self.parent_fill.removed(self.slot_of[fid] for fid in fids)
        if batched:
            self.live.remove_flows(list(fids))
        else:
            for fid in fids:
                self.live.remove_flow(fid)
        for fid in fids:
            del self.active[fid], self.slot_of[fid]

    def settle(self, context):
        """Solve, check against the oracles, return the stats deltas."""
        self.rates = _check(self.live, self.slot_of, self.caps, self.active, context)
        stats = self.live.solver_stats()
        delta = {key: stats[key] - self.stats[key] for key in stats}
        self.stats = stats
        self.last_was_full = delta["full_solves"] == 1
        if self.live.uses_vector_path():
            # The parent's fill runs from its own log and mark every time;
            # the live log is whole only after a full solve.
            rates, self.levels = self.parent_fill.fill(self.live)
            got = {fid: float(rates[slot]) for fid, slot in self.slot_of.items()}
            assert got == self.rates, context
            if self.last_was_full:
                live_levels = [entry[0] for entry in self.live._round_log]
                assert live_levels == self.levels, context
        return delta

    def froze_after_round_zero(self, fids):
        """True when no flow of ``fids`` can have frozen in round 0: levels
        never fall from round to round, so round 0 set the lowest rate."""
        routed = [r for fid, r in self.rates.items() if self.active[fid].links]
        lowest = min(routed)
        return all(
            self.rates[fid] > lowest for fid in fids if self.active[fid].links
        )


@pytest.mark.parametrize("make_instance", [_tree_instance, _mesh_instance])
def test_random_edit_sequences_stay_bit_identical(make_instance):
    rng = random.Random(0x5E50)
    resumed = partial = after_add = memoised = 0
    for trial in range(6):
        caps, demands = make_instance(rng)
        names = sorted(demands)
        rng.shuffle(names)
        held_back = {fid: demands[fid] for fid in names[:40]}
        driver = _Driver(caps, {fid: demands[fid] for fid in names[40:]})
        for step in range(14):
            context = f"{make_instance.__name__} trial {trial} step {step}"
            was_full = driver.last_was_full
            roll = rng.random()
            if roll < 0.2 and held_back:
                # Adds (freed slots are reused): the log must start over.
                batch = [held_back.popitem() for _ in range(min(3, len(held_back)))]
                if rng.random() < 0.5 and driver.active:
                    driver.remove([rng.choice(sorted(driver.active))])
                driver.add(dict(batch))
                delta = driver.settle(context)
                assert delta["rounds_replayed"] == 0, context
                after_add += 1
                continue
            if roll < 0.25:
                # Every flow leaves, and others take their slots.
                driver.remove(sorted(driver.active), batched=True)
                driver.add({fid: demands[fid] for fid in names[40:120]})
                delta = driver.settle(context)
                assert delta["rounds_replayed"] == 0, context
                continue
            count = 1 if roll < 0.7 else rng.randint(2, 6)
            gone = rng.sample(sorted(driver.active), min(count, len(driver.active) - 1))
            late = driver.froze_after_round_zero(gone)
            driver.remove(gone)
            delta = driver.settle(context)
            partial += delta["partial_solves"]
            if delta["full_solves"] and was_full and late:
                assert delta["rounds_replayed"] > 0, context
                resumed += 1
                memoised += delta["rounds_memoised"]
    # The sequences must have exercised each regime, not just passed it by
    # (the memo over all resumed solves: one alone may search no round).
    assert resumed >= 20 and after_add >= 5 and memoised >= resumed
    if make_instance is _mesh_instance:
        assert partial >= 1


def _giant_component(n_flows=200, seed=3):
    """Flows over six shared links with distinct caps-free shares: one
    component, many rounds, every solve full."""
    rng = random.Random(seed)
    caps = {f"l{i}": 10.0 + i for i in range(6)}
    caps["wide"] = 1000.0  # every flow crosses it: the closure is the flow set
    demands = {
        f"f{f}": FlowDemand(
            links=("wide",) + tuple(rng.sample(sorted(caps)[:6], rng.randint(1, 2)))
        )
        for f in range(n_flows)
    }
    return caps, demands


def test_resume_at_round_zero_and_at_the_last_round():
    caps, demands = _giant_component()
    driver = _Driver(caps, demands)
    rounds = driver.stats["rounds"]
    assert rounds >= 3 and driver.stats["rounds_replayed"] == 0
    freeze_round = driver.live._freeze_round
    by_round = {
        int(freeze_round[slot]): fid for fid, slot in driver.slot_of.items()
    }
    # Last-frozen flow: every earlier round is replayed.
    driver.remove([by_round[rounds - 1]])
    delta = driver.settle("remove last-frozen")
    assert delta["full_solves"] == 1
    assert delta["rounds_replayed"] == rounds - 1
    # First-frozen flow: nothing can be replayed.
    driver.remove([by_round[0]])
    delta = driver.settle("remove first-frozen")
    assert delta["full_solves"] == 1
    assert delta["rounds_replayed"] == 0 and delta["rounds"] > 0
    # A solve with no edit in between is cached: no rounds at all.
    assert driver.settle("no edit") == dict.fromkeys(delta, 0)


def test_linkless_and_unconstrained_flows_resume_exactly():
    caps, demands = _giant_component(n_flows=120)
    # Every flow also crosses a link of infinite capacity, so the flows that
    # cross nothing else are unconstrained *and* part of the big component.
    caps["open"] = math.inf
    demands = {
        fid: FlowDemand(links=demand.links + ("open",))
        for fid, demand in demands.items()
    }
    demands.update(
        {
            "linkless": FlowDemand(links=()),
            "free_a": FlowDemand(links=("open",)),
            "free_b": FlowDemand(links=("open",)),
        }
    )
    driver = _Driver(caps, demands)
    assert driver.rates["linkless"] == math.inf and driver.rates["free_a"] == math.inf
    rounds = driver.stats["rounds"]
    # Neither a linkless nor an unconstrained flow took part in any round:
    # removing one replays the whole log.
    for fid in ("linkless", "free_a"):
        driver.remove([fid])
        delta = driver.settle(f"remove {fid}")
        # "linkless" touches no link, so its removal re-solves nothing.
        expected = 0 if fid == "linkless" else rounds
        assert delta["rounds_replayed"] == expected, fid


def _memo_hazard_instance():
    """A giant component in which tight link ``b`` freezes the batch
    {F, H1, H2} — slots 0, 1, 2 — and F alone also crosses ``x``."""
    caps, filler = _giant_component(n_flows=200)
    caps.update({"b": 3.0, "x": 10.0, "y": 10.0})
    demands = {
        "F": FlowDemand(links=("wide", "b", "x")),
        "H1": FlowDemand(links=("wide", "b")),
        "H2": FlowDemand(links=("wide", "b")),
    }
    demands.update({f"x{i}": FlowDemand(links=("wide", "x")) for i in range(5)})
    demands.update({f"y{i}": FlowDemand(links=("wide", "y")) for i in range(5)})
    demands.update(filler)
    return caps, demands


@pytest.mark.parametrize("batched", [False, True])
def test_freed_slot_reused_on_the_same_bottleneck_link(batched):
    """The memo's one hazard: F leaves b's freeze batch and G, with another
    row across b, takes its slot — b's member count and every stored slot's
    frozen state look as they did, only the histogram is F's.  Removal must
    have dropped the entry, through ``remove_flow`` and ``remove_flows``."""
    caps, demands = _memo_hazard_instance()
    driver = _Driver(caps, demands)
    slot = driver.slot_of["F"]
    frozen_in = driver.live._freeze_round
    assert frozen_in[slot] == frozen_in[driver.slot_of["H1"]] != 0
    assert driver.rates["F"] == 1.0 and driver.rates["x0"] == 1.8
    # Batched, F goes last: the free list hands its slot out first.
    gone = [f"f{i}" for i in range(_BATCH_MIN)] * batched + ["F"]
    driver.remove(gone, batched=batched)
    driver.add({"G": FlowDemand(links=("wide", "b", "y"))})
    assert driver.slot_of["G"] == slot
    delta = driver.settle("slot reused")
    assert delta["full_solves"] == 1 and delta["rounds_replayed"] == 0
    assert driver.rates["G"] == 1.0
    assert driver.rates["x0"] == 2.0 and driver.rates["y0"] == 1.8
    # The fill did use the memo — for the links F never crossed.
    assert delta["rounds_memoised"] > 0


def test_replay_corner_cases_match_the_parent_fill():
    """Rounds the random instances reach only by luck, inside a replayed
    prefix: zero-capacity links (a link at exactly 0.0 touched again by a
    later round), two links with equal shares sharing a flow (both drained
    to exactly 0.0, the second over two rounds), and an infinite link
    drained by a zero and by a positive level, on both sides of the resume
    mark.  ``_Driver.settle`` holds every fill to the parent's: slot rates
    and per-round levels."""
    caps, demands = _giant_component(n_flows=150)
    caps.update(
        {"wide": 1e6, "z1": 0.0, "z2": 0.0, "t1": 8.0, "t2": 8.0,
         "open": math.inf, "last": 50.0}
    )
    demands.update(
        {
            "za": FlowDemand(links=("wide", "z1", "z2", "open")),
            "zb": FlowDemand(links=("wide", "z1")),
            "zc": FlowDemand(links=("wide", "z2")),
            "open_l0": FlowDemand(links=("wide", "l0", "open")),
            "tb": FlowDemand(links=("wide", "t1", "t2")),
            "last1": FlowDemand(links=("wide", "last")),
            "last2": FlowDemand(links=("wide", "last")),
        }
    )
    demands.update({f"ta{i}": FlowDemand(links=("wide", "t1")) for i in range(3)})
    demands.update({f"tc{i}": FlowDemand(links=("wide", "t2")) for i in range(3)})
    driver = _Driver(caps, demands)
    rounds = driver.stats["rounds"]
    assert driver.levels[:2] == [0.0, 0.0]  # z1, then z2 again
    assert driver.levels[-3:] == [2.0, 2.0, 25.0]  # t1, t2, last
    assert driver.rates["za"] == driver.rates["zc"] == 0.0
    assert driver.rates["tb"] == driver.rates["tc0"] == 2.0
    assert driver.rates["last1"] == 25.0
    # Mid-fill mark: t1's round (drained to 0.0, t2 touched) is replayed;
    # t2's own round and the last round are searched.
    driver.remove(["tc0"])
    delta = driver.settle("remove tc0")
    assert delta["full_solves"] == 1 and delta["rounds_replayed"] == rounds - 2
    assert driver.levels[-3:] == [2.0, 3.0, 25.0]
    # Mark at the last round: everything before it is replayed.
    driver.remove(["last1"])
    delta = driver.settle("remove last1")
    assert delta["rounds_replayed"] == rounds - 1
    assert driver.levels[-1] == 50.0 and driver.rates["last2"] == 50.0


def test_partial_and_scalar_solves_in_between_invalidate_the_log():
    caps, demands = _giant_component(n_flows=150)
    caps.update({"side": 5.0})
    demands.update({f"s{i}": FlowDemand(links=("side",)) for i in range(3)})
    driver = _Driver(caps, demands)
    # An edit on the private link re-solves three slots, partially ...
    driver.remove(["s0"])
    delta = driver.settle("partial")
    assert delta["partial_solves"] == 1 and delta["full_solves"] == 0
    # ... after which the next full solve starts from round 0, even though
    # the flow removed now froze last.
    def last():
        return max(
            (fid for fid in driver.active if fid.startswith("f")),
            key=lambda fid: driver.live._freeze_round[driver.slot_of[fid]],
        )

    driver.remove([last()])
    delta = driver.settle("full after partial")
    assert delta["full_solves"] == 1 and delta["rounds_replayed"] == 0
    # A full scalar solve in between voids the log the same way.
    with pytest.MonkeyPatch.context() as patch:
        force_solves(patch, False)
        driver.remove([last()])
        delta = driver.settle("scalar")
        assert delta["full_solves"] == 1 and delta["rounds"] == 0
    driver.remove([last()])
    delta = driver.settle("vector again")
    assert delta["rounds"] > 0 and delta["rounds_replayed"] == 0


def test_scalar_solver_on_two_infinite_links():
    """Unconstrained flows on two infinite links with different members: the
    scalar drain must leave ``inf - 1*inf`` infinite, not NaN -> 0."""
    caps = {"a": math.inf, "b": math.inf}
    demands = {
        "both": FlowDemand(links=("a", "b")),
        "only_b": FlowDemand(links=("b",)),
    }
    assert _from_scratch(caps, demands, vector=True) == max_min_allocation(demands, caps)
    assert _from_scratch(caps, demands, vector=False) == max_min_allocation(demands, caps)


# -------------------------------------------------------------- written slots
def _solve_kind(before, after, vectorised):
    if after["partial_solves"] > before["partial_solves"]:
        return "partial"
    if after["full_solves"] > before["full_solves"]:
        return "vector" if vectorised else "scalar"
    return "cached"


@pytest.mark.parametrize("make_instance", [_tree_instance, _mesh_instance])
def test_written_slots_cover_every_rate_a_solve_changed(make_instance, monkeypatch):
    """After every solve, each slot whose rate changed — and each slot
    registered since the solve before — is in ``written_slots()``, once, or
    the report is None.  Two solves between reads give None; a read with no
    solve since gives nothing.  The edit scripts mix single and batched adds
    (linkless flows among them) and removals, capacity changes, and solves
    on both full paths and partial ones."""
    monkeypatch.setattr(alloc, "_BATCH_MIN", 8)
    rng = random.Random(0x3177)
    kinds = {"partial": 0, "vector": 0, "scalar": 0, "cached": 0}
    sparse = twice = 0
    for trial in range(5):
        caps, demands = make_instance(rng)
        index = {link: i for i, link in enumerate(caps)}
        finite = [link for link, cap in caps.items() if cap < math.inf]
        pool = sorted(demands)
        rng.shuffle(pool)
        live = IncrementalAllocator(caps)
        slot_of = {}

        def add(fids):
            rows = [index[link] for fid in fids for link in demands[fid].links]
            lengths = [len(demands[fid].links) for fid in fids]
            if len(fids) == 1:
                slots = [live.add_flow(fids[0], demands[fids[0]].links)]
            else:
                slots = live.add_flows(fids, rows, lengths).tolist()
            slot_of.update(zip(fids, slots))
            return set(slots)

        fresh = add(pool[:120])
        pool = pool[120:]
        rates = None
        for step in range(30):
            context = f"{make_instance.__name__} trial {trial} step {step}"
            vectorised = rng.random() < 0.7
            force_solves(monkeypatch, vectorised)
            before = live.solver_stats()
            got = live.solve_slots()
            kind = _solve_kind(before, live.solver_stats(), vectorised)
            if rng.random() < 0.15 and pool:
                # A second solve before the read: the report is void.
                fresh |= add([pool.pop()])
                live.solve_slots()
                assert live.written_slots() is None, context
                twice += 1
            else:
                written = live.written_slots()
                kinds[kind] += 1
                if written is not None:
                    written = written.tolist()
                    assert len(set(written)) == len(written), context
                    assert set(written) <= set(slot_of.values()), context
                    changed = {
                        slot for slot in slot_of.values()
                        if slot in fresh or rates is None
                        or slot >= rates.shape[0] or got[slot] != rates[slot]
                    }
                    assert changed <= set(written), context
                    sparse += len(written) < len(slot_of)
                else:
                    assert kind != "partial", context
                assert live.written_slots().shape == (0,), context
            rates, fresh = live.solve_slots().copy(), set()
            # The next edit: adds, removals, or a capacity change.
            roll = rng.random()
            if roll < 0.1:
                # A linkless flow alone: no link is dirty, so a partial solve.
                fid = f"free{trial}.{step}"
                demands[fid] = FlowDemand(links=())
                fresh |= add([fid])
            elif roll < 0.3 and pool:
                batch = [pool.pop() for _ in range(min(len(pool), rng.choice([1, 3, 12])))]
                fresh |= add(batch)
            elif roll < 0.8 and len(slot_of) > 10:
                gone = rng.sample(sorted(slot_of), rng.choice([1, 2, 12]))
                if len(gone) == 1:
                    live.remove_flow(gone[0])
                else:
                    live.remove_flows(gone)
                for fid in gone:
                    del slot_of[fid]
            else:
                live.update_capacities({rng.choice(finite): rng.uniform(1.0, 1e4)})
    # Every regime was reached, and reports were smaller than the flow set.
    assert kinds["vector"] >= 20 and kinds["scalar"] >= 10 and twice >= 5
    if make_instance is _mesh_instance:
        assert kinds["partial"] >= 5
    else:
        assert sparse >= 5


# -------------------------------------------------------------- closure cost
class _CountedSet(set):
    """A member set that tallies every slot a walk iterates over."""

    def __init__(self, slots, tally):
        super().__init__(slots)
        self.tally = tally

    def __iter__(self):
        for slot in set.__iter__(self):
            self.tally[0] += 1
            yield slot


def _members_inspected_by_walk(live):
    """Run ``_dirty_closure`` once; return its verdict and how many member
    slots it iterated over on the way."""
    tally = [0]
    original = live._members
    live._members = [_CountedSet(slots, tally) for slots in original]
    try:
        return live._dirty_closure(), tally[0]
    finally:
        live._members = original


def _pod_mesh_allocator(racks, hosts_per_rack, cross_rack):
    """One pod's hosts in a full ordered mesh (a scaled-down ``fluid_giant``)
    or, with ``cross_rack=False``, only the rack-local pairs: disjoint
    rack-sized components."""
    spec = TreeSpec(pods=2, racks_per_pod=racks, hosts_per_rack=hosts_per_rack, num_cores=2)
    topo = build_multi_rooted_tree(spec)
    pod = sorted(topo.hosts(), key=lambda h: int(h[4:]))[: racks * hosts_per_rack]
    live = IncrementalAllocator(topo.capacities())
    rack_local = []
    for a in pod:
        for b in pod:
            if a == b or not (cross_rack or topo.same_rack(a, b)):
                continue
            fid = f"{a}>{b}"
            live.add_flow(fid, [link.link_id for link in topo.path_links(a, b)])
            if topo.same_rack(a, b):
                rack_local.append(fid)
    live.solve_slots()
    return live, rack_local


def test_giant_component_is_recognised_in_o_path_steps():
    live, rack_local = _pod_mesh_allocator(racks=4, hosts_per_rack=24, cross_rack=True)
    n = len(live)
    assert n == 96 * 95 and _partial_limit(n) == 1024
    live.remove_flow(rack_local[0])
    verdict, inspected = _members_inspected_by_walk(live)
    # The retired flow's host links carry 95 flows each — thin; the first
    # flow visited on one of them crosses a rack link, which is not.
    assert verdict is None and inspected <= 64
    before = live.solver_stats()
    live.solve_slots()
    after = live.solver_stats()
    assert after["full_solves"] == before["full_solves"] + 1
    assert after["rounds_replayed"] > before["rounds_replayed"]


def test_giant_component_of_thin_links_is_recognised_early():
    """A 40 × 40 shuffle over host links only: no link has more than 40
    members, the component has 1 600 — the member sets the walk discovers
    add up to the verdict long before it has collected ``limit`` slots."""
    caps = {f"up{i}": 1.0 for i in range(40)}
    caps.update({f"down{i}": 1.0 for i in range(40)})
    live = IncrementalAllocator(caps)
    for i in range(40):
        for j in range(40):
            live.add_flow(f"{i}>{j}", [f"up{i}", f"down{j}"])
    live.solve_slots()
    assert _partial_limit(len(live)) == 800
    live.remove_flow("0>0")
    verdict, inspected = _members_inspected_by_walk(live)
    assert verdict is None and inspected <= 100


def test_rack_local_retirement_still_takes_the_partial_path():
    hosts_per_rack = 12
    live, rack_local = _pod_mesh_allocator(
        racks=6, hosts_per_rack=hosts_per_rack, cross_rack=False
    )
    rack_flows = hosts_per_rack * (hosts_per_rack - 1)
    assert len(live) == 6 * rack_flows
    before = live.solver_stats()
    live.remove_flow(rack_local[0])
    live.solve_slots()
    after = live.solver_stats()
    assert after["partial_solves"] == before["partial_solves"] + 1
    assert after["full_solves"] == before["full_solves"]
    assert 0 < after["partial_slots"] - before["partial_slots"] <= rack_flows


# ----------------------------------------------------------- component labels
def _components(demands, index):
    """Plain BFS over the flow↔link graph of the routed flows in
    ``demands``: per component, its link indices and its flow count."""
    rows = {fid: {index[link] for link in d.links} for fid, d in demands.items() if d.links}
    flows_on = {}
    for fid, links in rows.items():
        for link in links:
            flows_on.setdefault(link, []).append(fid)
    seen, components = set(), []
    for start in rows:
        if start in seen:
            continue
        seen.add(start)
        queue, links, n = [start], set(), 0
        while queue:
            fid = queue.pop()
            n += 1
            for link in rows[fid] - links:
                links.add(link)
                for other in flows_on[link]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        components.append((links, n))
    return components


@pytest.mark.parametrize("make_instance", [_tree_instance, _mesh_instance])
def test_component_labels_bound_every_closure(make_instance):
    """Right after labeling, every link carries its component's least link
    index and every label counts its component's routed flows.  Removals
    (flow by flow and batched) keep the labels and take each flow off its
    label's count, so a count is the exact number of routed flows left
    under its label — at least any one component's, and equal to it while
    nothing split.  A capacity change keeps the labels; an add voids them."""
    rng = random.Random(0x1ABE)
    split = 0
    for trial in range(6):
        caps, demands = make_instance(rng)
        index = {link: i for i, link in enumerate(caps)}
        live = IncrementalAllocator(caps)
        for fid, demand in demands.items():
            live.add_flow(fid, demand.links)
        live._label_components()
        label, count = live._label, live._label_count
        components = _components(demands, index)
        for links, n in components:
            assert {label[link] for link in links} == {min(links)}
            assert count[min(links)] == n
        in_use = set().union(*(links for links, _ in components))
        assert all(label[i] == i for i in range(len(caps)) if i not in in_use)
        assert sum(count) == sum(n for _, n in components)

        active = dict(demands)
        for step in range(5):
            k = min(rng.choice([1, 4, _BATCH_MIN + 3]), len(active) - 1)
            gone = rng.sample(sorted(active), k)
            if k == 1:
                live.remove_flow(gone[0])
            else:
                live.remove_flows(gone)
            for fid in gone:
                del active[fid]
            assert live._label is label and live._label_count is count
            sizes = {}
            for links, n in _components(active, index):
                owner = {label[link] for link in links}
                assert len(owner) == 1, (trial, step)  # removals never join
                sizes.setdefault(owner.pop(), []).append(n)
            for owner, ns in sizes.items():
                assert count[owner] == sum(ns) >= max(ns), (trial, step)
                split += len(ns) > 1
            assert sum(count) == sum(map(sum, sizes.values()))

        finite = next(link for link, cap in caps.items() if cap < math.inf)
        live.update_capacities({finite: caps[finite] + 1.0})
        assert live._label is label
        live.add_flow("late", (finite,))
        assert live._label is None
    assert split > 0  # some removals did split a component


def _pod_and_rack_allocator():
    """Pod 0 of a two-pod tree in a full ordered mesh (one giant component)
    and a 3-host rack-local mesh in pod 1 (six flows of their own)."""
    spec = TreeSpec(pods=2, racks_per_pod=4, hosts_per_rack=6, num_cores=2)
    topo = build_multi_rooted_tree(spec)
    hosts = sorted(topo.hosts(), key=lambda h: int(h[4:]))
    pod, small = hosts[:24], hosts[24:27]
    assert all(topo.same_rack(small[0], host) for host in small)
    live = IncrementalAllocator(topo.capacities())
    for group in (pod, small):
        for a in group:
            for b in group:
                if a != b:
                    live.add_flow(f"{a}>{b}", [link.link_id for link in topo.path_links(a, b)])
    live.solve_slots()
    return live, pod, small


def _solve_delta(live):
    before = live.solver_stats()
    live.solve_slots()
    after = live.solver_stats()
    return {key: after[key] - before[key] for key in after}


def test_a_retirement_in_a_small_component_stays_partial_after_a_giant_fails():
    """The giant's failed walk labels the components; from then on the
    giant's walks are skipped, while the small component — whose links
    such a failed walk may well have discovered — is still walked and
    re-solved alone."""
    live, pod, small = _pod_and_rack_allocator()
    live.remove_flow(f"{pod[0]}>{pod[1]}")
    delta = _solve_delta(live)
    assert delta["full_solves"] == 1 and delta["walks"] == 1
    assert delta["labelings"] == 1 and delta["walks_skipped"] == 0
    live.remove_flow(f"{small[0]}>{small[1]}")
    delta = _solve_delta(live)
    assert delta["partial_solves"] == 1 and delta["partial_slots"] == 5
    assert delta["walks"] == 1 and delta["walks_skipped"] == 0
    live.remove_flow(f"{pod[2]}>{pod[3]}")
    delta = _solve_delta(live)
    assert delta["full_solves"] == 1 and delta["walks_skipped"] == 1
    assert delta["walks"] == 0 and delta["labelings"] == 0


def test_a_split_giant_takes_partial_solves_again_once_it_halves():
    """Six 12-host rack-local meshes joined by five bridging flows.  Once
    the bridges are gone each rack is a component of its own, but the
    labels still count the giant, so a rack's retirement re-solves in
    full; after half the counted flows have left the labels are dropped
    and a rack's retirement is re-solved alone again."""
    spec = TreeSpec(pods=2, racks_per_pod=6, hosts_per_rack=12, num_cores=2)
    topo = build_multi_rooted_tree(spec)
    hosts = sorted(topo.hosts(), key=lambda h: int(h[4:]))
    racks = [hosts[12 * r : 12 * (r + 1)] for r in range(6)]
    live = IncrementalAllocator(topo.capacities())
    by_rack = []
    for rack in racks:
        assert all(topo.same_rack(rack[0], host) for host in rack)
        fids = [f"{a}>{b}" for a in rack for b in rack if a != b]
        for fid in fids:
            a, b = fid.split(">")
            live.add_flow(fid, [link.link_id for link in topo.path_links(a, b)])
        by_rack.append(fids)
    bridges = [f"{racks[r][0]}>{racks[r + 1][0]}" for r in range(5)]
    for fid in bridges:
        a, b = fid.split(">")
        live.add_flow(fid, [link.link_id for link in topo.path_links(a, b)])
    live.solve_slots()

    live.remove_flow(by_rack[0].pop())
    delta = _solve_delta(live)
    assert delta["full_solves"] == 1 and delta["labelings"] == 1
    for fid in bridges:
        live.remove_flow(fid)
    live.remove_flow(by_rack[0].pop())
    delta = _solve_delta(live)
    assert delta["full_solves"] == 1 and delta["walks_skipped"] == 1
    # Half the counted flows leave: three racks at once.
    live.remove_flows([fid for fids in by_rack[3:] for fid in fids])
    delta = _solve_delta(live)
    assert delta["partial_solves"] == 1 and delta["walks"] == 1
    live.remove_flow(by_rack[0].pop())
    delta = _solve_delta(live)
    assert delta["partial_solves"] == 1 and delta["walks_skipped"] == 0
    assert delta["partial_slots"] == len(by_rack[0]) and delta["labelings"] == 0


def test_vector_fill_layout_follows_links_entering_and_leaving_use():
    """The fill keeps its link layout between solves: a link leaving use,
    one re-entering it (last in ``_link_use``'s order) beside one new to
    it, and capacity changes between two vector solves are each held
    ``==`` to a fresh allocator's rates by ``_Driver.settle``."""
    caps, demands = _giant_component(n_flows=150)
    caps.update({"x": 4.0, "y": 6.0})
    demands["on_x"] = FlowDemand(links=("wide", "x", "l1"))
    driver = _Driver(caps, demands)
    driver.remove(["on_x"])
    assert driver.settle("x leaves use")["full_solves"] == 1
    driver.add(
        {
            "on_y": FlowDemand(links=("y", "wide")),
            "on_x2": FlowDemand(links=("wide", "x")),
        }
    )
    assert driver.settle("x re-enters use")["full_solves"] == 1
    for change in ({"x": 0.01}, {"l0": 1.0, "y": 7.0}):
        driver.live.update_capacities(change)
        driver.caps = {**driver.caps, **change}
        driver.parent_fill.added()  # a capacity change restarts the fill too
        assert driver.settle(f"capacities {change}")["full_solves"] == 1
    assert driver.rates["on_x2"] == 0.01
