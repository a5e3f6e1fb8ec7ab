"""Resumable water-filling and the dirty-closure walk of ``repro.net.alloc``.

One long-lived ``mode="vector"`` allocator is driven through random edit
sequences; after every edit its rates must equal — exactly — what a fresh
allocator computes from scratch for the same flow set, on the vector path
and on the scalar path, agree with the reference within 1e-9, and pass the
max-min certificate.  Every vector fill is also held — slot rates and
per-round levels, ``==`` — to the fill of the commit before the freeze-batch
memo, the compact link state and the one-pass replay
(``tests/oracles/parent_fill.py``).  The counters must show the resume and
the memo working where they have to, and no replay after an add.
"""

import math
import random

import pytest

from oracles.parent_fill import ParentFill
from repro.net.alloc import _BATCH_MIN, IncrementalAllocator, _partial_limit
from repro.net.fairness import FlowDemand, max_min_allocation, max_min_violations
from repro.net.topology import TreeSpec, build_multi_rooted_tree


# ------------------------------------------------------------------ instances
def _tree_instance(rng):
    """A random tree, and flows between random host pairs: mostly cross-rack
    (one big sharing component), some capped low enough to freeze by cap,
    some linkless."""
    spec = TreeSpec(
        pods=rng.randint(1, 2),
        racks_per_pod=rng.randint(2, 3),
        hosts_per_rack=rng.randint(3, 5),
        num_cores=rng.randint(1, 2),
    )
    topo = build_multi_rooted_tree(spec)
    caps = topo.capacities()
    hosts = topo.hosts()
    fair = min(caps.values()) / 40.0
    demands = {}
    for f in range(rng.randint(150, 260)):
        src, dst = rng.choice(hosts), rng.choice(hosts)
        links = () if rng.random() < 0.03 else tuple(
            link.link_id for link in topo.path_links(src, dst)
        )
        cap = rng.uniform(0.2, 3.0) * fair if rng.random() < 0.3 else None
        demands[f"f{f}"] = FlowDemand(links=links, max_rate=cap)
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
        cap = rng.uniform(0.01, 1.0) if rng.random() < 0.3 else None
        demands[f"f{f}"] = FlowDemand(links=links, max_rate=cap)
    return caps, demands


# --------------------------------------------------------------------- oracle
def _from_scratch(caps, active, mode):
    fresh = IncrementalAllocator(caps, mode=mode)
    for fid in sorted(active):
        fresh.add_demand(fid, active[fid])
    return fresh.solve()


def _check(live, slot_of, caps, active, context):
    """The live allocator's slot rates against every oracle."""
    slot_rates = live.solve_slots()
    got = {fid: float(slot_rates[slot_of[fid]]) for fid in active}
    assert got == live.solve(), context
    assert got == _from_scratch(caps, active, "vector"), context
    assert got == _from_scratch(caps, active, "scalar"), context
    reference = max_min_allocation(active, caps)
    for fid, rate in reference.items():
        if math.isinf(rate):
            assert math.isinf(got[fid]), (context, fid)
        else:
            assert got[fid] == pytest.approx(rate, rel=1e-9, abs=1e-9), (context, fid)
    if all(len(set(d.links)) == len(d.links) for d in active.values()):
        assert max_min_violations(active, caps, got) == [], context
    return got


class _Driver:
    """One live allocator, the flow set it should hold, the parent commit's
    fill shadowing it, and stats deltas."""

    def __init__(self, caps, demands):
        self.caps = caps
        self.live = IncrementalAllocator(caps, mode="vector")
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
            self.slot_of[fid] = self.live.add_demand(fid, demand)
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
                driver.live.clear()
                driver.active.clear()
                driver.slot_of.clear()
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


def test_capped_linkless_and_unconstrained_flows_resume_exactly():
    caps, demands = _giant_component(n_flows=120)
    # Every flow also crosses a link of infinite capacity, so the flows that
    # cross nothing else are unconstrained *and* part of the big component.
    caps["open"] = math.inf
    demands = {
        fid: FlowDemand(links=demand.links + ("open",))
        for fid, demand in demands.items()
    }
    # A cap just under the middle water level freezes its flow mid-fill.
    levels = sorted(set(max_min_allocation(demands, caps).values()))
    mid = 0.999 * levels[len(levels) // 2]
    demands.update(
        {
            "low_cap": FlowDemand(links=("wide", "l0"), max_rate=1e-3),
            "mid_cap": FlowDemand(links=("wide", "l5"), max_rate=mid),
            "high_cap": FlowDemand(links=("wide", "l1"), max_rate=1e6),
            "linkless": FlowDemand(links=()),
            "linkless_capped": FlowDemand(links=(), max_rate=7.0),
            "free_a": FlowDemand(links=("open",)),
            "free_b": FlowDemand(links=("open",)),
        }
    )
    driver = _Driver(caps, demands)
    assert driver.rates["low_cap"] == 1e-3 and driver.rates["mid_cap"] == mid
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
    # The flow frozen by the lowest cap froze first: resume from round 0.
    driver.remove(["low_cap"])
    assert driver.settle("remove low_cap")["rounds_replayed"] == 0
    # A flow frozen by its cap mid-fill: the rounds before it are replayed.
    driver.remove(["mid_cap"])
    delta = driver.settle("remove mid_cap")
    assert 0 < delta["rounds_replayed"] < delta["rounds"]


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


def test_clear_forgets_the_memo():
    caps, demands = _memo_hazard_instance()
    driver = _Driver(caps, demands)
    driver.live.clear()
    driver.active.clear()
    driver.slot_of.clear()
    # Fewer flows, and other rows in the slots b's stored batch named.
    fewer = {"G": FlowDemand(links=("wide", "b", "y"))}
    fewer.update({fid: demands[fid] for fid in list(demands)[1:90]})
    driver.add(fewer)
    delta = driver.settle("after clear")
    assert delta["rounds_memoised"] == 0 and delta["rounds_replayed"] == 0
    assert driver.rates["x0"] == 2.0 and driver.rates["y0"] == 1.8


def test_replay_corner_cases_match_the_parent_fill():
    """Rounds the random instances reach only by luck, inside a replayed
    prefix: zero-capacity links (a link at exactly 0.0 touched again by a
    later round), two links with equal shares sharing a flow (both drained
    to exactly 0.0, the second over two rounds), an infinite link drained
    by a zero and by a positive level, and cap-frozen single-flow rounds
    on both sides of the resume mark.  ``_Driver.settle`` holds every fill
    to the parent's: slot rates and per-round levels."""
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
            "low_cap": FlowDemand(links=("wide", "l5"), max_rate=1e-3),
            "high_cap": FlowDemand(links=("wide", "last"), max_rate=10.0),
            "last1": FlowDemand(links=("wide", "last")),
            "last2": FlowDemand(links=("wide", "last")),
        }
    )
    demands.update({f"ta{i}": FlowDemand(links=("wide", "t1")) for i in range(3)})
    demands.update({f"tc{i}": FlowDemand(links=("wide", "t2")) for i in range(3)})
    driver = _Driver(caps, demands)
    rounds = driver.stats["rounds"]
    assert driver.levels[:3] == [0.0, 0.0, 1e-3]  # z1, then z2 again, the cap
    assert driver.levels[-4:] == [2.0, 2.0, 10.0, 20.0]  # t1, t2, cap, last
    assert driver.rates["za"] == driver.rates["zc"] == 0.0
    assert driver.rates["tb"] == driver.rates["tc0"] == 2.0
    assert driver.rates["high_cap"] == 10.0 and driver.rates["last1"] == 20.0
    # Mid-fill mark: t1's round (drained to 0.0, t2 touched) is replayed;
    # t2's own round, high_cap's cap round and the last round are searched.
    driver.remove(["tc0"])
    delta = driver.settle("remove tc0")
    assert delta["full_solves"] == 1 and delta["rounds_replayed"] == rounds - 3
    assert driver.levels[-4:] == [2.0, 3.0, 10.0, 20.0]
    # Mark at the last round: everything before it is replayed, caps included.
    driver.remove(["last1"])
    delta = driver.settle("remove last1")
    assert delta["rounds_replayed"] == rounds - 1
    assert driver.levels[-1] == 40.0 and driver.rates["last2"] == 40.0


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
    last = max(
        (fid for fid in driver.active if fid.startswith("f")),
        key=lambda fid: driver.live._freeze_round[driver.slot_of[fid]],
    )
    driver.remove([last])
    delta = driver.settle("full after partial")
    assert delta["full_solves"] == 1 and delta["rounds_replayed"] == 0
    # A duplicate-link flow forces the scalar solver: same rule.
    driver.add({"dup": FlowDemand(links=("l0", "l0", "wide"))})
    assert driver.settle("scalar")["rounds"] == 0
    driver.remove(["dup"])
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
    assert _from_scratch(caps, demands, "vector") == max_min_allocation(demands, caps)
    assert _from_scratch(caps, demands, "scalar") == max_min_allocation(demands, caps)


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
    live = IncrementalAllocator(topo.capacities(), mode="vector")
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
    live = IncrementalAllocator(caps, mode="vector")
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
