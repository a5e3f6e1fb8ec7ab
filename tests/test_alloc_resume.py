"""Resumable water-filling and the dirty-closure walk of ``repro.net.alloc``.

One long-lived ``mode="vector"`` allocator is driven through random edit
sequences; after every edit its rates must equal — exactly — what a fresh
allocator computes from scratch for the same flow set, on the vector path
and on the scalar path, agree with the reference within 1e-9, and pass the
max-min certificate.  The counters must show the resume happening where it
has to and not happening after an add.
"""

import math
import random

import pytest

from repro.net.alloc import IncrementalAllocator, _partial_limit
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
    """One live allocator, the flow set it should hold, and stats deltas."""

    def __init__(self, caps, demands):
        self.caps = caps
        self.live = IncrementalAllocator(caps, mode="vector")
        self.active = {}
        self.slot_of = {}
        self.stats = self.live.solver_stats()
        self.last_was_full = False
        self.rates = {}
        self.add(demands)
        self.settle("initial")

    def add(self, demands):
        for fid, demand in demands.items():
            self.slot_of[fid] = self.live.add_demand(fid, demand)
            self.active[fid] = demand

    def remove(self, fids):
        for fid in fids:
            self.live.remove_flow(fid)
            del self.active[fid], self.slot_of[fid]

    def settle(self, context):
        """Solve, check against the oracles, return the stats deltas."""
        self.rates = _check(self.live, self.slot_of, self.caps, self.active, context)
        stats = self.live.solver_stats()
        delta = {key: stats[key] - self.stats[key] for key in stats}
        self.stats = stats
        self.last_was_full = delta["full_solves"] == 1
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
    resumed = partial = after_add = 0
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
    # The sequences must have exercised each regime, not just passed it by.
    assert resumed >= 20 and after_add >= 5
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
