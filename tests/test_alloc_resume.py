"""Resumable water-filling in ``repro.net.alloc``.

One long-lived allocator, its solves forced onto the vector path, is driven
through random edit sequences; after every edit its rates must equal —
exactly — what a fresh allocator computes from scratch for the same flow
set, on the vector path and on the scalar path, agree with the reference
(``tests/oracles/max_min.py``) within 1e-9, and pass the
max-min certificate.  Every full vector fill is also held — round by
round, its level and the links it drained by how many flows, ``==`` — to a
fresh allocator's fill of the same flow set, which replays no round.  The
counters must show the resume working where it has to, and no replay after
an add.
"""

import math
import random

import pytest

from oracles.graph_search import route_ids
from oracles.max_min import add_paths, force_solves, max_min_allocation, rates_by_name
from repro.net import alloc
from repro.net.alloc import _BATCH_MIN, IncrementalAllocator
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
        links = () if rng.random() < 0.03 else tuple(route_ids(topo, src, dst))
        demands[f"f{f}"] = FlowDemand(links=links)
    return caps, demands


def _mesh_instance(rng):
    """Random link sets with no tree in them: a core of shared links (one
    big component), a few private links used by small groups, and a link of
    infinite capacity (flows that only cross it stay unconstrained)."""
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
def _fresh(caps, active, vector):
    """A fresh allocator of the flow set, solved on the given fill."""
    with pytest.MonkeyPatch.context() as patch:
        force_solves(patch, vector)
        fresh = IncrementalAllocator(caps)
        slots = add_paths(fresh, {fid: active[fid].links for fid in sorted(active)})
        fresh.solve_slots()
        return fresh, slots


def _from_scratch(caps, active, vector):
    return rates_by_name(*_fresh(caps, active, vector))


def _rounds(allocator):
    """A vector fill's rounds as ``(level, drained links, drains)``."""
    return [
        (level, idx.tolist(), k.tolist())
        for level, idx, k, _, _ in allocator._round_log
    ]


def _check(live, slot_of, caps, active, context):
    """The live allocator's slot rates against every oracle."""
    slot_rates = live.solve_slots()
    got = {fid: float(slot_rates[slot_of[fid]]) for fid in active}
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
    """One live allocator, the flow set it should hold, and stats deltas."""

    def __init__(self, caps, demands):
        self.caps = caps
        self.live = IncrementalAllocator(caps)
        self.active = {}
        self.slot_of = {}
        self.stats = self.live.solver_stats()
        self.last_was_full = False
        self.rates = {}
        self.levels = []
        self.add(demands)
        self.settle("initial")

    def add(self, demands):
        self.slot_of.update(add_paths(self.live, {fid: d.links for fid, d in demands.items()}))
        self.active.update(demands)

    def remove(self, fids, batched=False):
        if batched:
            self.live.remove_flows([self.slot_of[fid] for fid in fids])
        else:
            for fid in fids:
                self.live.remove_flow(self.slot_of[fid])
        for fid in fids:
            del self.active[fid], self.slot_of[fid]

    def settle(self, context):
        """Solve, check against the oracles, return the stats deltas."""
        self.rates = _check(self.live, self.slot_of, self.caps, self.active, context)
        stats = self.live.solver_stats()
        delta = {key: stats[key] - self.stats[key] for key in stats}
        self.stats = stats
        self.last_was_full = delta["full_solves"] == 1
        if self.last_was_full and self.live.uses_vector_path():
            # (The live log is whole only after a full solve.)
            rounds = _rounds(self.live)
            assert rounds == _rounds(_fresh(self.caps, self.active, True)[0]), context
            self.levels = [level for level, _, _ in rounds]
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
    resumed = after_add = 0
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
            if delta["full_solves"] and was_full and late:
                assert delta["rounds_replayed"] > 0, context
                resumed += 1
    # The sequences must have exercised each regime, not just passed it by.
    assert resumed >= 20 and after_add >= 5


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
        assert delta["rounds_replayed"] == rounds, fid


def _slot_reuse_instance():
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
    """F leaves b's freeze batch and G, with another row across b, takes its
    slot — b's member count is as it was, only the row differs: the fill
    must drain G's links, not F's, after ``remove_flow`` and after
    ``remove_flows``."""
    caps, demands = _slot_reuse_instance()
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


def test_replay_corner_cases_match_a_fresh_fill():
    """Rounds the random instances reach only by luck, inside a replayed
    prefix: two zero-capacity links sharing a flow (one round at level 0.0
    freezes the members of both), two links with equal shares sharing a
    flow (one round drains both to exactly 0.0, and a removal splits it in
    two), and an infinite link drained by a zero and by a positive level,
    on both sides of the resume mark.  ``_Driver.settle`` holds every full
    fill's rounds to a fresh fill's, and every rate to fresh allocators."""
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
    assert driver.levels[0] == 0.0 < driver.levels[1]  # z1 and z2 at once
    assert driver.levels[-2:] == [2.0, 25.0]  # t1 and t2 at once, then last
    assert driver.rates["za"] == driver.rates["zc"] == 0.0
    assert driver.rates["tb"] == driver.rates["tc0"] == 2.0
    assert driver.rates["last1"] == 25.0
    # Mid-fill mark: the rounds before t1's and t2's are replayed.  That
    # round and the last are searched, and t2 now binds after t1.
    driver.remove(["tc0"])
    delta = driver.settle("remove tc0")
    assert delta["full_solves"] == 1 and delta["rounds_replayed"] == rounds - 2
    assert driver.levels[-3:] == [2.0, 3.0, 25.0]
    # Mark at the last round: everything before it is replayed.
    rounds = len(driver.levels)
    driver.remove(["last1"])
    delta = driver.settle("remove last1")
    assert delta["rounds_replayed"] == rounds - 1
    assert driver.levels[-1] == 50.0 and driver.rates["last2"] == 50.0


def test_a_scalar_solve_in_between_invalidates_the_log():
    """A full scalar solve keeps no log: the next vector fill starts from
    round 0, even though the flow removed before it froze last."""
    caps, demands = _giant_component(n_flows=150)
    driver = _Driver(caps, demands)

    def last():
        return max(
            driver.active,
            key=lambda fid: driver.live._freeze_round[driver.slot_of[fid]],
        )

    driver.remove([last()])
    delta = driver.settle("vector, resumed")
    assert delta["full_solves"] == 1 and delta["rounds_replayed"] > 0
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
    if after["binding_solves"] > before["binding_solves"]:
        return "binding"
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
    on both full paths."""
    monkeypatch.setattr(alloc, "_BATCH_MIN", 8)
    rng = random.Random(0x3177)
    kinds = {"binding": 0, "vector": 0, "scalar": 0, "cached": 0}
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
            slots = live.add_flows(rows, lengths).tolist()
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
                    assert kind in ("scalar", "vector"), context
                assert live.written_slots().shape == (0,), context
            rates, fresh = live.solve_slots().copy(), set()
            # The next edit: adds, removals, or a capacity change.
            roll = rng.random()
            if roll < 0.1:
                # A linkless flow alone.
                fid = f"free{trial}.{step}"
                demands[fid] = FlowDemand(links=())
                fresh |= add([fid])
            elif roll < 0.3 and pool:
                batch = [pool.pop() for _ in range(min(len(pool), rng.choice([1, 3, 12])))]
                fresh |= add(batch)
            elif roll < 0.8 and len(slot_of) > 10:
                gone = rng.sample(sorted(slot_of), rng.choice([1, 2, 12]))
                if len(gone) == 1:
                    live.remove_flow(slot_of[gone[0]])
                else:
                    live.remove_flows([slot_of[fid] for fid in gone])
                for fid in gone:
                    del slot_of[fid]
            else:
                live.update_capacities({rng.choice(finite): rng.uniform(1.0, 1e4)})
    # Every regime was reached, and reports were smaller than the flow set.
    assert kinds["vector"] >= 20 and kinds["scalar"] >= 10 and twice >= 5
    if make_instance is _tree_instance:
        assert sparse >= 5


def test_vector_fill_layout_follows_links_entering_and_leaving_use():
    """The fill keeps its link layout between solves: a link leaving use,
    one re-entering it beside one new to it, and capacity changes between
    two vector solves are each held ``==`` to a fresh allocator's rates by
    ``_Driver.settle``."""
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
        assert driver.settle(f"capacities {change}")["full_solves"] == 1
    assert driver.rates["on_x2"] == 0.01


# ------------------------------------------------------------------ raw trees
def _pod_mesh(racks, hosts_per_rack, cross_rack):
    """One pod's hosts of a tree with no hoses, in a full ordered mesh (a
    scaled-down ``fluid_giant``) or, with ``cross_rack=False``, only the
    rack-local pairs; and the rack-local flows."""
    spec = TreeSpec(pods=2, racks_per_pod=racks, hosts_per_rack=hosts_per_rack, num_cores=2)
    topo = build_multi_rooted_tree(spec)
    pod = sorted(topo.hosts(), key=lambda h: int(h[4:]))[: racks * hosts_per_rack]
    demands, rack_local = {}, []
    for a in pod:
        for b in pod:
            same_rack = topo.rack_of(a) == topo.rack_of(b)
            if a == b or not (cross_rack or same_rack):
                continue
            fid = f"{a}>{b}"
            demands[fid] = FlowDemand(links=tuple(route_ids(topo, a, b)))
            if same_rack:
                rack_local.append(fid)
    return topo.capacities(), demands, rack_local


@pytest.mark.parametrize(
    "racks, hosts_per_rack, cross_rack",
    [(3, 6, True), (4, 8, False)],
    ids=["pod mesh", "rack meshes"],
)
def test_a_retirement_on_a_raw_tree_is_refused_by_b_and_solved_in_full(
    racks, hosts_per_rack, cross_rack
):
    """With no hose in front, a flow's host links bind at both of its ends,
    so B never holds: each rack-local retirement is one refusal and one
    full solve, and its rates are exact."""
    caps, demands, rack_local = _pod_mesh(racks, hosts_per_rack, cross_rack)
    driver = _Driver(caps, demands)
    for fid in rack_local[:: len(rack_local) // 3][:3]:
        driver.remove([fid])
        delta = driver.settle(f"retire {fid}")
        assert delta["full_solves"] == delta["binding_refusals"] == 1, fid
        assert delta["binding_solves"] == 0, fid
