"""The binding path of ``repro.net.alloc``: solving on the links that bind.

After an exact solve the allocator keeps B, the links that solve saturated,
and every other link's slack.  While each flow crosses exactly one link of
B and only removals follow, a removal re-rates the members of its link of
B in closed form, ``C / n``, once no other link they cross can bind: a
hose-safe link (the links of B whose flows cross it cannot fill it) by one
test per full solve, any other by its slack, debited from per-pair counts;
everything else goes to one full solve, which leaves B again.  The shortcut
must be invisible: after every edit the live allocator's rates must equal —
exactly — a fresh allocator's, on the vector and on the scalar fill,
``written_slots()`` must name every rate that moved, and the certificate
must match a recount from the flows (``_Certificate``).  Hand-made
instances force each reason to refuse and pin the hose-safe boundary; the
counters ``repro.alloc.binding_solves`` / ``binding_refusals`` show the
path serving the solves of a pipeline-shaped run, of rack-local meshes that
start in waves, and of a churn session, whose links are all hose-safe.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from oracles.graph_search import route_ids
from oracles.max_min import add_paths, force_loop, force_solves, rates_by_name
from repro import obs
from repro.cloud.ec2 import ec2_params
from repro.net.flows import Flow
from repro.cloud.registry import make_provider
from repro.net import alloc
from repro.net.alloc import _BATCH_MIN, IncrementalAllocator
from repro.net.fairness import FlowDemand
from repro.net.topology import TreeSpec, build_multi_rooted_tree
from repro.service.session import run_churn_session


def _fresh(caps, active, vector):
    with pytest.MonkeyPatch.context() as patch:
        force_solves(patch, vector)
        fresh = IncrementalAllocator(caps)
        slots = add_paths(fresh, {fid: active[fid].links for fid in sorted(active)})
        return rates_by_name(fresh, slots)


class _Live:
    """One live allocator and the flow set it should hold; ``settle``
    solves it, holds every rate to fresh allocators and the written slots
    to the rates that moved, and returns the solver-stats deltas."""

    def __init__(self, caps, demands):
        self.caps = dict(caps)
        self.live = IncrementalAllocator(caps)
        self.active = {}
        self.slot_of = {}
        self.rates = np.zeros(0)
        self.stats = self.live.solver_stats()
        self.add(demands)
        self.settle("initial")

    def add(self, demands):
        self.slot_of.update(add_paths(self.live, {fid: d.links for fid, d in demands.items()}))
        self.active.update(demands)

    def remove(self, fids):
        if len(fids) == 1:
            self.live.remove_flow(self.slot_of[fids[0]])
        else:
            self.live.remove_flows([self.slot_of[fid] for fid in fids])
        for fid in fids:
            del self.active[fid], self.slot_of[fid]

    def set_capacity(self, link, cap):
        self.live.update_capacities({link: cap})
        self.caps[link] = cap

    def settle(self, context):
        got = self.live.solve_slots()
        written = self.live.written_slots()
        rates = {fid: float(got[slot]) for fid, slot in self.slot_of.items()}
        assert rates == _fresh(self.caps, self.active, vector=True), context
        assert rates == _fresh(self.caps, self.active, vector=False), context
        if written is not None:
            old = self.rates
            moved = {
                slot for slot in self.slot_of.values()
                if slot >= old.shape[0] or got[slot] != old[slot]
            }
            assert moved <= set(written.tolist()), context
        self.rates = got.copy()
        stats = self.live.solver_stats()
        delta = {key: stats[key] - self.stats[key] for key in stats}
        self.stats = stats
        return delta

    def rate(self, fid):
        return float(self.rates[self.slot_of[fid]])


# ------------------------------------------------------------------ instances
def _hosed_tree(rng):
    """A random tree with a hose on every host, and flows between random
    host pairs, each across its sender's hose then its route (a same-host
    pair crosses the loopback alone).  Most hoses sit well under the host
    link, so they bind; a few sit above it, and fabric links are sometimes
    thin, so that host and fabric links bind too."""
    spec = TreeSpec(
        pods=rng.randint(1, 2),
        racks_per_pod=rng.randint(2, 3),
        hosts_per_rack=rng.randint(3, 5),
        num_cores=rng.randint(1, 2),
        tor_agg_link_bps=rng.choice([10e9, 10e9, 2e9]),
    )
    topo = build_multi_rooted_tree(spec)
    caps = topo.capacities()
    hosts = topo.hosts()
    for host in hosts:
        caps[f"hose:{host}"] = spec.host_link_bps * (
            rng.uniform(1.1, 2.0) if rng.random() < 0.1 else rng.uniform(0.05, 0.6)
        )
    demands = {}
    for f in range(rng.randint(150, 260)):
        src = rng.choice(hosts)
        dst = src if rng.random() < 0.05 else rng.choice([h for h in hosts if h != src])
        route = tuple(route_ids(topo, src, dst))
        links = route if src == dst else (f"hose:{src}",) + route
        demands[f"f{f}"] = FlowDemand(links=links)
    return caps, demands


def _drive(rng, caps, demands, steps, after=None):
    """Random edits on a live allocator, mostly removals (one flow, a few,
    or a batch over ``_BATCH_MIN``), now and then an add or a capacity
    change; every solve held by ``_Live.settle``, then handed to
    ``after(live, before)`` with the flow set the edit started from
    (``{flow id: (slot, demand)}``)."""
    names = sorted(demands)
    rng.shuffle(names)
    held_back = {fid: demands[fid] for fid in names[:30]}
    live = _Live(caps, {fid: demands[fid] for fid in names[30:]})
    hoses = [link for link in caps if link.startswith("hose:")]
    totals = dict.fromkeys(live.stats, 0)
    for step in range(steps):
        context = f"step {step}"
        before = {fid: (live.slot_of[fid], live.active[fid]) for fid in live.active}
        roll = rng.random()
        if roll < 0.06 and held_back:
            live.add(dict(held_back.popitem() for _ in range(min(3, len(held_back)))))
        elif roll < 0.09:
            live.set_capacity(rng.choice(hoses), rng.uniform(0.05, 1.2) * 1e9)
        else:
            k = _BATCH_MIN + 2 if roll > 0.97 else rng.choice([1, 1, 1, 2, 5])
            live.remove(rng.sample(sorted(live.active), min(k, len(live.active) // 2)))
        for key, value in live.settle(context).items():
            totals[key] += value
        if after is not None:
            after(live, before)
    return totals


# ------------------------------------------------------- the certificate
def _kept_pairs(bound):
    """The kept counts as ``{(d, l): m_dl}`` over link indices."""
    kept = {}
    if bound.pair_at is not None:
        start = bound.pair_start
        for d in range(len(start) - 1):
            for p in range(start[d], start[d + 1]):
                kept[(d, int(bound.pair_link[p]))] = int(bound.pair_count[p])
    return kept


class _Certificate:
    """After every solve of a ``_drive``, B's certificate against a
    recount from the flows it holds: the kept counts are the members of
    each link of B crossing each kept link, the members of a link of B
    share one rate, and a hose-safe link carries at most ``(1 - ε) C``.
    At each build the hose-safe links are the ones whose distinct links of
    B, at full capacity, fit under the margin."""

    def __init__(self):
        self.bound = None
        self.builds = self.kept_builds = self.safe_loads = 0

    def __call__(self, live, before):
        bound = live.live._bind
        if not isinstance(bound, alloc._Bound):
            return
        index, caps, eps = live.live._link_index, live.caps, alloc._BIND_EPS
        cap = [caps[link] for link in live.live._link_ids]
        kept = _kept_pairs(bound)
        if bound is not self.bound:
            self.bound = bound
            self._at_build(live, before, bound, kept, cap)
        rows = {
            fid: [index[link] for link in demand.links]
            for fid, demand in live.active.items() if demand.links
        }
        link_of = {fid: int(bound.link_of[live.slot_of[fid]]) for fid in rows}
        in_b = set(link_of.values())
        kept_links = {link for _, link in kept}
        recount = dict.fromkeys(kept, 0)
        rates_on_b, load = {}, {}
        for fid, row in rows.items():
            d = link_of[fid]
            assert in_b.intersection(row) == {d}
            rates_on_b.setdefault(d, set()).add(live.rate(fid))
            for link in row:
                if link in kept_links:
                    recount[(d, link)] += 1
                load.setdefault(link, []).append(live.rate(fid))
        assert recount == kept
        assert all(len(rates) == 1 for rates in rates_on_b.values())
        for link, rates in load.items():
            if link not in rates_on_b and link not in kept_links:
                # (each rate is ``C_d / n`` rounded once)
                assert math.fsum(rates) <= (1 - eps) * cap[link] * (1 + 1e-12), link
                self.safe_loads += 1

    def _at_build(self, live, before, bound, kept, cap):
        """The kept links are exactly those whose distinct links of B —
        over the flows the build saw — sum above ``(1 - ε) C``."""
        index = live.live._link_index
        hoses = {}
        for slot, demand in before.values():
            d = int(bound.link_of[slot])
            for link in demand.links:
                if index[link] != d:
                    hoses.setdefault(index[link], set()).add(d)
        unsafe = {
            link for link, ds in hoses.items()
            if math.fsum(cap[d] for d in ds) > (1 - alloc._BIND_EPS) * cap[link]
        }
        assert {link for _, link in kept} == unsafe
        self.builds += 1
        self.kept_builds += bool(unsafe)


@pytest.mark.parametrize("vector", [True, False], ids=["vector", "scalar"])
def test_random_hosed_trees_solve_like_a_fresh_allocator(vector, monkeypatch):
    """Every solve is a fresh allocator's, and after every one the binding
    path served its certificate holds (``_Certificate``)."""
    force_solves(monkeypatch, vector)
    rng = random.Random(0xB14D + vector)
    totals = dict.fromkeys(IncrementalAllocator({}).solver_stats(), 0)
    check = _Certificate()
    for trial in range(8):
        caps, demands = _hosed_tree(rng)
        for key, value in _drive(rng, caps, demands, steps=40, after=check).items():
            totals[key] += value
    # The path served most solves and refused some: both sides were run.
    assert totals["binding_solves"] >= 100
    assert totals["binding_refusals"] >= 5
    assert totals["full_solves"] >= 20
    # Both kinds of link occurred: builds that kept counts, and hose-safe
    # links carrying flows.
    assert check.builds >= 20 and check.kept_builds >= 5, vars(check)
    assert check.safe_loads >= 100, vars(check)


# ------------------------------------------------------------ every refusal
def _two_hoses_over_one_link(fabric_cap=10.0):
    """Hoses h1 and h2 (8 each), four flows on each; two of each hose's
    flows also cross fabric link f.  Every flow gets 2; f carries 8."""
    caps = {"h1": 8.0, "h2": 8.0, "f": fabric_cap}
    demands = {}
    for hose, name in (("h1", "p"), ("h2", "q")):
        for i in range(1, 5):
            links = (hose, "f") if i <= 2 else (hose,)
            demands[f"{name}{i}"] = FlowDemand(links=links)
    return caps, demands


def test_a_member_that_crosses_two_binding_links_refuses():
    """c crosses h1 and h2, both saturated: B's counts add up to one more
    than the flows, so no removal is re-rated in closed form."""
    caps = {"h1": 4.0, "h2": 2.0}
    demands = {
        "a1": FlowDemand(links=("h1",)),
        "a2": FlowDemand(links=("h1",)),
        "c": FlowDemand(links=("h1", "h2")),
        "b1": FlowDemand(links=("h2",)),
    }
    live = _Live(caps, demands)
    assert live.rate("c") == 1.0 and live.rate("a1") == 1.5
    live.remove(["b1"])
    delta = live.settle("b1 leaves")
    assert delta["binding_refusals"] == 1 and delta["binding_solves"] == 0
    assert live.rate("c") == live.rate("a1") == 4.0 / 3.0


def test_a_link_saturated_at_a_tie_is_in_b(monkeypatch):
    """h1, h2 and t all share 2: the fill freezes every flow in one round
    at that level, and t, on which no flow is alone, is saturated with the
    others.  t is in B, so a crosses two links of B and a2's removal is
    refused; a stays at 2."""
    force_solves(monkeypatch, True)
    caps = {"h1": 4.0, "h2": 2.0, "t": 4.0}
    demands = {
        "a": FlowDemand(links=("h1", "t")),
        "a2": FlowDemand(links=("h1",)),
        "b": FlowDemand(links=("h2", "t")),
    }
    live = _Live(caps, demands)
    assert live.rate("a") == live.rate("b") == 2.0
    assert [entry[0] for entry in live.live._round_log] == [2.0]
    live.remove(["a2"])
    delta = live.settle("a2 leaves")
    assert delta["binding_refusals"] == 1 and live.rate("a") == 2.0


def test_a_fabric_link_whose_slack_runs_out_refuses():
    """q4 leaves: h2's flows rise to 8/3 and f, at 9.33 of 10, still has
    slack.  p4 leaves: closed form would put f at 10.67, so the path
    refuses.  Before that, q1 — across f — leaves and gives f its rate
    back once (twice would let the last removal through)."""
    caps, demands = _two_hoses_over_one_link()
    live = _Live(caps, demands)
    assert live.rate("p1") == live.rate("q4") == 2.0
    live.remove(["q4"])
    delta = live.settle("q4 leaves")
    assert delta["binding_solves"] == 1 and delta["full_solves"] == 0
    assert live.rate("q1") == 8.0 / 3.0
    live.remove(["q1"])
    delta = live.settle("q1 leaves")
    assert delta["binding_solves"] == 1
    assert live.rate("q2") == 4.0 and live.rate("p1") == 2.0
    live.remove(["p3"])
    delta = live.settle("p3 leaves")
    assert delta["binding_solves"] == 1 and live.rate("p1") == 8.0 / 3.0
    live.remove(["p4"])
    delta = live.settle("p4 leaves")
    assert delta["binding_refusals"] == 1 and delta["binding_solves"] == 0
    assert live.rate("p1") == live.rate("q2") == 10.0 / 3.0


@pytest.mark.parametrize("side", ["above", "below"])
def test_a_fabric_link_at_the_hoses_sum_is_safe_just_above_it(side):
    """f at a hair more than the hoses' 16 over ``1 - ε`` is hose-safe: no
    count is kept, and the removals that leave h1 and h2 to fill it with 4
    + 4 + 4 + 4 are all served.  A hair less, and f keeps both hoses'
    counts, 2 each, and the last of those removals is refused as on any
    link without headroom."""
    eps = alloc._BIND_EPS
    fabric = 16.0 / (1 - eps) * (1 + eps / 4 if side == "above" else 1 - eps / 4)
    caps, demands = _two_hoses_over_one_link(fabric_cap=fabric)
    live = _Live(caps, demands)
    live.remove(["p3"])
    assert live.settle("p3 leaves")["binding_solves"] == 1
    kept = _kept_pairs(live.live._bind)
    f, h1, h2 = (live.live._link_index[link] for link in ("f", "h1", "h2"))
    assert kept == ({} if side == "above" else {(h1, f): 2, (h2, f): 2})
    for fid in ("p4", "q3"):
        live.remove([fid])
        assert live.settle(f"{fid} leaves")["binding_solves"] == 1
    live.remove(["q4"])
    delta = live.settle("q4 leaves: f carries 16")
    assert delta["binding_solves" if side == "above" else "binding_refusals"] == 1
    assert live.rate("p1") == live.rate("q1") == 4.0


def test_an_add_or_a_capacity_change_voids_b():
    """After an add or a capacity change, nothing is served nor refused:
    the next solve is a full one, and it builds B again, so the removal
    after it is served."""
    caps, demands = _two_hoses_over_one_link(fabric_cap=100.0)
    live = _Live(caps, demands)
    live.remove(["p4"])
    assert live.settle("served")["binding_solves"] == 1
    live.add({"p5": FlowDemand(links=("h1",))})
    live.remove(["q4"])
    delta = live.settle("add, then a removal")
    assert delta["binding_solves"] == delta["binding_refusals"] == 0
    assert delta["full_solves"] == 1
    assert live.rate("p5") == 2.0 and live.rate("q1") == 8.0 / 3.0
    live.remove(["q3"])
    delta = live.settle("served again")
    assert delta["binding_solves"] == 1 and live.rate("q1") == 4.0
    live.set_capacity("h2", 7.0)
    delta = live.settle("capacity change")
    assert delta["binding_solves"] == delta["binding_refusals"] == 0
    assert delta["full_solves"] == 1 and live.rate("q1") == 3.5
    live.remove(["q2"])
    delta = live.settle("served after the change")
    assert delta["binding_solves"] == 1 and live.rate("q1") == 7.0


def test_a_linkless_flow_voids_b_when_added_and_is_served_when_removed():
    """A flow that crosses no link has no edit of its own: its removal,
    while B holds, is served like any other (B counts routed flows only),
    and its add voids B like any other, so the next solve is a full one."""
    caps, demands = _two_hoses_over_one_link(fabric_cap=100.0)
    demands["z1"] = demands["z2"] = FlowDemand(links=())
    live = _Live(caps, demands)
    assert live.rate("z1") == math.inf and live.rate("p1") == 2.0
    live.remove(["z1"])
    delta = live.settle("linkless removal")
    assert delta["binding_solves"] == 1 and delta["full_solves"] == 0
    live.remove(["p4"])
    delta = live.settle("served after it")
    assert delta["binding_solves"] == 1 and live.rate("p1") == 8.0 / 3.0
    live.add({"z3": FlowDemand(links=())})
    delta = live.settle("linkless add")
    assert delta["full_solves"] == 1
    assert delta["binding_solves"] == delta["binding_refusals"] == 0
    assert live.rate("z3") == math.inf and live.rate("p1") == 8.0 / 3.0
    live.remove(["q4"])
    delta = live.settle("served after the full solve")
    assert delta["binding_solves"] == 1 and live.rate("q1") == 8.0 / 3.0


@pytest.mark.parametrize("eps", ["x10", "x0.1", "one rounding step"])
def test_the_margin_bounds_rounding_and_is_no_knob(eps, monkeypatch):
    """The margin only trades refusals: ten times wider, ten times
    narrower, or so narrow that its budget of rounding steps is spent
    before the first removal, every rate is the fresh allocator's.  The
    budget holds every served solve, one that debits no link (all links
    hose-safe) too."""
    scaled = {"x10": alloc._BIND_EPS * 10, "x0.1": alloc._BIND_EPS / 10}
    monkeypatch.setattr(alloc, "_BIND_EPS", scaled.get(eps, 2.0**-51))
    force_solves(monkeypatch, True)
    rng = random.Random(0xE95)
    totals = dict.fromkeys(IncrementalAllocator({}).solver_stats(), 0)
    for trial in range(3):
        caps, demands = _hosed_tree(rng)
        for key, value in _drive(rng, caps, demands, steps=30).items():
            totals[key] += value
    live = _Live(*_two_hoses_over_one_link(fabric_cap=100.0))
    for fid in ("p4", "q4"):
        live.remove([fid])
        for key, value in live.settle(f"{fid} leaves, f hose-safe").items():
            totals[key] += value
    if eps in scaled:
        assert totals["binding_solves"] > 0
    else:
        assert totals["binding_solves"] == 0 and totals["binding_refusals"] > 0


# ------------------------------------------------------- a pipeline's shuffle
def test_the_path_serves_a_pipeline_shaped_shuffle():
    """256 VMs on ``pipeline_dc``'s network, a 64 x 64 shuffle between two
    disjoint VM sets: one exact solve, then the binding path serves at least
    95 % of the solves the flows' completions ask for."""
    base = ec2_params()
    spec = dataclasses.replace(
        base.tree_spec, hosts_per_rack=16, racks_per_pod=8, pods=4, num_cores=4
    )
    provider = make_provider(
        "ec2", seed=0, params=dataclasses.replace(base, tree_spec=spec)
    )
    provider.request_vms(256)
    vms = [vm.name for vm in provider.vms()]
    rng = np.random.default_rng(7)
    sizes = rng.lognormal(mean=np.log(2e6), sigma=1.0, size=64 * 64)
    flows = [
        Flow(f"m{i}>r{j}", vms[i], vms[64 + j], float(sizes[64 * i + j]))
        for i in range(64) for j in range(64)
    ]
    sim = provider.build_simulation(flows)
    before = obs.metrics.snapshot()
    result = sim.run()
    after = obs.metrics.snapshot()
    assert len(result.completion_times) == len(flows)

    def delta(name):
        return after.get(f"repro.alloc.{name}", 0) - before.get(f"repro.alloc.{name}", 0)

    served, refused = delta("binding_solves"), delta("binding_refusals")
    assert served + refused >= 1000
    assert served >= 0.95 * (served + refused + delta("full_solves"))


# ------------------------------------------------ rack-local meshes in waves
class _Watched(IncrementalAllocator):
    """The allocator a fluid run builds, shadowed: it keeps the rows of the
    slots it holds, holds every solve's rates ``==`` to a fresh allocator
    of the same flows, and logs each solve's counter deltas and whether an
    add came before it."""

    def __init__(self, capacities):
        super().__init__(capacities)
        self.caps = dict(capacities)
        self.rows = {}
        self.added = False
        self.solves = []

    def add_flows(self, rows, lengths):
        slots = super().add_flows(rows, lengths)
        rows, ends = np.asarray(rows), np.cumsum(lengths)
        for slot, start, end in zip(slots.tolist(), ends - lengths, ends):
            self.rows[slot] = rows[start:end]
        self.added = True
        return slots

    def remove_flow(self, slot):
        super().remove_flow(slot)
        self.rows.pop(slot, None)

    def remove_flows(self, slots):
        super().remove_flows(slots)
        for slot in np.asarray(slots).tolist():
            self.rows.pop(slot, None)

    def retire_in_lockstep(self, counts, slots, final):
        before = self.solver_stats()
        taken = super().retire_in_lockstep(counts, slots, final)
        for slot in slots[: int(counts[:taken].sum())].tolist():
            del self.rows[slot]
        if self._solved:
            self._watch(before)
        return taken

    def solve_slots(self):
        self._watch()
        return super().solve_slots()

    def _watch(self, before=None):
        before = before or self.solver_stats()
        ids = sorted(self.rows)
        rates = super().solve_slots()[ids].tolist()
        after = self.solver_stats()
        delta = {key: after[key] - before[key] for key in after}
        if any(delta.values()):
            self.solves.append((delta, self.added))
            self.added = False
        fresh = IncrementalAllocator(self.caps)
        slots = fresh.add_flows(
            np.concatenate([self.rows[slot] for slot in ids] or [np.zeros(0, dtype=np.intp)]),
            [len(self.rows[slot]) for slot in ids],
        )
        assert rates == fresh.solve_slots()[slots].tolist(), len(self.solves)


@pytest.mark.parametrize("vector", [True, False], ids=["vector", "scalar"])
def test_rack_local_meshes_in_waves_take_full_solves_only_after_adds(vector, monkeypatch):
    """An ec2 provider's 4 racks of 6 hosts, one all-to-all mesh per rack,
    each rack's mesh starting 0.3 s after the last, on either event loop
    and either fill.  Every solve after the first is a full one right after
    a wave arrives, or one the binding path serves (the hoses bind, and
    each flow crosses one), and after every event the rates are a fresh
    allocator's — after a lockstep's run of completions too."""
    from repro.net import fluid

    force_loop(monkeypatch, vector)
    force_solves(monkeypatch, vector)
    watched = []

    def watch(capacities):
        watched.append(_Watched(capacities))
        return watched[-1]

    monkeypatch.setattr(fluid, "IncrementalAllocator", watch)
    base = ec2_params()
    spec = dataclasses.replace(base.tree_spec, hosts_per_rack=6, racks_per_pod=4, pods=1)
    provider = make_provider("ec2", seed=0, params=dataclasses.replace(base, tree_spec=spec))
    provider.request_vms(24)
    by_rack = {}
    for vm in provider.vms():
        by_rack.setdefault(provider.topology.rack_of(vm.host), []).append(vm.name)
    assert len(by_rack) == 4
    flows = [
        Flow(f"{a}>{b}", a, b, 1e6 * (1 + (7 * i) % 11), start_time=0.3 * wave)
        for wave, vms in enumerate(by_rack.values())
        for i, (a, b) in enumerate((a, b) for a in vms for b in vms if a != b)
    ]
    result = provider.build_simulation(flows).run()
    assert len(result.completion_times) == len(flows)
    (live,) = watched
    (first, added), *later = live.solves
    assert first["full_solves"] == 1 and added
    # (An entry after a lockstep holds the binding solves it took.)
    served = full = 0
    for i, (delta, added) in enumerate(later):
        if delta["binding_solves"]:
            served += delta["binding_solves"]
            assert delta["full_solves"] == 0 and not added, i
        else:
            full += 1
            assert delta["full_solves"] == 1 and added, i
        assert delta["binding_refusals"] == 0, i
    assert served >= 0.8 * (served + full) and served + full >= 50


def test_a_churn_session_takes_the_binding_path():
    """A short churn session on the churn benchmark's drift: its live
    network's removals are re-rated on the hoses."""
    before = obs.metrics.snapshot()
    run_churn_session(0, n_vms=16, hours=1, apps_per_hour=4.0, drift="hotspot-flap")
    after = obs.metrics.snapshot()
    name = "repro.alloc.binding_solves"
    assert after.get(name, 0) - before.get(name, 0) > 0


def test_a_churn_sessions_fabric_is_hose_safe(monkeypatch):
    """The churn benchmark's session shape (``benchmark/workloads.py``,
    ``ChurnDay``, without its outage): every B it builds finds every link
    outside B hose-safe, so no count is kept and a removal edits no
    certificate."""
    built = []
    build = IncrementalAllocator._build_bind

    def watch(self):
        build(self)
        built.append(self._bind)

    monkeypatch.setattr(IncrementalAllocator, "_build_bind", watch)
    run_churn_session(
        0, n_vms=40, hours=24, apps_per_hour=8.0, drift="hotspot-flap",
        max_tasks=6, epoch_s=300.0,
    )
    bounds = [bound for bound in built if bound]
    assert len(bounds) >= 100
    assert all(bound.pair_at is None for bound in bounds)
