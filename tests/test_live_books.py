"""The live-application books (``repro.runtime.migration.LiveApp``) held to
invariants instead of to themselves.

:func:`~repro.runtime.migration.live_book_violations` asks, at every pause
of the service's live simulation (churn sessions and §6.3 arrival sequences
alike), that no machine
is oversubscribed, that an application holds cores exactly while it has
bytes in flight, that asking for the flows changes nothing, and that every
traffic-matrix entry is accounted for byte by byte — against the bytes the
simulation reported delivered (``LiveNetwork.sent``).  The :class:`Ledger`
here only installs that check and reads the runs it brackets.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from helpers import write_trace
from oracles.parent_state_at import parent_state_at
from repro.cloud.ec2 import ec2_params
from repro.cloud.provider import VMFlow
from repro.cloud.registry import make_provider
from repro.core.placement.base import ClusterState, Placement
from repro.experiments.placers import resolve_placer
from repro.experiments.scenarios import ARRIVAL_TTL_S, get_scenario
from repro.experiments.trials import run_trial, trial_seed
from repro.runtime.migration import (
    LiveApp,
    LiveNetwork,
    advance_live_apps,
    cluster_with_live_usage,
    live_background_flows,
    live_book_violations,
)
from repro.runtime.executor import placement_to_flows
from repro.service.cache import MeasurementCache
from repro.service.engine import PlacementService, report_violations
from repro.service.session import build_churn_session
from repro.service.timeline import DEFAULT_EPOCH_S
from repro.units import GBYTE
from repro.workloads.application import Application, Task, TrafficMatrix
from repro.workloads.generator import HPCloudWorkloadGenerator, WorkloadSpec
from repro.workloads.patterns import mapreduce
from repro.workloads.trace import FlowRecord


class Ledger:
    """Checks the books before and after every pause of the
    ``advance_live_apps`` bound in ``module``, and reads each run: a task
    pair's delivered bytes must be what its flows' rate timelines carried,
    and an application's latest delivery is kept (``delivered_at``)."""

    def __init__(self, monkeypatch, module, cluster_of):
        self.checks = 0
        self.problems = []
        self.delivered_at = {}  # app -> when its latest flow finished
        advance = module.advance_live_apps

        def checked(network, running, start, until):
            self.check(cluster_of(), running, network)
            sent = dict(network.sent)
            pair_of = {
                flow.flow_id: (name, pair)
                for name, state in running.items()
                for pair, flow in state.live_flows(start=start)
            }
            result = advance(network, running, start, until)
            self.check(cluster_of(), running, network)
            if result is None:
                assert network.sent == sent
                return result
            carried = {}
            for flow_id, timeline in result.timelines.items():
                key = pair_of.get(flow_id)
                if key is not None:
                    carried[key] = carried.get(key, 0.0) + sum(
                        s.rate_bps * (s.end - s.start) / 8.0 for s in timeline.segments
                    )
            for key, after in network.sent.items():
                moved = after - sent.get(key, 0.0)
                assert carried.get(key, 0.0) == pytest.approx(moved, rel=1e-6, abs=1.0)
            for flow_id, finish in result.completion_times.items():
                if flow_id in pair_of:
                    name = pair_of[flow_id][0]
                    self.delivered_at[name] = max(self.delivered_at.get(name, 0.0), finish)
            return result

        monkeypatch.setattr(module, "advance_live_apps", checked)

    def check(self, cluster, running, network):
        self.checks += 1
        self.problems.extend(live_book_violations(cluster, running, network.sent))


def books_checked(monkeypatch):
    """Run every service session under a :class:`Ledger`, whatever starts
    it: the books are checked at every pause and once more when the session
    ends (an application colocated whole never pauses it), and every report
    is kept.  Returns ``(ledger, reports)``."""
    import repro.service.engine as engine

    sessions, reports = [], []
    ledger = Ledger(monkeypatch, engine, lambda: sessions[-1].cluster)
    run_session = engine.PlacementService.run_session

    def kept(service, *args, **kwargs):
        sessions.append(service)
        report = run_session(service, *args, **kwargs)
        ledger.check(service.cluster, service.last_apps, service._network)
        reports.append(report)
        return report

    monkeypatch.setattr(engine.PlacementService, "run_session", kept)
    return ledger, reports


# ------------------------------------------------------ golden service sessions
#: The shape of ``test_service.TestGoldenDigests``' sessions, run at session
#: seed 1: there an application migrates after its last network byte.
_GOLDEN_SESSION = dict(
    n_vms=12, hours=8, drift="hotspot-flap", epoch_s=120.0, apps_per_hour=2.0,
)
_CUT_SEED = 1


@pytest.mark.parametrize("faults, recoveries", [("none", 0), ("rack-outage", 5)])
def test_books_balance_at_every_cut_of_the_golden_sessions(
    monkeypatch, faults, recoveries
):
    import repro.service.engine as engine
    from test_truth_property import Case, check_every_run  # (it imports this module)

    checked = Case()
    check_every_run(monkeypatch, checked)
    provider, cluster, apps, _ = build_churn_session(
        _CUT_SEED, faults=faults, **_GOLDEN_SESSION
    )
    service = PlacementService(
        provider, cluster, resolve_placer("greedy").create(0, None),
        predictor="measured", migrate=True,
    )
    ledger = Ledger(monkeypatch, engine, lambda: service.cluster)
    report = service.run_session(apps, hours=_GOLDEN_SESSION["hours"])
    assert len(report.recovery) == recoveries and report.migrations
    assert ledger.checks > 2 * len(apps)
    assert ledger.problems == []
    assert report_violations(report) == []
    # Every fluid run keeps max-min fairness segment by segment, and every
    # probe filling under the session's own traffic is max-min fair.
    assert checked.runs and checked.loaded_campaigns > 0
    assert checked.problems == []
    # An application completes when its last byte is delivered or, if that
    # is later, when the placement that colocated the rest was set — here one
    # (arrived 99.0 s, last network byte 111.3 s) migrates at t = 120 s onto
    # VMs that do — and not when the next unrelated arrival happens to start
    # a segment.
    placed_at = {outcome.name: outcome.arrived_at for outcome in report.apps}
    placed_at.update((event.app_name, event.time_s) for event in report.migrations)
    placed_at.update(
        (name, action.time_s) for action in report.recovery for name in action.apps
        if action.action == "re-placed"
    )
    for outcome in report.completed():
        delivered_at = ledger.delivered_at.get(outcome.name, 0.0)
        assert outcome.completed_at == max(delivered_at, placed_at[outcome.name])
    assert any(
        placed_at[event.app_name] > ledger.delivered_at[event.app_name]
        for event in report.migrations
    )


# ------------------------------------------- §6.3 arrival sequences (service)
# ------------------------------------------- §6.3 arrival sequences (service)
SEEDS = range(24)


def seeded_sequence(seed):
    """``(provider, cluster, apps, placer name)`` of one arrival sequence.

    3–12 applications whose gaps run from "all overlap" (a fraction of a
    second, some exactly zero) to "none overlap" (minutes), on a provider
    whose hoses do not drift: a simulation from zero then sees what the
    live one saw however many pauses it took.
    """
    rng = np.random.default_rng(seed)
    n_vms = int(rng.integers(6, 11))
    provider = make_provider("ec2", seed=seed, params=replace(ec2_params(), temporal_sigma=0.0))
    provider.request_vms(n_vms)
    cluster = ClusterState.from_vms(provider.vms())
    spec = WorkloadSpec(min_tasks=2, max_tasks=6, cpu_choices=(0.25, 0.5))
    gen = HPCloudWorkloadGenerator(spec, seed=seed)
    n_apps = int(rng.integers(3, 13))
    gaps = rng.exponential(10.0 ** rng.uniform(-0.5, 2.5), size=n_apps)
    gaps[rng.random(n_apps) < 0.15] = 0.0
    arrivals = np.cumsum(gaps)
    apps = [gen.generate_application(start_time=float(t)) for t in arrivals]
    return provider, cluster, apps, ("greedy", "round-robin", "random")[seed % 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_live_apps_see_what_the_from_zero_resimulation_saw(monkeypatch, seed):
    """At every arrival of a §6.3 session, the applications in flight and
    those done are what one simulation of every placed flow from zero says,
    with one intended difference: an application that never touched the
    network is done too.  The books balance at every pause."""
    import repro.service.engine as engine

    provider, cluster, apps, placer_name = seeded_sequence(seed)
    ledger = Ledger(monkeypatch, engine, lambda: cluster)
    seen = []  # per arrival: (active (src_vm, dst_vm) multiset, done names)
    usage = engine.cluster_with_live_usage

    def spying_usage(cluster, running, exclude=None):
        done = {name for name, state in running.items() if state.done}
        active = Counter((f.src_vm, f.dst_vm) for f in live_background_flows(running, 0.0))
        seen.append((active, done))
        return usage(cluster, running, exclude)

    monkeypatch.setattr(engine, "cluster_with_live_usage", spying_usage)
    service = PlacementService(
        provider, cluster, resolve_placer(placer_name).create(seed, None),
        migrate=False, ttl_s=ARRIVAL_TTL_S,
    )
    ordered = sorted(apps, key=lambda a: (a.start_time, a.name))
    last = ordered[-1].start_time
    report = service.run_session(apps, hours=math.floor(last / DEFAULT_EPOCH_S) + 1)
    assert len(seen) == len(ordered)

    placed, app_of_flow, flowless = [], {}, set()
    for app, (active, done) in zip(ordered, seen):
        oracle_active, oracle_done = parent_state_at(
            provider, [], placed, app_of_flow, app.start_time
        )
        assert active == Counter((f.src_vm, f.dst_vm) for f in oracle_active)
        assert done == oracle_done | flowless
        if app.name not in service.last_apps:
            continue  # rejected
        flows, _ = placement_to_flows(service.last_apps[app.name].placement, app, app.start_time)
        placed.extend(flows)
        app_of_flow.update((flow.flow_id, app.name) for flow in flows)
        if not flows:
            flowless.add(app.name)

    # Checked before and after every pause (one per later arrival instant).
    pauses = len({app.start_time for app in ordered} - {0.0})
    assert ledger.checks >= 2 * pauses and ledger.problems == []
    assert report_violations(report) == []


def test_the_seeded_sequences_cover_the_cases_they_claim():
    overlap, placers = [], set()
    for seed in SEEDS:
        _provider, _cluster, apps, placer = seeded_sequence(seed)
        assert 3 <= len(apps) <= 12
        starts = sorted(app.start_time for app in apps)
        overlap.append(min(b - a for a, b in zip(starts, starts[1:])))
        placers.add(placer)
    assert min(overlap) == 0.0 and max(overlap) > 5.0
    assert placers == {"greedy", "round-robin", "random"}


@pytest.mark.parametrize("placer", ["greedy", "round-robin"])
def test_books_balance_at_every_cut_of_an_arrival_sequence(monkeypatch, placer):
    import repro.service.engine as engine

    params = {"n_apps": 8, "arrival_gap_s": 1.0}  # overlapping applications
    instance = get_scenario("multi-app-sequence").build(
        trial_seed(0, "multi-app-sequence", 0), **params
    )
    ledger = Ledger(monkeypatch, engine, lambda: instance.cluster)
    record = run_trial("multi-app-sequence", placer, 0, 0, params, instance=instance)
    assert record.ok, record.error
    assert ledger.checks >= 2 * params["n_apps"] and ledger.problems == []
    # Every byte of every admitted application is booked, and only those.
    admitted = [app for app in instance.apps if app.name in record.per_app_duration_s]
    total = sum(app.total_bytes for app in admitted)
    assert record.network_bytes + record.colocated_bytes == pytest.approx(total)


def test_an_app_that_colocates_every_transfer_gives_its_cores_back():
    provider = _provider(2)
    cluster = ClusterState.from_vms(provider.vms())  # 2 VMs x 4 cores
    first = two_task_app("first", cores=2.0, start_time=0.0)
    # Needs every core of both machines: it fits only on an empty cluster.
    second = two_task_app("second", cores=4.0, start_time=10.0)
    service = PlacementService(
        provider, cluster, resolve_placer("greedy").create(0, None), migrate=False,
    )
    report = service.run_session([first, second], hours=1)

    done = {outcome.name: outcome for outcome in report.apps}
    assert done["first"].duration == 0.0 and done["second"].status == "completed"
    placed = {name: state.placement for name, state in service.last_apps.items()}
    assert len(set(placed["first"].assignments.values())) == 1
    assert service.last_apps["first"].colocated == {("a", "b"): 1 * GBYTE}
    assert len(set(placed["second"].assignments.values())) == 2


# ------------------------------------------------------ another tenant's flows
def tenant_under_load(seed):
    """Three applications arriving at 0, 20 and 400 s on six VMs whose hoses
    do not drift, beside another tenant's three flows: one done before the
    second arrival, one still sending then, and one that starts at 10 s.
    Returns ``(provider, cluster, apps, background)``."""
    provider = make_provider(
        "ec2", seed=seed,
        params=replace(ec2_params(), temporal_sigma=0.0, colocation_probability=0.0),
    )
    provider.request_vms(6)
    cluster = ClusterState.from_vms(provider.vms())
    vms = cluster.machine_names()
    background = [
        VMFlow("other:0", vms[0], vms[1], 0.5 * GBYTE, 0.0, "other"),
        VMFlow("other:1", vms[2], vms[3], 20 * GBYTE, 0.0, "other"),
        VMFlow("other:2", vms[4], vms[5], 4 * GBYTE, 10.0, "other"),
    ]
    apps = [
        mapreduce(f"job{k}", 2, 2, 2 * GBYTE, cpu_per_task=1.5, start_time=t)
        for k, t in enumerate((0.0, 20.0, 400.0))
    ]
    return provider, cluster, apps, background


def test_campaigns_see_what_the_other_tenant_has_left_and_the_books_never_count_it(
    monkeypatch,
):
    seen = []  # per refresh: (now, the other tenant's flows it saw)
    refresh = MeasurementCache.refresh

    def spying_refresh(cache, now, background=()):
        seen.append((now, [flow for flow in background if flow.tag == "other"]))
        return refresh(cache, now, background=background)

    monkeypatch.setattr(MeasurementCache, "refresh", spying_refresh)
    ledger, reports = books_checked(monkeypatch)
    greedy = resolve_placer("greedy").create(0, None)
    provider, cluster, apps, background = tenant_under_load(5)
    service = PlacementService(provider, cluster, greedy, migrate=False, ttl_s=ARRIVAL_TTL_S)
    report = service.run_session(apps, hours=1, background=background)

    # What the other tenant's flows had left at each campaign: one
    # simulation from zero of them and every placed flow (no hose drifts).
    placed = [
        flow
        for app in apps
        for flow in placement_to_flows(
            service.last_apps[app.name].placement, app, app.start_time
        )[0]
    ]
    assert [now for now, _ in seen] == [0.0, 0.0, 20.0, 400.0]
    for now, flows in seen:
        truth = provider.simulate(background + placed, until=now) if now else None
        expected = {
            flow.flow_id: (
                flow.size_bytes if truth is None else truth.remaining_bytes[flow.flow_id]
            )
            for flow in background
            if flow.start_time <= now
            and (truth is None or flow.flow_id not in truth.completion_times)
        }
        assert {flow.flow_id for flow in flows} == set(expected)
        for flow in flows:
            assert flow.size_bytes == pytest.approx(expected[flow.flow_id], rel=1e-9)
    # The bootstrap saw two flows whole; the second arrival the one still
    # sending, part sent, and the one started since; the last saw none.
    assert [sorted(f.flow_id for f in flows) for _, flows in seen] == [
        ["other:0", "other:1"], ["other:0", "other:1"], ["other:1", "other:2"], [],
    ]
    assert 0 < seen[2][1][0].size_bytes < background[1].size_bytes

    # The tenant owns its applications alone.
    tenant = [app.name for app in apps]
    assert [outcome.name for outcome in report.apps] == tenant
    assert sorted(service.last_apps) == tenant
    assert {name for name, _ in service._network.sent} == set(tenant)
    assert ledger.problems == [] and ledger.checks > 2 * len(apps)
    assert reports == [report] and report_violations(report) == []
    # The load is real: the second arrival runs slower beside it.
    provider, cluster, _, _ = tenant_under_load(5)
    alone = PlacementService(provider, cluster, greedy, migrate=False, ttl_s=ARRIVAL_TTL_S)
    assert report.apps[1].duration > alone.run_session(apps, hours=1).apps[1].duration


# ------------------------------------------------------- settle when it is set
def two_task_app(name="pair", volume=1 * GBYTE, cores=1.0, start_time=0.0):
    return Application(
        name=name,
        tasks=[Task("a", cores), Task("b", cores)],
        traffic=TrafficMatrix({("a", "b"): volume}),
        start_time=start_time,
    )


def test_colocated_pairs_settle_when_the_placement_is_set():
    app = two_task_app()
    together = LiveApp(app, Placement("pair", {"a": "vm1", "b": "vm1"}), started=7.0)
    # Done at admission, whether or not anyone has listed its flows yet.
    assert together.done and together.completed_at == 7.0
    assert together.colocated == {("a", "b"): 1 * GBYTE}
    cluster = ClusterState.from_vms(_provider(2).vms())
    assert cluster_with_live_usage(cluster, {"pair": together}).cpu_used == {}

    apart = LiveApp(app, Placement("pair", {"a": "vm1", "b": "vm2"}), started=7.0)
    assert not apart.done and apart.colocated == {}
    apart.remaining["a", "b"] = 0.25 * GBYTE  # three quarters delivered
    apart.place(Placement("pair", {"a": "vm2", "b": "vm2"}), now=40.0)
    # A migration that colocates the rest completes the application there
    # and then, not at whatever instant the next unrelated segment starts.
    assert apart.done and apart.completed_at == 40.0
    assert apart.colocated == {("a", "b"): 0.25 * GBYTE}
    assert apart.live_flows(start=40.0) == []


def test_live_flows_is_pure_and_names_the_task_pair():
    app = mapreduce("job", 2, 2, 1 * GBYTE)
    state = LiveApp(
        app, Placement("job", {"m0": "vm1", "m1": "vm2", "r0": "vm1", "r1": "vm2"}), 0.0
    )
    books = dict(state.remaining), dict(state.colocated), state.done
    flows = state.live_flows(start=3.0)
    assert (dict(state.remaining), dict(state.colocated), state.done) == books
    assert [pair for pair, _ in flows] == [("m0", "r1"), ("m1", "r0")]
    assert [(f.src_vm, f.dst_vm, f.start_time) for _, f in flows] == [
        ("vm1", "vm2", 3.0), ("vm2", "vm1", 3.0),
    ]
    assert len({f.flow_id for _, f in flows}) == 2


# ------------------------------------------------ names are data, never parsed
def _provider(n_vms, seed=0):
    provider = make_provider("ec2", seed=seed, colocation_probability=0.0)
    provider.request_vms(n_vms)
    return provider


#: Plain names and their twins as a trace's ``application`` / ``src`` / ``dst``
#: columns read; the twins sort in the same order, so every tie breaks alike.
_PLAIN = {"app": "tenantjob", "m0": "m0", "m1": "m1", "r0": "r0", "r1": "r1"}
_HOSTILE = {
    "app": "tenant:job", "m0": "10.0.0.1:5001", "m1": "10.0.0.1:5002->x",
    "r0": "10.0.0.2:80", "r1": "10.0.0.2:81->10.0.0.1:5001",
}


def _named_mapreduce(names, start_time=0.0):
    app = mapreduce("job", 2, 2, 4 * GBYTE, cpu_per_task=2.0, start_time=start_time)
    traffic = TrafficMatrix(
        {(names[s], names[d]): v for (s, d), v in app.traffic.items()}
    )
    tasks = [Task(names[t.name], t.cpu_cores) for t in app.tasks]
    return Application(names["app"], tasks, traffic, start_time=start_time)


def _advanced(names):
    """Completion time straight through ``advance_live_apps``: one segment
    cut short, then the drain."""
    app = _named_mapreduce(names)
    placement = Placement(
        app.name,
        {names["m0"]: "vm1", names["m1"]: "vm2", names["r0"]: "vm3", names["r1"]: "vm4"},
    )
    network = LiveNetwork(_provider(4))
    running = {app.name: LiveApp(app, placement, started=0.0)}
    advance_live_apps(network, running, 0.0, until=5.0)
    assert not running[app.name].done
    assert 0.0 < sum(running[app.name].remaining.values()) < app.total_bytes
    assert len(live_background_flows(running, 5.0)) == 4
    advance_live_apps(network, running, 5.0, until=None)
    return running[app.name].completed_at


def _served(names):
    """Completion time through one service session."""
    provider = _provider(4)
    cluster = ClusterState.from_vms(provider.vms())
    service = PlacementService(provider, cluster, resolve_placer("round-robin").create(0, None))
    (outcome,) = service.run_session([_named_mapreduce(names)], hours=1).apps
    return outcome.completed_at


@pytest.mark.parametrize("completion_time", [_advanced, _served])
def test_names_with_separators_complete_like_their_plain_twins(completion_time):
    assert completion_time(_HOSTILE) == completion_time(_PLAIN) > 5.0


def test_a_trace_with_separators_in_its_names_replays_like_its_plain_twin(tmp_path):
    durations = {}
    for label, names in (("plain", _PLAIN), ("hostile", _HOSTILE)):
        records = []
        for k, start in enumerate((0.0, 10.0)):
            app = _named_mapreduce({**names, "app": f"{names['app']}{k}"}, start)
            records += [
                FlowRecord(start, app.name, src, dst, volume)
                for (src, dst), volume in app.traffic.items()
            ]
        path = tmp_path / f"{label}.csv"
        write_trace(records, path)
        record = run_trial(
            "ec2-trace-replay", "round-robin", 0, 0, {"trace_path": str(path), "n_vms": 4}
        )
        assert record.ok, record.error
        assert record.network_bytes > 0
        durations[label] = sorted(record.per_app_duration_s.values())
    assert min(durations["plain"]) > 0.0
    assert durations["hostile"] == durations["plain"]
