"""The live-application books (``repro.runtime.migration.LiveApp``) held to
invariants instead of to themselves.

A :class:`Ledger` watches a provider from outside the books: which flow the
books said carries which task pair, and how many bytes each simulation
actually delivered for it.  :func:`live_book_violations` then asks, at
every instant the service or the sequence runner cuts time, that no machine
is oversubscribed, that an application holds cores exactly while it has
bytes in flight, that asking for the flows changes nothing, and that every
traffic-matrix entry is accounted for byte by byte.
"""

import pytest

from repro.cloud.registry import make_provider
from repro.core.placement.base import ClusterState, Placement
from repro.experiments.placers import get_placer
from repro.experiments.trials import run_trial
from repro.runtime.migration import (
    LiveApp,
    advance_live_apps,
    cluster_with_live_usage,
    live_background_flows,
)
from repro.service.engine import PlacementService
from repro.service.session import build_churn_session
from repro.units import GBYTE
from repro.workloads.application import Application, Task, TrafficMatrix
from repro.workloads.patterns import mapreduce
from repro.workloads.trace import FlowRecord, write_trace


# ------------------------------------------------------------- the invariants
def live_book_violations(cluster, running, sent):
    """Ways the live-application books are wrong (empty: none).

    No machine has more cores held than it has; an application holds cores
    exactly while it has bytes in flight, and reading its flows changes
    neither; per task pair the bytes the network carried (``sent[app,
    pair]``: what the caller saw the simulations deliver, not what the books
    say), the bytes still to move and the bytes colocation took off the
    network add up to the traffic-matrix entry — to 1e-6 B, or to a part in
    1e12 where a double is coarser than that (its ulp at 13 GB is 1.9e-6 B).
    """
    free = cluster_with_live_usage(cluster, running).available_cpus()
    problems = [
        f"{machine}: {-cores!r} core(s) more held than it has"
        for machine, cores in free.items()
        if cores < -1e-9
    ]
    for name, state in running.items():
        before = state.done, dict(state.remaining), dict(state.colocated)
        in_flight = state.live_flows(start=0.0)
        if before != (state.done, state.remaining, state.colocated):
            problems.append(f"{name}: live_flows() changed the books")
        if state.done == bool(in_flight):
            problems.append(f"{name}: done={state.done} with {len(in_flight)} flow(s)")
        for src, dst, entry in state.app.transfers():
            pair = (src, dst)
            parts = (
                sent.get((name, pair), 0.0),
                state.remaining[pair],
                state.colocated.get(pair, 0.0),
            )
            if min(parts) < 0.0 or abs(sum(parts) - entry) > max(1e-6, 1e-12 * entry):
                problems.append(
                    f"{name} {src}->{dst}: sent, remaining, colocated = "
                    f"{parts!r} do not add up to {entry!r}"
                )
    return problems


class Ledger:
    """Bytes delivered per ``(app, task pair)``, read off the simulations.

    ``watch(module, cluster_of)`` also wraps the ``advance_live_apps`` bound
    in ``module`` so the books are checked before and after every segment.
    """

    def __init__(self, monkeypatch, provider):
        self.monkeypatch = monkeypatch
        self.sent = {}
        self.delivered_at = {}  # app -> when its latest flow finished
        self.checks = 0
        self.problems = []
        pair_of = {}
        live_flows, simulate = LiveApp.live_flows, provider.simulate

        def recording_live_flows(state, start):
            flows = live_flows(state, start)
            for pair, flow in flows:
                pair_of[flow.flow_id] = (state.app.name, pair)
            return flows

        def recording_simulate(vm_flows, until=None):
            result = simulate(vm_flows, until=until)
            for flow in vm_flows:
                key = pair_of.get(flow.flow_id)
                if key is None:
                    continue
                moved = flow.size_bytes - result.remaining_bytes[flow.flow_id]
                # The same bytes, integrated from the flow's rate timeline.
                carried = sum(
                    s.rate_bps * (s.end - s.start) / 8.0
                    for s in result.timelines[flow.flow_id].segments
                )
                assert carried == pytest.approx(moved, rel=1e-6, abs=1.0)
                self.sent[key] = self.sent.get(key, 0.0) + moved
                if flow.flow_id in result.completion_times:
                    self.delivered_at[key[0]] = max(
                        self.delivered_at.get(key[0], 0.0),
                        result.completion_times[flow.flow_id],
                    )
            return result

        monkeypatch.setattr(LiveApp, "live_flows", recording_live_flows)
        monkeypatch.setattr(provider, "simulate", recording_simulate)

    def watch(self, module, cluster_of):
        advance = module.advance_live_apps

        def checked(provider, running, start, until, **kwargs):
            self.check(cluster_of(), running)
            result = advance(provider, running, start, until, **kwargs)
            self.check(cluster_of(), running)
            return result

        self.monkeypatch.setattr(module, "advance_live_apps", checked)

    def check(self, cluster, running):
        self.checks += 1
        self.problems.extend(live_book_violations(cluster, running, self.sent))


# ------------------------------------------------------ golden service sessions
#: ``test_service.TestGoldenDigests``' two sessions.
_GOLDEN_SESSION = dict(
    n_vms=12, hours=8, drift="hotspot-flap", epoch_s=120.0, apps_per_hour=2.0,
)


@pytest.mark.parametrize("faults, recoveries", [("none", 0), ("rack-outage", 3)])
def test_books_balance_at_every_cut_of_the_golden_sessions(
    monkeypatch, faults, recoveries
):
    import repro.service.engine as engine

    provider, cluster, apps, _ = build_churn_session(0, faults=faults, **_GOLDEN_SESSION)
    service = PlacementService(
        provider, cluster, get_placer("greedy").create(0, None),
        predictor="combined", migrate=True,
    )
    ledger = Ledger(monkeypatch, provider)
    ledger.watch(engine, lambda: service.cluster)
    report = service.run_session(apps, hours=_GOLDEN_SESSION["hours"])
    assert len(report.recovery) == recoveries and report.migrations
    assert ledger.checks > 2 * len(apps)
    assert ledger.problems == []
    # An application completes when its last byte is delivered or, if that
    # is later, when the placement that colocated the rest was set — here one
    # migrates at t = 600 s onto VMs that do — and not when the next unrelated
    # arrival happens to start a segment (682.7 s, before PR 23).
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
    provider = _provider(4)
    running = {app.name: LiveApp(app, placement, started=0.0)}
    advance_live_apps(provider, running, 0.0, until=5.0)
    assert not running[app.name].done
    assert 0.0 < sum(running[app.name].remaining.values()) < app.total_bytes
    assert len(live_background_flows(running, 5.0)) == 4
    advance_live_apps(provider, running, 5.0, until=None)
    return running[app.name].completed_at


def _served(names):
    """Completion time through one service session."""
    provider = _provider(4)
    cluster = ClusterState.from_vms(provider.vms())
    service = PlacementService(provider, cluster, get_placer("round-robin").create(0, None))
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
