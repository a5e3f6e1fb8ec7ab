"""The live-application books (``repro.runtime.migration.LiveApp``) held to
invariants instead of to themselves.

:func:`~repro.runtime.migration.live_book_violations` asks, at every pause
of the service's or the sequence runner's live simulation, that no machine
is oversubscribed, that an application holds cores exactly while it has
bytes in flight, that asking for the flows changes nothing, and that every
traffic-matrix entry is accounted for byte by byte — against the bytes the
simulation reported delivered (``LiveNetwork.sent``).  The :class:`Ledger`
here only installs that check and reads the runs it brackets.
"""

import pytest

from helpers import write_trace
from repro.cloud.registry import make_provider
from repro.core.placement.base import ClusterState, Placement
from repro.experiments.placers import resolve_placer
from repro.experiments.trials import run_trial
from repro.runtime.migration import (
    LiveApp,
    LiveNetwork,
    advance_live_apps,
    cluster_with_live_usage,
    live_background_flows,
    live_book_violations,
)
from repro.service.engine import PlacementService, report_violations
from repro.service.session import build_churn_session
from repro.units import GBYTE
from repro.workloads.application import Application, Task, TrafficMatrix
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


# ------------------------------------------------------ golden service sessions
#: Two of ``test_service.TestGoldenDigests``' sessions.
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
        provider, cluster, resolve_placer("greedy").create(0, None),
        predictor="combined", migrate=True,
    )
    ledger = Ledger(monkeypatch, engine, lambda: service.cluster)
    report = service.run_session(apps, hours=_GOLDEN_SESSION["hours"])
    assert len(report.recovery) == recoveries and report.migrations
    assert ledger.checks > 2 * len(apps)
    assert ledger.problems == []
    assert report_violations(report) == []
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
