"""The unified telemetry layer (`repro.obs`): span tracer JSONL round
trips, trace-on/trace-off bit-identity across backends, a pool sweep's
trial → pid → pack chain, the metrics registry vs. the legacy ``.stats``
views, the ``obs report`` profile math, the ``--stats`` CLI fold, and the
service report's opt-in telemetry block."""

import gc
import json
import os

import pytest

from helpers import pair_matrix
from repro import obs
from repro.core.network_profile import NetworkProfile
from repro.core.placement import greedy
from repro.core.placement.base import ClusterState, Machine
from repro.core.placement.baselines import RoundRobinPlacer
from repro.core.placement.greedy import GreedyPlacer
from repro.core.placement.ilp import OptimalPlacer
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    ResultStore,
    WorkItem,
    create_backend,
    run_trial,
)
from repro.experiments.cli import main as experiments_main
from repro.experiments.results import HOST_TIMING_FIELDS
from repro.workloads.application import Application, Task, TrafficMatrix
from repro.obs.report import (
    TraceError,
    build_profile,
    load_events,
    render_diff,
    render_report,
)


@pytest.fixture
def trace_to(tmp_path):
    """Enable tracing to a temp file for the test; always restore off."""
    path = tmp_path / "trace.jsonl"
    obs.configure(str(path), export_env=False)
    try:
        yield path
    finally:
        obs.configure(None, export_env=False)


def _canonical(records):
    return json.dumps(
        [
            {k: v for k, v in vars(rec).items() if k not in HOST_TIMING_FIELDS}
            for rec in records
        ],
        sort_keys=True,
    )


# ----------------------------------------------------------------- tracer
def test_span_off_by_default_is_shared_noop():
    assert obs.span("a", x=1) is obs.span("b")  # one shared no-op object
    with obs.span("a") as s:
        s.set(y=2)  # dropped, not an error
    obs.point("tick", z=3)  # dropped, not an error


def test_span_nesting_and_attrs_round_trip(trace_to):
    with obs.span("outer", depth=0):
        with obs.span("inner", label="x") as inner:
            inner.set(found=2)
            obs.point("tick", k=3)
    obs.configure(None, export_env=False)

    events = load_events(trace_to)
    spans = {ev["name"]: ev for ev in events if ev["ev"] == "span"}
    points = [ev for ev in events if ev["ev"] == "point"]
    assert set(spans) == {"outer", "inner"}
    outer, inner = spans["outer"], spans["inner"]
    assert outer["parent"] is None
    assert inner["parent"] == outer["span"]
    assert outer["attrs"] == {"depth": 0}
    assert inner["attrs"] == {"label": "x", "found": 2}  # set() merged in
    assert inner["dur"] <= outer["dur"]
    assert [p["name"] for p in points] == ["tick"]
    assert points[0]["attrs"] == {"k": 3}
    assert points[0]["parent"] == inner["span"]  # points attach to the stack
    assert {outer["pid"], inner["pid"], points[0]["pid"]} == {outer["pid"]}


def test_span_records_exceptions_and_unwinds_stack(trace_to):
    with pytest.raises(ValueError):
        with obs.span("boom"):
            raise ValueError("no")
    with obs.span("after"):
        pass
    obs.configure(None, export_env=False)
    spans = {ev["name"]: ev for ev in load_events(trace_to)}
    assert spans["boom"]["error"] == "ValueError"
    assert spans["after"]["parent"] is None  # the failed span was popped


# ----------------------------------------------- bit-identity across backends
def test_traced_inline_sweep_is_bit_identical(tmp_path):
    config = ExperimentConfig(
        scenarios=("smoke",), placers=("greedy", "random"), trials=2,
        baseline="random", workers=1, backend="inline",
    )
    untraced = ExperimentRunner(config).run()
    obs.configure(str(tmp_path / "sweep.jsonl"), export_env=False)
    try:
        traced = ExperimentRunner(config).run()
    finally:
        obs.configure(None, export_env=False)
    assert json.dumps(traced.canonical_json_dict(), sort_keys=True) == json.dumps(
        untraced.canonical_json_dict(), sort_keys=True
    )
    names = {ev["name"] for ev in load_events(tmp_path / "sweep.jsonl")}
    assert "experiments.run" in names


#: The fields of every ``service.admission`` point, whatever its outcome.
ADMISSION_FIELDS = {
    "app", "outcome", "live_apps", "background_flows", "cores_free",
    "binding", "needed_cores", "available_cores",
}


def test_traced_sequence_says_what_each_arrival_saw(trace_to):
    traced = run_trial("multi-app-sequence", "greedy", 0, 0)
    obs.configure(None, export_env=False)
    plain = run_trial("multi-app-sequence", "greedy", 0, 0)
    assert _canonical([traced]) == _canonical([plain])  # pure observation

    events = load_events(trace_to)
    (session,) = [ev for ev in events if ev["name"] == "service.session"]
    admissions = [ev for ev in events if ev["name"] == "service.admission"]
    assert session["attrs"]["apps"] == len(admissions) == 4
    assert [a["attrs"]["app"] for a in admissions] == sorted(plain.per_app_duration_s)
    # Greedy colocates the first three applications: nothing is in flight at
    # any arrival, so the live simulation runs once, to drain the last one.
    for admission in admissions:
        attrs = admission["attrs"]
        assert admission["parent"] == session["span"]
        assert set(attrs) == ADMISSION_FIELDS
        assert attrs["outcome"] == "admitted" and attrs["binding"] is None
        assert attrs["live_apps"] == [] and attrs["background_flows"] == 0
        assert attrs["cores_free"] == [4.0] * 10
    assert sum(ev["name"] == "fluid.run" for ev in events) == 1
    assert [plain.per_app_duration_s[f"app000{k}"] for k in (1, 2, 3)] == [0.0] * 3
    # The bootstrap measures the mesh; each later arrival re-measures.
    assert sum(ev["name"] == "measure.campaign" for ev in events) == 4

    # A placer that spreads tasks keeps applications alive across arrivals;
    # it reads no profile, so nothing is measured.
    obs.configure(str(trace_to), export_env=False)
    run_trial("multi-app-sequence", "round-robin", 0, 0, {"arrival_gap_s": 1.0})
    obs.configure(None, export_env=False)
    events = load_events(trace_to)[len(events):]
    (session,) = [ev for ev in events if ev["name"] == "service.session"]
    last = [ev for ev in events if ev["name"] == "service.admission"][-1]["attrs"]
    assert last["live_apps"] and last["background_flows"] > 0
    assert min(last["cores_free"]) < 4.0
    assert not any(ev["name"] == "measure.campaign" for ev in events)
    # One fluid.run span per segment, each but the first resuming the live
    # simulation's pause; each says what changed.
    runs = [
        ev["attrs"] for ev in events
        if ev["name"] == "fluid.run" and ev["parent"] == session["span"]
    ]
    assert len(runs) == 4  # one per arrival gap, then the drain
    assert [r["resumed"] for r in runs] == [False, True, True, True]
    assert all(r["added"] > 0 for r in runs)  # an arrival per segment
    assert all(r["withdrawn"] == 0 and r["batches"] > 0 for r in runs)


def test_traced_service_says_which_cpu_bound_rejected_an_arrival(trace_to):
    from repro.cloud.registry import make_provider
    from repro.service.engine import PlacementService
    from repro.units import GBYTE

    provider = make_provider("ec2", seed=0, colocation_probability=0.0)
    provider.request_vms(2)
    cluster = ClusterState.from_vms(provider.vms())  # 2 VMs x 4 cores

    def app(name, cores, start):
        tasks = [Task(f"{name}{k}", c) for k, c in enumerate(cores)]
        traffic = TrafficMatrix({(tasks[0].name, tasks[1].name): 10 * GBYTE})
        return Application(name, tasks, traffic, start_time=start)

    apps = [
        app("half", (2.0, 2.0), 0.0),  # round-robin: one task per VM, 2 + 2 free
        app("wide", (2.5, 2.5), 1.0),  # 5 cores against 4 free
        app("tall", (3.0, 0.5), 2.0),  # 3.5 fit in total; no VM has 3 free
    ]
    service = PlacementService(
        provider, cluster, RoundRobinPlacer(), migrate=False,
    )
    report = service.run_session(apps, hours=1)
    assert [a.status for a in report.apps] == ["completed", "rejected", "rejected"]
    attrs = {
        ev["attrs"]["app"]: ev["attrs"]
        for ev in load_events(trace_to) if ev["name"] == "service.admission"
    }
    assert all(set(a) == ADMISSION_FIELDS for a in attrs.values())
    assert attrs["half"]["binding"] is None
    assert (attrs["wide"]["outcome"], attrs["wide"]["binding"]) == ("rejected", "total-cores")
    assert (attrs["wide"]["needed_cores"], attrs["wide"]["available_cores"]) == (5.0, 4.0)
    assert attrs["tall"]["binding"] == "largest-slot"
    assert (attrs["tall"]["needed_cores"], attrs["tall"]["available_cores"]) == (3.0, 2.0)
    assert attrs["tall"]["live_apps"] == ["half"] and attrs["tall"]["background_flows"] == 1


def test_traced_churn_session_says_why_it_did_not_migrate(trace_to):
    from repro.service.session import run_churn_session

    # One of test_service.TestGoldenDigests' sessions: 2 migrations fire.
    report = run_churn_session(
        0, n_vms=12, hours=8, epoch_s=120.0, drift="hotspot-flap", apps_per_hour=2.0,
    )
    events = load_events(trace_to)
    admissions = [ev["attrs"] for ev in events if ev["name"] == "service.admission"]
    skipped = [ev["attrs"] for ev in events if ev["name"] == "service.migration_skipped"]
    assert len(admissions) == len(report.apps) and len(report.migrations) == 2
    assert all(set(a) == ADMISSION_FIELDS for a in admissions)
    assert skipped and all(
        set(s) == {"app", "predicted_gain", "improvement_threshold"} for s in skipped
    )
    assert all(s["improvement_threshold"] == 0.1 for s in skipped)
    priced = [s["predicted_gain"] for s in skipped if s["predicted_gain"] is not None]
    assert priced and all(gain <= 0.1 for gain in priced)


def test_traced_recovery_names_the_fault_it_answers(trace_to):
    from repro.experiments.placers import resolve_placer
    from repro.service.engine import PlacementService
    from repro.service.session import build_churn_session
    from repro.service.timeline import LinkDegradation, VmPreemption

    # test_service.TestGoldenDigests' rack-outage session: 3 recoveries.
    provider, cluster, apps, _ = build_churn_session(
        0, faults="rack-outage", n_vms=12, hours=8, drift="hotspot-flap",
        epoch_s=120.0, apps_per_hour=2.0,
    )
    report = PlacementService(
        provider, cluster, resolve_placer("greedy").create(0, None),
        predictor="measured", migrate=True,
    ).run_session(apps, hours=8)
    events = provider.timeline.events
    points = [ev["attrs"] for ev in load_events(trace_to) if ev["name"] == "service.recovery"]
    assert len(points) == len(report.recovery) == 3
    kinds = {VmPreemption: "vm-preemption", LinkDegradation: "link-degradation"}
    for point, action in zip(points, report.recovery):
        event = events[point["fault"]]
        assert kinds[type(event)] == point["kind"] == action.kind
        assert event.vm == point["target"] == action.target
        assert point["event_time_s"] == action.event_time_s == event.effect_time_s
        assert point["latency_s"] == action.latency_s
        assert point["apps"] == list(action.apps)


def _decision_instance():
    """Five one-core machines, rate ``(1 + i + 2j)·100 Mbit/s`` from ``vm{i}``
    to ``vm{j}``, and a chain of four one-core tasks: no colocation."""
    machines = [f"vm{i}" for i in range(5)]
    profile = NetworkProfile(
        machines, pair_matrix(machines, lambda a, b: 1e8 * (1 + int(a[2:]) + 2 * int(b[2:])))
    )
    cluster = ClusterState(machines=[Machine(m, 1.0) for m in machines])
    traffic = TrafficMatrix()
    for src, dst, volume in (("a", "b", 3e6), ("b", "c", 2e6), ("c", "d", 1e6)):
        traffic.add(src, dst, volume)
    return Application("app", [Task(t, 1.0) for t in "abcd"], traffic), cluster, profile


DECISION_FIELDS = {
    "placer", "app", "transfer", "candidates", "chosen", "runner_up",
    "rate_bps", "gap_bps", "tied", "egress_bps",
}


def _decisions(trace):
    return [ev["attrs"] for ev in load_events(trace) if ev["name"] == "placement.decision"]


def test_traced_greedy_says_what_each_choice_beat(trace_to, monkeypatch):
    app, cluster, profile = _decision_instance()
    placer = GreedyPlacer()
    placed = placer.place(app, cluster, profile).assignments
    decisions = _decisions(trace_to)
    # One choice per transfer: a -> b picks both machines, then b and c pin.
    assert [d["transfer"] for d in decisions] == [["a", "b"], ["b", "c"], ["c", "d"]]
    for d in decisions:
        assert set(d) == DECISION_FIELDS
        assert d["placer"] == "greedy" and d["app"] == "app"
        assert d["tied"] is None and d["egress_bps"] is None  # nothing colocates
        assert d["chosen"] == [placed[task] for task in d["transfer"]]
        assert d["rate_bps"] > 0
        if d["runner_up"] is None:  # (one candidate in the searched block)
            assert d["candidates"] == 1 and d["gap_bps"] is None
        else:
            assert d["candidates"] >= 2 and d["runner_up"] != d["chosen"]
            assert 0 <= d["gap_bps"] <= d["rate_bps"]
    # The search opens all 20 ordered pairs; vm3 -> vm4 (12) beats vm2 -> vm4
    # and vm4 -> vm3 (11) by one step.  Then the pinned row of vm4 has the
    # three free machines left.
    first, second, _ = decisions
    assert first["candidates"] == 20 and first["chosen"] == ["vm3", "vm4"]
    assert first["runner_up"] in (["vm2", "vm4"], ["vm4", "vm3"])
    assert first["rate_bps"] == 12e8 and first["gap_bps"] == 1e8
    assert second["candidates"] == 3

    # Off, the runner-up is never computed and nothing is emitted.
    obs.configure(None, export_env=False)
    seen = len(load_events(trace_to))
    monkeypatch.setattr(greedy, "_runner_up", None)
    assert placer.place(app, cluster, profile).assignments == placed
    assert len(load_events(trace_to)) == seen


def test_traced_greedy_names_the_colocation_tie_it_broke(trace_to):
    """Three 2-core machines with hoses of 1, 3 and 9 (x 100 Mbit/s): the
    heavy pair fits on any of them, and the one with the fastest egress wins."""
    machines = ["vm0", "vm1", "vm2"]
    profile = NetworkProfile(
        machines, pair_matrix(machines, lambda src, dst: 1e8 * 3 ** int(src[2:]))
    )
    cluster = ClusterState(machines=[Machine(m, 2.0) for m in machines])
    traffic = TrafficMatrix({("a", "b"): 3e6, ("b", "c"): 1e6})
    app = Application("app", [Task(t, 1.0) for t in "abc"], traffic)
    GreedyPlacer().place(app, cluster, profile)
    first, second = _decisions(trace_to)
    assert all(set(d) == DECISION_FIELDS for d in (first, second))
    assert first["chosen"] == ["vm2", "vm2"]
    assert first["tied"] == 3 and first["egress_bps"] == 9e8
    assert second["chosen"][0] == "vm2"
    assert second["tied"] is None and second["egress_bps"] is None


def test_traced_exact_search_reports_its_tree(trace_to):
    app, cluster, profile = _decision_instance()
    OptimalPlacer().place(app, cluster, profile)
    (decision,) = [
        ev["attrs"] for ev in load_events(trace_to)
        if ev["name"] == "placement.decision" and ev["attrs"]["placer"] == "ilp"
    ]
    assert set(decision) == {"placer", "app", "nodes", "leaves", "improvements", "proved"}
    assert decision["proved"] is True and decision["nodes"] >= decision["improvements"]


def test_traced_store_says_what_it_wrote_and_loaded(trace_to, tmp_path):
    config = ExperimentConfig(
        scenarios=("smoke",), placers=("greedy", "random"), trials=2,
        baseline="random", workers=1, cache_dir=str(tmp_path / "store"),
    )
    gc.collect()
    before = obs.metrics.snapshot()
    cold, warm = ExperimentRunner(config), ExperimentRunner(config)
    cold.run()
    warm.run()
    obs.configure(None, export_env=False)
    after = obs.metrics.snapshot()

    events = load_events(trace_to)
    (put,) = [ev for ev in events if ev["name"] == "store.put_many"]
    (pack,) = (tmp_path / "store").glob("*/packs/*.jsonl")
    assert put["attrs"] == {
        "cells": 4, "bytes": pack.stat().st_size, "pack": pack.name,
    }
    (load,) = [ev for ev in events if ev["name"] == "store.load"]
    assert load["attrs"] == {"packs": 1, "lines": 4, "invalid": 0}
    assert warm.last_stats.cache_hits == 4
    for name, delta in (("packs_written", 1), ("packs_loaded", 1), ("write_errors", 0)):
        name = "repro.store." + name
        assert after.get(name, 0) - before.get(name, 0) == delta, name


def test_traced_remote_sweep_is_bit_identical_and_workers_trace(tmp_path):
    items = [
        WorkItem.make("smoke", placer, trial, 0)
        for placer in ("greedy", "random")
        for trial in range(2)
    ]
    expected = dict(create_backend("inline").map_trials(items))
    trace = tmp_path / "pool.jsonl"
    # export_env=True so the spawned pool workers trace into the same file
    # (REPRO_TRACE is inherited); configure(None) pops it.
    obs.configure(str(trace))
    try:
        records = dict(create_backend("pool", workers=2).map_trials(items))
    finally:
        obs.configure(None)
    assert records.keys() == expected.keys()
    assert _canonical(records[i] for i in expected) == _canonical(expected.values())
    trials = [ev for ev in load_events(trace) if ev["name"] == "experiments.trial"]
    assert len(trials) == len(items)
    assert os.getpid() not in {ev["pid"] for ev in trials}


def test_a_traced_pool_sweep_maps_each_trial_to_one_worker_and_one_pack(tmp_path):
    """From the trace file alone: each trial key → exactly one pid, never the
    parent's → the one pack the sweep wrote."""
    trace = tmp_path / "sweep.jsonl"
    store = tmp_path / "store"
    try:
        assert experiments_main([
            "run", "--scenario", "smoke", "--placers", "greedy,random",
            "--trials", "4", "--jobs", "2", "--cache-dir", str(store),
            "--output", "", "--trace", str(trace),
        ]) == 0
    finally:
        obs.configure(None)
    events = load_events(trace)
    (sweep,) = [ev for ev in events if ev["name"] == "experiments.run"]
    pids = {}
    for ev in events:
        if ev["name"] == "experiments.trial":
            attrs = ev["attrs"]
            key = (attrs["scenario"], attrs["placer"], attrs["trial"], attrs["seed"])
            pids.setdefault(key, set()).add(ev["pid"])
    assert len(pids) == 8
    assert all(len(owners) == 1 for owners in pids.values())
    assert sweep["pid"] not in set().union(*pids.values())
    (put,) = [ev for ev in events if ev["name"] == "store.put_many"]
    (pack,) = store.glob("*/packs/*.jsonl")
    assert put["pid"] == sweep["pid"] and put["parent"] == sweep["span"]
    assert put["attrs"]["pack"] == pack.name and put["attrs"]["cells"] == len(pids)


# ------------------------------------------------- metrics vs. legacy views
def test_metrics_snapshot_matches_legacy_stats_views(tmp_path):
    from repro.net.alloc import IncrementalAllocator

    gc.collect()  # dying instruments must not skew the before/after delta
    before = obs.metrics.snapshot()

    alloc = IncrementalAllocator({"l0": 1e9, "l1": 1e9})
    alloc.add_flow("f0", ["l0"])
    alloc.solve()
    alloc.add_flow("f1", ["l1"])
    alloc.solve()

    store = ResultStore(tmp_path, version="v1")
    key = store.key_for("smoke", "random", 0, 42)
    assert store.get(key) is None  # miss
    store.put(key, run_trial("smoke", "random", 0, 42))
    assert store.get(key) is not None  # hit

    after = obs.metrics.snapshot()
    alloc_view, store_view = alloc.solver_stats(), store.stats
    for view, prefix in ((alloc_view, "repro.alloc."), (store_view, "repro.store.")):
        for field, count in view.items():
            name = prefix + field
            assert after.get(name, 0) - before.get(name, 0) == count, name
    assert store_view["hits"] == 1 and store_view["misses"] == 1
    assert store_view["stored"] == 1
    assert alloc_view["full_solves"] >= 1
    assert alloc_view["walks"] == 1 and alloc_view["walks_skipped"] == 0


def test_a_dropped_instrument_leaves_the_registry_without_a_snapshot():
    """A sweep builds an allocator per simulation and may never take a
    snapshot: the registry must not keep an entry for each one it dropped."""
    from repro.net.alloc import IncrementalAllocator

    def entries():
        return sum(len(group) for group in obs.metrics._by_name.values())

    gc.collect()
    before = entries()
    for _ in range(1000):
        IncrementalAllocator({"l0": 1e9})
    gc.collect()
    assert entries() <= before
    kept = IncrementalAllocator({"l0": 1e9})
    assert entries() == before + len(kept.solver_stats())


# ----------------------------------------------------------- report math
def _span_line(name, span_id, parent, dur, pid=1):
    return {
        "ev": "span", "name": name, "span": span_id, "parent": parent,
        "ts": 0.0, "dur": dur, "pid": pid, "tid": 1,
    }


def test_report_profile_math_on_hand_built_trace(tmp_path):
    # root (10s) -> child (6s) -> grandchild (1s); a second root-level
    # child (2s); one orphan span in another process (5s); one point.
    events = [
        _span_line("grandchild", "a-3", "a-2", 1.0),
        _span_line("child", "a-2", "a-1", 6.0),
        _span_line("child", "a-4", "a-1", 2.0),
        _span_line("root", "a-1", None, 10.0),
        _span_line("orphan", "b-1", "b-0", 5.0, pid=2),  # parent never closed
        {"ev": "point", "name": "tick", "ts": 1.0, "pid": 1, "tid": 1},
    ]
    path = tmp_path / "hand.jsonl"
    path.write_text("\n".join(json.dumps(ev) for ev in events) + "\n")

    profile = build_profile(load_events(path))
    assert profile.n_spans == 5
    assert profile.n_processes == 2
    assert profile.paths[("root",)] == [1, 10.0, 2.0]  # 10 - (6 + 2) self
    assert profile.paths[("root", "child")] == [2, 8.0, 7.0]  # 8 - 1 self
    assert profile.paths[("root", "child", "grandchild")] == [1, 1.0, 1.0]
    assert profile.paths[("orphan",)] == [1, 5.0, 5.0]  # treated as a root
    assert profile.points == {"tick": 1}
    assert profile.total_self_s() == pytest.approx(15.0)  # no double count

    text = render_report(profile)
    assert "5 span(s) across 2 process(es)" in text
    assert "grandchild" in text and "tick" in text

    diff = render_diff(profile, profile)
    assert "root" in diff and "ratio" in diff

    with pytest.raises(TraceError):
        load_events(tmp_path / "missing.jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    with pytest.raises(TraceError):
        load_events(bad)


def test_report_cli_renders_and_diffs(tmp_path, capsys):
    from repro.obs.__main__ import main as obs_main

    path = tmp_path / "t.jsonl"
    obs.configure(str(path), export_env=False)
    try:
        with obs.span("alpha"):
            with obs.span("beta"):
                pass
    finally:
        obs.configure(None, export_env=False)

    assert obs_main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "beta" in out

    assert obs_main(["report", str(path), "--diff", str(path)]) == 0
    assert "ratio" in capsys.readouterr().out

    assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2


# ----------------------------------------------------------------- CLI fold
def test_stats_flag_prints_snapshot_and_cache_stats_is_alias(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    rc = experiments_main(
        ["run", "--scenario", "smoke", "--trials", "1",
         "--placers", "random", "--output", str(out_path), "--stats"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "telemetry snapshot:" in captured.out
    assert "repro.sweep.runs" in captured.out

    rc = experiments_main(
        ["run", "--scenario", "smoke", "--trials", "1",
         "--placers", "random", "--output", str(out_path), "--cache-stats"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "telemetry snapshot:" in captured.out  # alias reaches --stats
    assert "deprecated" in captured.err


# -------------------------------------------------- service telemetry block
def test_service_report_telemetry_is_opt_in_and_non_canonical():
    from repro.service.session import run_churn_session

    session = dict(n_vms=4, hours=2.0, epoch_s=60.0, apps_per_hour=1.0)
    plain = run_churn_session(3, placer="greedy", **session)
    with_telemetry = run_churn_session(
        3, placer="greedy", telemetry=True, **session
    )

    assert "telemetry" not in plain.to_json_dict()
    block = with_telemetry.to_json_dict()["telemetry"]
    assert "metrics" in block and "session_wall_s" in block
    assert any(name.startswith("repro.") for name in block["metrics"])

    # Canonical forms drop the block, so telemetry never breaks the
    # bit-identity the CI chaos jobs and the result cache rely on.
    assert json.dumps(
        plain.canonical_json_dict(), sort_keys=True
    ) == json.dumps(with_telemetry.canonical_json_dict(), sort_keys=True)
