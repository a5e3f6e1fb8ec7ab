"""The unified telemetry layer (`repro.obs`): span tracer JSONL round
trips, trace-on/trace-off bit-identity across backends, the metrics
registry vs. the legacy ``.stats`` views, worker ``/metrics`` exposition
(including mid-lease freshness), the ``obs report`` profile math, the
``--stats`` CLI fold, and the service report's opt-in telemetry block."""

import gc
import http.client
import json
import re

import pytest

from helpers import arm_worker_chaos
from repro import obs
from repro.core.network_profile import NetworkProfile
from repro.core.placement import greedy
from repro.core.placement.base import ClusterState, Machine
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
from repro.experiments.worker import WorkerClient, spawn_local_workers
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


def test_traced_sequence_says_what_each_arrival_saw(trace_to):
    traced = run_trial("multi-app-sequence", "greedy", 0, 0)
    obs.configure(None, export_env=False)
    plain = run_trial("multi-app-sequence", "greedy", 0, 0)
    assert _canonical([traced]) == _canonical([plain])  # pure observation

    events = load_events(trace_to)
    (run,) = [ev for ev in events if ev["name"] == "sequence.run"]
    arrivals = [ev for ev in events if ev["name"] == "sequence.arrival"]
    assert run["attrs"]["apps"] == len(arrivals) == 4
    # Greedy colocates the first three applications: nothing is in flight at
    # any arrival, so the live simulation never runs — only the truth run does.
    assert run["attrs"]["segments"] == 0 and run["attrs"]["simulations"] == 2
    assert [a["attrs"]["app"] for a in arrivals] == sorted(plain.per_app_duration_s)
    for arrival in arrivals:
        assert arrival["parent"] == run["span"]
        assert arrival["attrs"]["live_apps"] == []
        assert arrival["attrs"]["background_flows"] == 0
        assert arrival["attrs"]["cores_free"] == [4.0] * 10

    # A placer that spreads tasks keeps applications alive across arrivals.
    obs.configure(str(trace_to), export_env=False)
    run_trial("multi-app-sequence", "round-robin", 0, 0, {"arrival_gap_s": 1.0})
    obs.configure(None, export_env=False)
    events = load_events(trace_to)[len(events):]
    (run,) = [ev for ev in events if ev["name"] == "sequence.run"]
    last = [ev for ev in events if ev["name"] == "sequence.arrival"][-1]["attrs"]
    assert run["attrs"]["simulations"] == 2 and run["attrs"]["segments"] > 1
    assert last["live_apps"] and last["background_flows"] > 0
    assert min(last["cores_free"]) < 4.0
    # One fluid.run span per segment, each but the first resuming the live
    # simulation's pause, then the truth run's; each says what changed.
    runs = [
        ev["attrs"] for ev in events
        if ev["name"] == "fluid.run" and ev["parent"] == run["span"]
    ]
    assert len(runs) == run["attrs"]["segments"] + 1
    assert [r["resumed"] for r in runs] == [False] + [True] * (len(runs) - 2) + [False]
    assert all(r["added"] > 0 for r in runs[:-1])  # an arrival per segment
    assert all(r["withdrawn"] == r["capacities_changed"] == 0 for r in runs)
    assert all(r["batches"] > 0 for r in runs)


def _decision_instance():
    """Five one-core machines, rate ``(1 + i + 2j)·100 Mbit/s`` from ``vm{i}``
    to ``vm{j}``, and a chain of four one-core tasks: no colocation."""
    machines = [f"vm{i}" for i in range(5)]
    profile = NetworkProfile.from_rate_function(
        machines, lambda a, b: 1e8 * (1 + int(a[2:]) + 2 * int(b[2:]))
    )
    cluster = ClusterState(machines=[Machine(m, 1.0) for m in machines])
    traffic = TrafficMatrix()
    for src, dst, volume in (("a", "b", 3e6), ("b", "c", 2e6), ("c", "d", 1e6)):
        traffic.add(src, dst, volume)
    return Application("app", [Task(t, 1.0) for t in "abcd"], traffic), cluster, profile


DECISION_FIELDS = {
    "placer", "app", "transfer", "path", "candidates", "chosen", "runner_up",
    "rate_bps", "gap_bps",
}


@pytest.mark.parametrize("threshold", [None, 1])
def test_traced_greedy_says_what_each_choice_beat(trace_to, threshold, monkeypatch):
    app, cluster, profile = _decision_instance()
    placer = GreedyPlacer(cluster_threshold=threshold)
    placed = placer.place(app, cluster, profile).assignments
    decisions = [
        ev["attrs"] for ev in load_events(trace_to) if ev["name"] == "placement.decision"
    ]
    # One choice per transfer: a -> b picks both machines, then b and c pin.
    assert [d["transfer"] for d in decisions] == [["a", "b"], ["b", "c"], ["c", "d"]]
    for d in decisions:
        assert set(d) == DECISION_FIELDS
        assert d["placer"] == "greedy" and d["app"] == "app"
        assert d["path"] == ("flat" if threshold is None else "hierarchical")
        assert d["chosen"] == [placed[task] for task in d["transfer"]]
        assert d["rate_bps"] > 0
        if d["runner_up"] is None:  # (one candidate in the searched block)
            assert d["candidates"] == 1 and d["gap_bps"] is None
        else:
            assert d["candidates"] >= 2 and d["runner_up"] != d["chosen"]
            assert 0 <= d["gap_bps"] <= d["rate_bps"]
    if threshold is None:
        # The flat search opens all 20 ordered pairs; vm3 -> vm4 (12) beats
        # vm2 -> vm4 and vm4 -> vm3 (11) by one step.  Then the pinned row
        # of vm4 has the three free machines left.
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
    assert put["attrs"] == {"cells": 4, "bytes": pack.stat().st_size}
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
    expected = create_backend("inline").map_trials(items)
    trace = tmp_path / "fabric.jsonl"
    # export_env=True so the spawned worker subprocess traces into the
    # same file (REPRO_TRACE is inherited); configure(None) pops it.
    obs.configure(str(trace))
    try:
        records = create_backend("remote", workers=1).map_trials(items)
    finally:
        obs.configure(None)
    assert _canonical(records) == _canonical(expected)
    events = load_events(trace)
    assert {ev["pid"] for ev in events if ev["ev"] == "span"} != set()
    assert len({ev["pid"] for ev in events}) >= 2  # scheduler and worker
    names = {ev["name"] for ev in events}
    assert "fabric.map_trials" in names
    assert "fabric.lease" in names  # the dispatch point event


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


def test_prometheus_text_exposition_format():
    registry = obs.MetricsRegistry()
    hits = obs.Counter("test.exposition.hits", help="cache hits", register=False)
    registry.register(hits)
    depth = obs.Gauge("test.exposition.depth", register=False)
    registry.register(depth)
    hits.inc(3)
    depth.set(2.5)

    text = registry.prometheus_text()
    assert "# HELP test_exposition_hits cache hits" in text
    assert "# TYPE test_exposition_hits counter" in text
    assert "test_exposition_hits_total 3" in text  # counters gain _total
    assert "test_exposition_depth 2.5" in text
    # Every non-comment line is `name value`.
    sample = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]* [-+0-9.einfa]+$")
    for line in text.strip().splitlines():
        assert line.startswith("#") or sample.match(line), line


def _request(host, port, path, method="GET"):
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def test_worker_metrics_exposition_and_health_stay_fresh_mid_lease(
    tmp_path, monkeypatch
):
    """A chaos-slowed worker streams a lease for seconds; ``/health`` and
    ``/metrics`` (answered from fresh threads) must respond mid-lease and
    show the chunk advancing."""
    arm_worker_chaos(monkeypatch, tmp_path, "slow")
    items = [WorkItem.make("smoke", "random", t, 0) for t in range(4)]
    with spawn_local_workers(1) as pool:
        host, port = pool.addresses[0]
        client = WorkerClient(host, port)
        stream = client.open_lease("t-obs", [i.to_json_dict() for i in items])
        saw_mid_lease, done = False, False
        try:
            for _ in range(400):
                for data in stream.poll(0.1):
                    done = done or bool(data.get("done"))
                health = client.health()
                lease = (health or {}).get("current_lease")
                if not done and lease and lease["lease_id"] == "t-obs":
                    assert lease["trials_total"] == len(items)
                    assert 0 <= lease["trials_done"] <= len(items)
                    status, text = _request(host, port, "/metrics")
                    assert status == 200 and "# TYPE" in text
                    saw_mid_lease = True
                if done or stream.eof:
                    break
        finally:
            stream.close()
        assert done and saw_mid_lease

        health = client.health()
        assert health["trials_done"] == len(items)
        assert health["current_lease"] is None
        assert health["uptime_s"] > 0
        status, text = _request(host, port, "/metrics")
        assert status == 200
        match = re.search(r"^repro_fluid_runs_total (\d+)", text, re.M)
        assert match and int(match.group(1)) > 0  # counters advanced in-worker
        assert _request(host, port, "/shutdown", "POST")[0] == 200


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
