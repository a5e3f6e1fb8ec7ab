"""The remote sweep fabric: worker wire protocol, lease-based scheduling,
fault tolerance (crash / hang / straggler chaos), cost-aware chunking, and
the crash-safe shared result store under multi-writer races."""

import json
import multiprocessing
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    ResultStore,
    WorkItem,
    backend_names,
    create_backend,
)
from repro.experiments.backends import (
    COST_PRIORS,
    RemoteBackend,
    _weighted_chunks,
    item_weight,
)
from repro.experiments.worker import (
    DEFAULT_WORKER_PORT,
    WorkerClient,
    parse_endpoint,
    spawn_local_workers,
    ssh_launch_command,
)


def _items(n=6, placer="random"):
    return [WorkItem.make("smoke", placer, trial, 0) for trial in range(n)]


def _canonical(records):
    return json.dumps(
        [
            {
                k: v
                for k, v in vars(rec).items()
                if k not in ("trial_wall_s", "placement_wall_s")
            }
            for rec in records
        ],
        sort_keys=True,
    )


# ------------------------------------------------------------- endpoints
def test_endpoint_spellings():
    ep = parse_endpoint("http://10.0.0.7:9000")
    assert (ep.scheme, ep.host, ep.port, ep.user) == ("http", "10.0.0.7", 9000, None)
    assert parse_endpoint("10.0.0.7:9000") == ep  # bare host:port reads as http
    ssh = parse_endpoint("ssh://ops@big-box")
    assert (ssh.scheme, ssh.host, ssh.user) == ("ssh", "big-box", "ops")
    assert ssh.port == DEFAULT_WORKER_PORT


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "ftp://host:1",
        "http://",
        "http://host:1/path",
        "http://user@host:1",  # user@ only makes sense with ssh
        "http://host:notaport",
    ],
)
def test_endpoint_rejects_malformed(bad):
    with pytest.raises(ExperimentError):
        parse_endpoint(bad)


def test_ssh_launch_command_is_a_thin_serve_invocation():
    cmd = ssh_launch_command(
        parse_endpoint("ssh://ops@big-box:7500"), cache_dir="/mnt/shared"
    )
    assert cmd[:2] == ["ssh", "ops@big-box"]
    assert "--serve" in cmd and "7500" in cmd
    assert cmd[cmd.index("--cache-dir") + 1] == "/mnt/shared"
    with pytest.raises(ExperimentError):
        ssh_launch_command(parse_endpoint("http://host:1"))


# ------------------------------------------------------ cost-aware chunks
def test_weighted_chunks_balance_heavy_items():
    # One 100x item plus ten 1x items over two chunks: the heavy item must
    # sit alone(ish), not share a chunk with half the light ones.
    weights = [100.0] + [1.0] * 10
    chunks = _weighted_chunks(weights, 2)
    assert sorted(len(c) for c in chunks) == [1, 10]
    assert [0] in chunks  # the heavy item rides alone
    # Every position appears exactly once, in ascending order per chunk.
    assert sorted(i for c in chunks for i in c) == list(range(11))
    assert all(c == sorted(c) for c in chunks)


def test_weighted_chunks_drop_empty_chunks():
    assert _weighted_chunks([1.0, 1.0], 5) == [[0], [1]]


def test_item_weight_prefers_observed_costs_over_priors():
    ilp = WorkItem.make("smoke", "ilp", 0, 0)
    rnd = WorkItem.make("smoke", "random", 0, 0)
    assert item_weight(ilp) == COST_PRIORS["ilp"]
    assert item_weight(rnd) == COST_PRIORS["random"]
    # On a cold store a mixed grid still shares out: the exact placer is a
    # few times a baseline cell, not a chunk of its own.
    weights = [item_weight(ilp)] + [item_weight(rnd)] * 10
    assert min(len(chunk) for chunk in _weighted_chunks(weights, 2)) > 1
    observed = {("smoke", "ilp"): 7.5}
    assert item_weight(ilp, observed) == 7.5
    assert item_weight(rnd, observed) == COST_PRIORS["random"]


# ----------------------------------------------------- worker round trips
def test_worker_health_and_lease_roundtrip():
    items = _items(2)
    with spawn_local_workers(1) as pool:
        client = WorkerClient(*pool.addresses[0])
        health = client.health()
        assert health["status"] == "ok" and not health["busy"]

        stream = client.open_lease("t-0", [i.to_json_dict() for i in items])
        lines, done = [], False
        for _ in range(400):
            for data in stream.poll(0.25):
                lines.append(data)
                done = done or bool(data.get("done"))
            if done or stream.eof:
                break
        stream.close()
        assert done, f"no done trailer in {lines}"
        indices = [d["index"] for d in lines if "record" in d]
        assert indices == [0, 1]
        assert client.health()["trials_done"] == 2
        assert client.shutdown()


def test_worker_refuses_wrong_schema_lease():
    import http.client

    with spawn_local_workers(1) as pool:
        host, port = pool.addresses[0]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request(
                "POST", "/lease",
                body=json.dumps({"schema": "bogus/v0", "items": []}).encode(),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"schema" in resp.read()
        finally:
            conn.close()


# ------------------------------------------------------- the remote backend
def test_remote_backend_registered():
    assert "remote" in backend_names()


def test_remote_backend_matches_inline_bit_for_bit():
    items = [
        WorkItem.make("smoke", placer, trial, 0)
        for placer in ("greedy", "random")
        for trial in range(2)
    ]
    expected = create_backend("inline").map_trials(items)
    backend = create_backend("remote", workers=2)
    records = backend.map_trials(items)
    assert _canonical(records) == _canonical(expected)
    stats = backend.last_fabric_stats
    assert stats["workers"] == 2
    assert stats["retry_waves"] == 0 and stats["salvaged_records"] == 0
    assert 0.0 <= stats["max_worker_idle_fraction"] <= 1.0


def test_remote_backend_rejects_bad_options():
    with pytest.raises(ExperimentError):
        create_backend("remote", options={"bogus": 1})
    with pytest.raises(ExperimentError):
        RemoteBackend(max_retries=-1)
    with pytest.raises(ExperimentError):
        RemoteBackend(heartbeat_timeout_s=0.0)
    with pytest.raises(ExperimentError):
        RemoteBackend(straggler_factor=1.0)


# ------------------------------------------------------------------- chaos
def test_chaos_crash_and_hang_workers_salvaged_and_bit_identical(
    tmp_path, monkeypatch
):
    """The acceptance chaos drill: two workers, one killed mid-chunk, one
    hung past the heartbeat deadline.  The sweep must still equal the
    inline run bit-for-bit, and the streamed prefixes must be salvaged
    (not re-executed)."""
    items = [
        WorkItem.make("smoke", placer, trial, 0)
        for placer in ("greedy", "random")
        for trial in range(4)
    ]
    expected = create_backend("inline").map_trials(items)

    monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKER_CHAOS_MODE", "crash,hang")
    backend = create_backend(
        "remote",
        workers=2,
        options={"heartbeat_timeout_s": 2.0, "backoff_base_s": 0.05},
    )
    records = backend.map_trials(items)

    assert (tmp_path / "chaos-fired").exists(), "crash chaos never armed"
    assert (tmp_path / "chaos-fired-1").exists(), "hang chaos never armed"
    assert _canonical(records) == _canonical(expected)

    stats = backend.last_fabric_stats
    assert stats["salvaged_records"] >= 1
    assert stats["retried_trials"] < len(items), "salvage was thrown away"
    assert stats["salvaged_records"] + stats["retried_trials"] >= len(items)
    assert stats["retry_waves"] >= 1
    assert any("died mid-chunk" in f or "hung" in f for f in stats["failures"])


def test_chaos_retry_waves_are_deterministic(tmp_path, monkeypatch):
    """Same seed, same crash: the salvage-then-retry sweep is bit-identical
    across runs, down to the backoff schedule."""
    items = _items(6)
    monkeypatch.setenv("REPRO_WORKER_CHAOS_MODE", "crash")

    outputs = []
    for run in ("a", "b"):
        chaos_dir = tmp_path / run
        chaos_dir.mkdir()
        monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(chaos_dir))
        backend = create_backend(
            "remote",
            workers=2,
            options={"backoff_seed": 7, "backoff_base_s": 0.05},
        )
        records = backend.map_trials(items)
        assert (chaos_dir / "chaos-fired").exists()
        outputs.append(
            (_canonical(records), backend.last_fabric_stats["backoff_delays_s"])
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1] != []


def test_chaos_straggler_is_redispatched_to_idle_worker(tmp_path, monkeypatch):
    """A worker that slows to a crawl (but keeps streaming) gets its
    remaining trials re-dispatched to an idle worker; whichever copy of a
    trial lands first wins and duplicates are discarded."""
    items = _items(10)
    expected = create_backend("inline").map_trials(items)

    monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKER_CHAOS_MODE", "slow")
    backend = create_backend(
        "remote",
        workers=2,
        options={"heartbeat_timeout_s": 30.0, "straggler_factor": 1.5},
    )
    records = backend.map_trials(items)
    assert (tmp_path / "chaos-fired").exists(), "slow chaos never armed"
    assert _canonical(records) == _canonical(expected)
    stats = backend.last_fabric_stats
    assert stats["stragglers_redispatched"] >= 1
    assert stats["retry_waves"] == 0, "straggling is not a retry wave"


def test_chaos_crash_with_no_retry_budget_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKER_CHAOS_MODE", "crash")
    backend = create_backend(
        "remote", workers=1, options={"max_retries": 0}
    )
    with pytest.raises(ExperimentError, match="gave up"):
        backend.map_trials(_items(2))


# ----------------------------------------------------- config / runner wiring
def test_config_threads_remote_options():
    config = ExperimentConfig(
        scenarios=("smoke",),
        placers=("random",),
        trials=1,
        backend="remote",
        workers=2,
        endpoints=("http://a:1", "b:2"),
        heartbeat_timeout_s=12.0,
        max_retries=3,
        base_seed=11,
        cache_dir="/tmp/shared-store",
    )
    options = config.backend_options
    assert options["endpoints"] == ["http://a:1", "b:2"]
    assert options["heartbeat_timeout_s"] == 12.0
    assert options["max_retries"] == 3
    assert options["backoff_seed"] == 11
    assert options["store_root"] == "/tmp/shared-store"


def test_config_rejects_remote_knobs_on_other_backends():
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",), placers=("random",), trials=1,
            backend="inline", endpoints=("http://a:1",),
        )
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",), placers=("random",), trials=1,
            backend="process", heartbeat_timeout_s=5.0,
        )
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",), placers=("random",), trials=1,
            backend="remote", endpoints=("ftp://nope:1",),
        )
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",), placers=("random",), trials=1,
            backend="remote", heartbeat_timeout_s=-1.0,
        )


def test_runner_remote_workers_populate_the_shared_store(tmp_path):
    """Workers write the shared store themselves: a second (inline) run
    over the same grid executes nothing, and the store's observed cost
    table has entries for the swept cells."""
    config = ExperimentConfig(
        scenarios=("smoke",),
        placers=("greedy", "random"),
        trials=2,
        backend="remote",
        workers=2,
        cache_dir=str(tmp_path),
    )
    runner = ExperimentRunner(config)
    first = runner.run()
    assert runner.last_stats.executed == 4

    rerun_runner = ExperimentRunner(
        ExperimentConfig(
            scenarios=("smoke",),
            placers=("greedy", "random"),
            trials=2,
            backend="inline",
            workers=1,
            cache_dir=str(tmp_path),
        )
    )
    second = rerun_runner.run()
    assert rerun_runner.last_stats.executed == 0
    assert rerun_runner.last_stats.cache_hits == 4
    assert json.dumps(first.canonical_json_dict(), sort_keys=True) == (
        json.dumps(second.canonical_json_dict(), sort_keys=True)
    )

    table = ResultStore(tmp_path).cost_table()
    assert ("smoke", "greedy") in table and ("smoke", "random") in table
    assert all(cost > 0 for cost in table.values())


# ------------------------------------------------- multi-writer store races
def _race_put(root, version, barrier, wall_s):
    store = ResultStore(root, version=version)
    key = store.key_for("smoke", "random", 0, 123)
    record = store_record(wall_s)
    barrier.wait(timeout=30)
    for _ in range(25):
        store.put(key, record)
    store.flush_costs()


def store_record(wall_s):
    from repro.experiments.results import TrialRecord

    return TrialRecord(
        scenario="smoke", placer="random", trial=0, seed=123,
        total_running_time_s=42.0, trial_wall_s=wall_s,
    )


def test_result_store_survives_racing_writers(tmp_path):
    """Four processes hammer the same cell concurrently; the surviving
    cell must be one writer's intact record, with no torn JSON and no
    leftover temp files — the unique-temp-name + atomic-rename contract."""
    barrier = multiprocessing.Barrier(4)
    procs = [
        multiprocessing.Process(
            target=_race_put, args=(str(tmp_path), "race-v", barrier, 0.5 + i)
        )
        for i in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    store = ResultStore(tmp_path, version="race-v")
    assert len(store) == 1
    key = store.key_for("smoke", "random", 0, 123)
    record = store.get(key)
    assert record is not None and record.total_running_time_s == 42.0
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []
    # Every writer's cost sidecar survived the race and merges cleanly.
    table = store.cost_table()
    assert table[("smoke", "random")] > 0


def test_store_cost_sidecars_do_not_count_as_cells(tmp_path):
    store = ResultStore(tmp_path, version="v")
    key = store.key_for("smoke", "random", 0, 1)
    store.put(key, store_record(1.0))
    assert store.flush_costs() is not None
    assert len(store) == 1
    pruned = store.prune_stale()
    assert len(store) == 1  # the live version's cells survive
    assert pruned == 0 or isinstance(pruned, int)
