"""The remote sweep fabric: worker wire protocol, lease-based scheduling,
fault tolerance (crash / hang / straggler chaos), cost-aware chunking, and
the crash-safe shared result store under multi-writer races."""

import contextlib
import io
import json
import multiprocessing
import socket
import threading
import time
import types

import pytest

import repro.experiments.backends as backends_mod
import repro.experiments.worker as worker_mod
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
    WORKER_SCHEMA,
    LeaseStream,
    WorkerClient,
    WorkerServer,
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


@contextlib.contextmanager
def _worker_on_a_thread():
    """A :class:`WorkerServer` in this process; yields its ``(host, port)``."""
    server = WorkerServer(("127.0.0.1", 0), worker_mod._WorkerState())
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


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


@pytest.mark.parametrize(
    "body, headers, complaint",
    [
        (json.dumps({"schema": "bogus/v0", "items": []}).encode(), {}, b"schema"),
        (json.dumps({"schema": WORKER_SCHEMA, "items": 5}).encode(), {}, b"bad lease"),
        (b"[]", {}, b"JSON object"),  # valid JSON, not an object
        (b"", {"Content-Length": "-1"}, b"Content-Length"),  # read(-1) would park
        (b"", {"Content-Length": "abc"}, b"bad lease"),
        # 1 000 bytes announced, 10 sent, connection held open: the read of
        # the body must give up by itself, well inside the client's 5 s.
        (b'{"schema":', {"Content-Length": "1000"}, b"990 byte(s)"),
    ],
    ids=["wrong-schema", "items-not-a-list", "body-not-an-object",
         "negative-length", "garbled-length", "length-beyond-the-body"],
)
def test_worker_refuses_wrong_schema_lease(body, headers, complaint, monkeypatch):
    """A hostile ``POST /lease`` gets a 400 naming the problem — never a
    dropped connection or a parked handler thread — and the worker serves on."""
    import http.client

    monkeypatch.setattr(worker_mod, "LEASE_BODY_DEADLINE_S", 0.5)
    with _worker_on_a_thread() as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.putrequest("POST", "/lease")
            for name, value in {"Content-Length": str(len(body)), **headers}.items():
                conn.putheader(name, value)
            conn.endheaders(body)
            resp = conn.getresponse()
            assert resp.status == 400
            reply = resp.read()
            assert b"bad lease request" in reply and complaint in reply
        finally:
            conn.close()
        assert WorkerClient(host, port).health()["status"] == "ok"


def test_lease_stream_salvages_around_garbled_lines_and_a_cut_tail():
    """The salvage rule, on the stream itself: a garbled line is skipped, a
    tail cut off mid-write is dropped, every finished record stands."""
    record = vars(create_backend("inline").map_trials(_items(1))[0])
    header = json.dumps({"schema": WORKER_SCHEMA, "lease_id": "t"}).encode() + b"\n"
    body = (
        json.dumps({"index": 0, "record": record}).encode() + b"\n"
        + b'{"index": 1, "rec\x00\xff garbled\n'
        + json.dumps({"index": 2, "record": record}).encode() + b"\n"
        + b'{"index": 3, "record": {"scen'  # the worker died mid-write
    )
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(body)
        theirs.shutdown(socket.SHUT_WR)
        closable = types.SimpleNamespace(close=lambda: None)
        # http.client may over-read the body's start into its header buffer.
        resp = types.SimpleNamespace(fp=io.BytesIO(header), close=lambda: None)
        stream = LeaseStream(closable, resp, ours)
        lines = []
        for _ in range(50):
            lines.extend(stream.poll(0.1))
            if stream.eof:
                break
        stream.close()
    assert stream.eof
    assert [d["index"] for d in lines if "record" in d] == [0, 2]
    assert lines[0]["schema"] == WORKER_SCHEMA


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
    with pytest.raises(ExperimentError, match="bogus"):
        create_backend("remote", bogus=1)
    with pytest.raises(ExperimentError, match="max_retries"):
        create_backend("inline", max_retries=1)  # inline takes no options
    with pytest.raises(ExperimentError, match="unknown backend"):
        create_backend("process")
    with pytest.raises(ExperimentError):
        RemoteBackend(max_retries=-1)
    with pytest.raises(ExperimentError):
        RemoteBackend(heartbeat_timeout_s=0.0)


def test_pool_is_sized_to_the_batch_not_the_hint():
    """``--jobs 8`` with one pending cell cold-starts one interpreter."""
    backend = RemoteBackend(workers=8)
    assert len(backend.map_trials(_items(1))) == 1
    assert backend.last_fabric_stats["workers"] == 1


def test_fail_fast_trial_error_ends_the_sweep_with_its_own_text(monkeypatch):
    """A raising ``fail_fast`` trial is deterministic: the worker reports it
    on the lease, and the scheduler stops at once with the exception text —
    no "worker died", no retry wave re-raising the same bug."""

    def boom(item):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(worker_mod, "execute_work_item", boom)
    items = [
        WorkItem.make("smoke", "random", trial, 0, fail_fast=True)
        for trial in range(3)
    ]
    with _worker_on_a_thread() as (host, port):
        backend = RemoteBackend(endpoints=[f"http://{host}:{port}"])
        started = time.monotonic()
        with pytest.raises(ExperimentError) as excinfo:
            backend.map_trials(items)
        elapsed = time.monotonic() - started
    message = str(excinfo.value)
    assert "RuntimeError: synthetic bug" in message
    assert str(items[0].trial_key) in message
    assert backend.last_fabric_stats["retry_waves"] == 0
    assert elapsed < backends_mod.BACKOFF_BASE_S / 2


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
    monkeypatch.setattr(backends_mod, "BACKOFF_BASE_S", 0.05)
    backend = create_backend("remote", workers=2, heartbeat_timeout_s=2.0)
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
    monkeypatch.setattr(backends_mod, "BACKOFF_BASE_S", 0.05)

    outputs = []
    for run in ("a", "b"):
        chaos_dir = tmp_path / run
        chaos_dir.mkdir()
        monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(chaos_dir))
        backend = create_backend("remote", workers=2, backoff_seed=7)
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
    monkeypatch.setattr(backends_mod, "STRAGGLER_FACTOR", 1.5)
    backend = create_backend("remote", workers=2)
    records = backend.map_trials(items)
    assert (tmp_path / "chaos-fired").exists(), "slow chaos never armed"
    assert _canonical(records) == _canonical(expected)
    stats = backend.last_fabric_stats
    assert stats["stragglers_redispatched"] >= 1
    assert stats["retry_waves"] == 0, "straggling is not a retry wave"


def test_chaos_crash_with_no_retry_budget_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKER_CHAOS_MODE", "crash")
    backend = create_backend("remote", workers=1, max_retries=0)
    with pytest.raises(ExperimentError, match="gave up"):
        backend.map_trials(_items(2))


@pytest.mark.parametrize("mode", ["crash", "hang"])
def test_chaos_own_pool_replaces_its_only_worker(tmp_path, monkeypatch, mode):
    """A pool the backend spawned is a pool it repairs: with one worker and
    one retry wave, losing that worker — dead, or hung past the heartbeat
    deadline — costs a respawn, not the sweep."""
    items = _items(4)
    expected = create_backend("inline").map_trials(items)

    monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKER_CHAOS_MODE", mode)
    monkeypatch.setattr(backends_mod, "BACKOFF_BASE_S", 0.05)
    backend = RemoteBackend(workers=1, max_retries=1, heartbeat_timeout_s=2.0)
    spawned = []
    spawn = worker_mod.spawn_local_workers

    def counting_spawn(n, **kwargs):
        pool = spawn(n, **kwargs)
        spawned.extend(pool.procs)
        return pool

    monkeypatch.setattr(worker_mod, "spawn_local_workers", counting_spawn)
    records = backend.map_trials(items)

    assert (tmp_path / "chaos-fired").exists(), f"{mode} chaos never armed"
    assert _canonical(records) == _canonical(expected)
    stats = backend.last_fabric_stats
    assert stats["retry_waves"] == 1 and stats["salvaged_records"] == 1
    # The lost worker was replaced (and, if merely hung, killed): two
    # processes were spawned over the sweep and none outlives it.
    assert len(spawned) == 2
    assert all(proc.poll() is not None for proc in spawned)


def test_failed_respawn_leaves_no_live_workers():
    """A hung own worker is killed for its replacement; if the respawn then
    fails, it must not be offered as the tainted-but-alive fallback."""

    class Answering:
        def health(self, timeout_s=2.0):
            return {"status": "ok"}

    class BrokenPool:
        def respawn(self, indices):
            raise ExperimentError("worker exited with status 1 before listening")

    state = [{"alive": True, "tainted": True, "busy_s": 0.0}]
    backend = RemoteBackend(workers=1)
    backend._probe_and_repair([Answering()], state, BrokenPool())
    assert backend._available_workers(state) == []
    # Given endpoints are not ours to kill: same state, no pool, still usable.
    state = [{"alive": True, "tainted": True, "busy_s": 0.0}]
    backend._probe_and_repair([Answering()], state, None)
    assert backend._available_workers(state) == [0]


# ----------------------------------------------------- config / runner wiring
def test_config_threads_remote_options(tmp_path):
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
        cache_dir=str(tmp_path),
    )
    backend = ExperimentRunner(config).make_backend()
    assert isinstance(backend, RemoteBackend)
    assert backend.workers == 2
    assert backend.endpoints == ("http://a:1", "b:2")
    assert backend.heartbeat_timeout_s == 12.0
    assert backend.max_retries == 3
    assert backend.backoff_seed == 11
    assert backend.store_root == str(tmp_path)
    # Unset, the heartbeat deadline is the backend's default, not None.
    default = ExperimentRunner(
        ExperimentConfig(scenarios=("smoke",), workers=2)
    ).make_backend()
    assert default.heartbeat_timeout_s == backends_mod.DEFAULT_HEARTBEAT_TIMEOUT_S
    assert default.endpoints == () and default.store_root is None


def test_config_rejects_remote_knobs_on_other_backends():
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",), placers=("random",), trials=1,
            backend="inline", endpoints=("http://a:1",),
        )
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",), placers=("random",), trials=1,
            backend="inline", heartbeat_timeout_s=5.0,
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
