"""Hostile lease traffic: a seeded mutator against both ends of the wire.

``POST /lease`` bodies come from the network, and so do the JSON Lines a
worker streams back.  Every case below mutates a valid message — cutting
it short, flipping a byte, dropping a key, or swapping one JSON value for a
hostile one (:mod:`hostile`) — under a deadline.

* A worker answers a mutated lease body with a 400 naming the problem or
  with a record stream, and ``/health`` still answers after each case.
* The scheduler takes a mutated record line only if it parses, its record
  validates and it is the record of the leased cell; any other line is
  garbled, is never stored, and the trial is retried.
"""

import contextlib
import http.client
import json
import math
import threading

import numpy as np
import pytest

import repro.experiments.backends as backends_mod
import repro.experiments.worker as worker_mod
from hostile import DEEP, HOSTILE, deadline
from repro.errors import ExperimentError
from repro.experiments import create_backend
from repro.experiments.backends import RemoteBackend, _streamed_record
from repro.experiments.trials import WorkItem
from repro.experiments.worker import WORKER_SCHEMA, WorkerClient, WorkerServer

ITEMS = [
    WorkItem.make("smoke", placer, trial, 0)
    for placer in ("greedy", "random")
    for trial in range(2)
]


@contextlib.contextmanager
def _worker(handler=None):
    """A worker on a thread of this process; yields its ``(host, port)``."""
    server = WorkerServer(("127.0.0.1", 0), worker_mod._WorkerState())
    if handler is not None:
        server.RequestHandlerClass = handler
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


def _post(host, port, body):
    """POST ``body`` to ``/lease``: ``(status, response bytes)``."""
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("POST", "/lease", body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _paths(node, prefix=()):
    """Every position in a JSON document, as a key path."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _edited(doc, path, value=None, drop=False):
    copy = json.loads(json.dumps(doc))
    if not path:
        return value
    node = copy
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return copy


def _mutants(doc, rng, n):
    """``n`` seeded mutants of one JSON message, as bytes."""
    paths = list(_paths(doc))
    data = json.dumps(doc).encode()
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            yield data[: int(rng.integers(0, len(data)))]
        elif roll < 0.3:
            flipped = bytearray(data)
            flipped[int(rng.integers(0, len(data)))] ^= int(rng.integers(1, 256))
            yield bytes(flipped)
        else:
            path = paths[int(rng.integers(0, len(paths)))]
            if path and roll < 0.4:
                yield json.dumps(_edited(doc, path, drop=True)).encode()
            else:
                value = HOSTILE[int(rng.integers(0, len(HOSTILE)))]
                yield json.dumps(_edited(doc, path, value)).encode()
    first = next(iter(doc))
    yield json.dumps({**doc, first: "DEEP"}).replace('"DEEP"', DEEP).encode()


# ------------------------------------------------------------ lease bodies
@pytest.mark.parametrize(
    "field, value",
    [
        ("trial", 3.7), ("trial", True), ("trial", -1), ("base_seed", -5),
        ("base_seed", 2.0), ("scenario", ["x"]), ("placer", None),
        ("params", {"n_vms": [4]}), ("params", [["n_vms", 4]]),
        ("placer_params", {"time_limit_s": {"s": 1}}), ("fail_fast", "yes"),
    ],
)
def test_a_malformed_item_is_refused_by_name(field, value):
    wire = {**ITEMS[0].to_json_dict(), field: value}
    with pytest.raises(ExperimentError, match=repr(field)):
        WorkItem.from_json_dict(wire)
    body = json.dumps({"schema": WORKER_SCHEMA, "lease_id": "x", "items": [wire]})
    with _worker() as (host, port):
        status, reply = _post(host, port, body.encode())
        assert status == 400 and field.encode() in reply, reply
        assert WorkerClient(host, port).health()["status"] == "ok"


def test_a_valid_item_round_trips_unchanged():
    item = WorkItem.make(
        "smoke", "ilp", 3, 7, {"n_vms": 6, "shuffle_gbytes": 0.25},
        {"time_limit_s": 60.0}, fail_fast=True,
    )
    wire = json.loads(json.dumps(item.to_json_dict()))
    assert WorkItem.from_json_dict(wire) == item
    assert wire == item.to_json_dict()


@pytest.mark.parametrize("seed", range(3))
def test_a_mutated_lease_body_is_refused_or_run(seed):
    doc = {
        "schema": WORKER_SCHEMA, "lease_id": "fuzz",
        "items": [item.to_json_dict() for item in ITEMS[:2]],
    }
    rng = np.random.default_rng(seed)
    outcomes = {"refused": 0, "ran": 0}
    with _worker() as (host, port):
        client = WorkerClient(host, port)
        for i, body in enumerate(_mutants(doc, rng, 60)):
            with deadline():
                status, reply = _post(host, port, body)
                assert client.health()["status"] == "ok", (i, body[:200])
            if status == 400:
                assert b"bad lease request" in reply, (i, body[:200], reply)
                outcomes["refused"] += 1
                continue
            assert status == 200, (i, body[:200], status)
            lines = [json.loads(line) for line in reply.splitlines()]
            assert lines[0]["schema"] == WORKER_SCHEMA
            assert lines[-1].get("done"), (i, body[:200], lines[-1])
            outcomes["ran"] += 1
    assert outcomes["refused"] and outcomes["ran"], outcomes


# ------------------------------------------------------------ record lines
def _worker_lines():
    """The record lines a real worker streams for :data:`ITEMS`."""
    body = json.dumps({
        "schema": WORKER_SCHEMA, "lease_id": "real",
        "items": [item.to_json_dict() for item in ITEMS],
    })
    with _worker() as (host, port):
        status, reply = _post(host, port, body.encode())
    assert status == 200
    lines = [json.loads(line) for line in reply.splitlines()]
    return [line for line in lines if "record" in line]


def _is_real(value):
    return type(value) in (int, float) and math.isfinite(value)


def _well_formed(record, item):
    """The test's own reading of a record that may land in a result: the
    leased cell's identity, and each field of the type its name says."""
    rec = vars(record)
    return (
        (rec["scenario"], rec["placer"], rec["trial"], rec["seed"])
        == (item.scenario, item.placer, item.trial, item.seed)
        and rec["status"] in ("ok", "error")
        and (rec["error"] is None or isinstance(rec["error"], str))
        and all(type(rec[k]) is int and rec[k] >= 0 for k in ("n_apps", "n_vms"))
        and all(_is_real(rec[k]) for k in (
            "makespan_s", "total_running_time_s", "measurement_overhead_s",
            "placement_wall_s", "trial_wall_s", "network_bytes", "colocated_bytes",
        ))
        and isinstance(rec["per_app_duration_s"], dict)
        and all(_is_real(v) for v in rec["per_app_duration_s"].values())
        and (rec["solver_stats"] is None or all(
            isinstance(v, dict) for v in rec["solver_stats"].values()
        ))
    )


def _accept(line, indices):
    """What the scheduler makes of one streamed line: the salvage rule of
    :class:`~repro.experiments.worker.LeaseStream`, then the record check."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if not isinstance(data, dict):
        return None
    return _streamed_record(data, indices, ITEMS)


@pytest.mark.parametrize("seed", range(3))
def test_a_mutated_record_line_never_lands_in_the_wrong_shape(seed):
    lines = _worker_lines()
    indices = list(range(len(ITEMS)))
    for line in lines:
        assert _accept(json.dumps(line), indices)[0] == line["index"]
    rng = np.random.default_rng(seed)
    outcomes = {"landed": 0, "refused": 0}
    for line in lines:
        item = ITEMS[line["index"]]
        for i, mutant in enumerate(_mutants(line, rng, 150)):
            with deadline():
                accepted = _accept(mutant, indices)
            if accepted is None:
                outcomes["refused"] += 1
                continue
            index, record = accepted
            assert index == line["index"], (i, mutant[:300])
            assert _well_formed(record, item), (i, mutant[:300])
            outcomes["landed"] += 1
    assert outcomes["landed"] and outcomes["refused"], outcomes


@pytest.mark.parametrize(
    "field, value",
    [("scenario", "all-to-all"), ("placer", "random"), ("trial", 1), ("seed", 7)],
)
def test_a_record_of_another_cell_is_garbled(field, value):
    line = _worker_lines()[0]
    line["record"][field] = value
    assert _accept(json.dumps(line), list(range(len(ITEMS)))) is None


class _Garbling(worker_mod._LeaseHandler):
    """A worker whose first lease garbles the record line of one trial."""

    mutate = None  # line dict -> bytes, set per case
    fired = None

    def _send_line(self, obj):
        if "record" in obj and obj["index"] == 0 and not self.fired.is_set():
            self.fired.set()
            self.wfile.write(self.mutate(obj) + b"\n")
            self.wfile.flush()
            return
        super()._send_line(obj)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: json.dumps(obj).encode()[:40],
        lambda obj: json.dumps({**obj, "record": {**obj["record"], "trial": 9}}).encode(),
        lambda obj: json.dumps({**obj, "record": {**obj["record"], "n_vms": -4}}).encode(),
        lambda obj: json.dumps({**obj, "record": {**obj["record"], "makespan_s": math.nan}}).encode(),
        lambda obj: json.dumps({**obj, "index": True}).encode(),
        lambda obj: DEEP.encode(),
    ],
    ids=["cut", "other-trial", "negative-count", "nan", "bool-index", "deep"],
)
def test_a_garbled_line_is_not_stored_and_its_trial_is_retried(mutate, monkeypatch):
    monkeypatch.setattr(backends_mod, "BACKOFF_BASE_S", 0.0)
    handler = type("Handler", (_Garbling,), {
        "mutate": staticmethod(mutate), "fired": threading.Event(),
    })
    expected = create_backend("inline").map_trials(ITEMS)
    with _worker(handler) as (host, port):
        backend = RemoteBackend(endpoints=[f"http://{host}:{port}"])
        records = backend.map_trials(ITEMS)
    assert handler.fired.is_set()
    for got, want in zip(records, expected):
        got, want = vars(got), vars(want)
        for timing in ("trial_wall_s", "placement_wall_s"):
            got.pop(timing), want.pop(timing)
        assert got == want
    stats = backend.last_fabric_stats
    assert stats["retry_waves"] == 1 and stats["retried_trials"] == 1
