"""The result store's packs: one flush per batch, writes that fail without
costing a sweep its result, and hostile packs that never poison a read.

A pack is ``<root>/<version[:16]>/packs/<writer>-<seq>.jsonl``, one line per
cell: ``<digest>\\t<payload>\\t<crc32>``.  Every case below asserts the read
contract: ``get`` returns the exact stored record or ``None`` — it never
raises, never hangs, never returns another cell's record — and counts each
bad line once under ``invalidated``."""

import contextlib
import errno
import gc
import json
import logging
import os
import signal
import sys
import threading
import zlib

import numpy as np
import pytest

import repro.experiments.cache as cache_mod
from repro import obs
from repro.experiments import ExperimentConfig, ExperimentRunner, ResultStore
from repro.experiments.results import TrialRecord

VERSION = "pack-v"


def _record(trial):
    return TrialRecord(
        scenario="smoke", placer="random", trial=trial, seed=100 + trial,
        total_running_time_s=10.0 + trial, per_app_duration_s={"app0": 1.5 * trial},
        trial_wall_s=0.25,
    )


def _store(root):
    return ResultStore(root, version=VERSION)


def _keys(store):
    return [store.key_for("smoke", "random", trial, 100 + trial) for trial in range(3)]


RECORDS = [_record(trial) for trial in range(3)]


@pytest.fixture
def pack(tmp_path):
    """A valid three-cell pack: ``(path, its bytes, its lines)``."""
    store = _store(tmp_path)
    path = store.put_many(zip(_keys(store), RECORDS))
    data = path.read_bytes()
    return path, data, data.splitlines(True)


def _line(digest, payload):
    """A pack line with a valid checksum, whatever it carries."""
    body = f"{digest}\t{json.dumps(payload, sort_keys=True)}".encode()
    return b"%s\t%08x\n" % (body, zlib.crc32(body))


def _fields(line):
    digest, text, _ = line.decode().split("\t")
    return digest, json.loads(text)


@contextlib.contextmanager
def _deadline(seconds=5.0):
    """Fail a case that takes longer than ``seconds`` instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"store read exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _read_all(root):
    """Read every cell twice from a fresh store, under a deadline.

    Returns which cells hit and the ``invalidated`` count, after asserting
    the read contract and that the second pass counts nothing new.
    """
    store = _store(root)
    keys = _keys(store)
    with _deadline():
        first = [store.get(key) for key in keys]
        invalidated = store.stats["invalidated"]
        second = [store.get(key) for key in keys]
    for got, expected in zip(first, RECORDS):
        assert got is None or got == expected
    assert second == first
    assert store.stats["invalidated"] == invalidated  # each bad line once
    return [got is not None for got in first], invalidated


# ------------------------------------------------------------ hostile packs
def test_a_pack_truncated_at_every_byte_offset(pack, tmp_path):
    path, data, lines = pack
    ends = np.cumsum([len(line) for line in lines])  # offsets after each "\n"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        hits, invalidated = _read_all(tmp_path)
        # A line stands when it is whole, its newline aside.
        assert hits == [cut >= end - 1 for end in ends], cut
        torn = cut not in (0, *ends) and cut + 1 not in ends
        assert invalidated == int(torn), cut


def test_single_flipped_bytes_lose_only_their_line(pack, tmp_path):
    path, data, lines = pack
    starts = np.cumsum([0] + [len(line) for line in lines])
    rng = np.random.default_rng(25)
    for offset, mask in zip(
        rng.integers(0, len(data), 300), rng.integers(1, 256, 300)
    ):
        flipped = bytearray(data)
        flipped[offset] ^= int(mask)
        path.write_bytes(bytes(flipped))
        hits, invalidated = _read_all(tmp_path)
        line = int(np.searchsorted(starts, offset, side="right")) - 1
        # Flipping a newline also merges the next line into this one.
        lost = {line, line + 1} if data[offset] == ord("\n") else {line}
        assert hits == [i not in lost for i in range(3)], (offset, mask)
        assert 1 <= invalidated <= 2, (offset, mask)


def test_a_duplicated_line_is_one_cell(pack, tmp_path):
    path, data, lines = pack
    path.write_bytes(data + lines[1])
    assert _read_all(tmp_path) == ([True, True, True], 0)
    assert len(_store(tmp_path)) == 3


def test_a_line_under_another_cells_digest_is_never_served(pack, tmp_path):
    path, data, lines = pack
    digests = [_fields(line)[0] for line in lines]
    forged = _line(digests[1], _fields(lines[0])[1])  # cell 0 filed as cell 1
    # Before the real copy, it must not hide it...
    path.write_bytes(forged + data)
    assert _read_all(tmp_path) == ([True, True, True], 1)
    # ...and as the only copy, it is a miss, not cell 0's record.
    path.write_bytes(lines[0] + forged + lines[2])
    assert _read_all(tmp_path) == ([True, False, True], 1)


def test_a_foreign_schema_is_a_miss(pack, tmp_path):
    path, data, lines = pack
    digest, payload = _fields(lines[1])
    payload["schema"] = "someone-else/cache/v9"
    path.write_bytes(lines[0] + _line(digest, payload) + lines[2])
    assert _read_all(tmp_path) == ([True, False, True], 1)


def test_non_utf8_bytes_are_a_bad_line(pack, tmp_path):
    path, data, lines = pack
    raw = lines[1][:80] + b"\xff\xfe" + lines[1][80:]
    body = raw.rstrip(b"\n").rpartition(b"\t")[0]
    resealed = b"%s\t%08x\n" % (body, zlib.crc32(body))  # checksum agrees
    for bad in (raw, resealed):
        path.write_bytes(lines[0] + bad + lines[2])
        assert _read_all(tmp_path) == ([True, False, True], 1)


def test_an_empty_pack_and_a_stray_tmp_hold_nothing(pack, tmp_path):
    path, data, lines = pack
    stray = path.with_name("dead-1.jsonl.tmp")
    stray.write_bytes(data)  # a writer still (or forever) mid-put
    empty = path.with_name("empty-1.jsonl")
    empty.write_bytes(b"")
    assert _read_all(tmp_path) == ([True, True, True], 0)
    path.unlink()
    assert _read_all(tmp_path) == ([False, False, False], 0)
    assert stray.exists()  # another writer's temp file is never touched
    assert len(_store(tmp_path)) == 0


@pytest.mark.parametrize("good_pack", ["0-1.jsonl", "z-1.jsonl"])  # read first, last
def test_a_good_copy_in_another_pack_still_hits(pack, tmp_path, good_pack):
    path, data, lines = pack
    digest, payload = _fields(lines[1])
    payload["record"] = "not a record"  # intact line, bad cell
    path.write_bytes(lines[0] + _line(digest, payload) + lines[1][:-40] + b"\n" + lines[2])
    path.with_name(good_pack).write_bytes(lines[1])
    # The torn line counts on load; the bad cell only when read before the
    # good copy — it never shadows it.
    read_first = good_pack < path.name
    assert _read_all(tmp_path) == ([True, True, True], 1 if read_first else 2)


def test_a_re_put_heals_a_bad_line_for_a_fresh_store(pack, tmp_path):
    path, data, lines = pack
    path.write_bytes(lines[0] + b"garbage\n" + lines[2])
    store = _store(tmp_path)
    assert store.get(_keys(store)[1]) is None
    store.put(_keys(store)[1], RECORDS[1])
    assert _read_all(tmp_path) == ([True, True, True], 1)


def test_a_new_pack_is_found_on_the_next_miss(tmp_path):
    reader, writer = _store(tmp_path), _store(tmp_path)
    key = _keys(reader)[0]
    assert reader.get(key) is None
    writer.put(key, RECORDS[0])
    assert reader.get(key) == RECORDS[0]


def test_threads_sharing_a_store_never_share_a_pack(tmp_path):
    """A worker's lease threads share one store: every ``put`` must land in
    its own pack, whatever the interleaving."""
    store = _store(tmp_path)
    n_threads, n_puts = 8, 25
    barrier = threading.Barrier(n_threads)

    def writer(t):
        barrier.wait(timeout=10)
        for i in range(n_puts):
            trial = t * n_puts + i
            store.put(store.key_for("smoke", "random", trial, trial), _record(trial))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    total = n_threads * n_puts
    assert len(os.listdir(tmp_path / VERSION / "packs")) == total
    fresh = _store(tmp_path)
    assert len(fresh) == total
    for trial in range(total):
        assert fresh.get(fresh.key_for("smoke", "random", trial, trial)) == _record(trial)
    assert fresh.stats["invalidated"] == 0


class _FailingWrites:
    """A file whose ``write`` runs out of space halfway through."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def _no_space(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def _write_errors():
    gc.collect()  # a dying store's counter must not skew a before/after delta
    return obs.metrics.snapshot().get("repro.store.write_errors", 0)


@pytest.mark.parametrize("stage", ["write", "fsync", "rename", "interrupt"])
def test_an_interrupted_put_leaves_no_pack_and_no_tmp(tmp_path, monkeypatch, stage):
    if stage == "write":
        monkeypatch.setattr(
            cache_mod, "open",
            lambda *args: _FailingWrites(open(*args)), raising=False,
        )
    elif stage == "fsync":
        monkeypatch.setattr(os, "fsync", _no_space)
    elif stage == "rename":
        monkeypatch.setattr(os, "replace", _no_space)
    else:

        def interrupt(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "fsync", interrupt)
    store = _store(tmp_path)
    before = _write_errors()
    with pytest.raises(KeyboardInterrupt if stage == "interrupt" else OSError):
        store.put_many(zip(_keys(store), RECORDS))
    monkeypatch.undo()
    assert os.listdir(tmp_path / VERSION / "packs") == []
    assert store.stats["stored"] == 0
    assert _write_errors() - before == (0 if stage == "interrupt" else 1)
    assert _read_all(tmp_path) == ([False, False, False], 0)


# ---------------------------------------------------------- sweeps and flushes
def _sweep(root=None):
    return ExperimentConfig(
        scenarios=("smoke",), placers=("greedy", "random"), trials=2,
        baseline="random", workers=1, cache_dir=None if root is None else str(root),
    )


def _canonical(result):
    return json.dumps(result.canonical_json_dict(), sort_keys=True)


def test_an_inline_sweep_flushes_once_into_one_pack(tmp_path, monkeypatch):
    fsync = os.fsync
    calls = []

    def counting_fsync(fd):
        calls.append(fd)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    runner = ExperimentRunner(_sweep(tmp_path))
    runner.run()
    assert runner.last_stats.executed == 4
    assert len(calls) == 1
    packs = list(tmp_path.glob("*/packs/*"))
    assert [path.suffix for path in packs] == [".jsonl"]
    assert len(packs[0].read_bytes().splitlines()) == 4
    assert len(runner.store) == 4


def test_a_store_out_of_space_costs_the_sweep_nothing(tmp_path, monkeypatch, caplog):
    reference = _canonical(ExperimentRunner(_sweep()).run())
    # A CLI run earlier in the session may have given "repro" its own
    # stderr handler and stopped propagation; route records to caplog.
    monkeypatch.setattr(logging.getLogger("repro"), "handlers", [])
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    monkeypatch.setattr(os, "fsync", _no_space)
    before = _write_errors()
    runner = ExperimentRunner(_sweep(tmp_path))
    with caplog.at_level(logging.WARNING, logger="repro.experiments.cache"):
        result = runner.run()
    assert _canonical(result) == reference
    assert _write_errors() - before == 1
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert str(tmp_path) in warning and "ENOSPC" in warning
    assert list(tmp_path.glob("*/packs/*")) == []
    assert list(tmp_path.rglob("*.tmp")) == []
    monkeypatch.undo()
    rerun = ExperimentRunner(_sweep(tmp_path))
    assert _canonical(rerun.run()) == reference
    assert rerun.last_stats.executed == 4  # nothing was stored the first time
