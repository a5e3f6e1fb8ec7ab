"""Hostile flow traces: a seeded mutator against the CSV and JSONL readers.

``read_trace`` and ``read_trace_jsonl`` read files a user hands the
``ec2-trace-replay`` scenario (``trace_path``).  Every case below mutates a
valid trace — cuts it short, flips a byte, swaps one field for a hostile
value or drops it — and asserts the load contract of :mod:`hostile`: the
records that load have finite, non-negative times and byte counts and
aggregate into a traffic matrix, or the reader raises a ``ReproError``
that names the file.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from helpers import write_trace, write_trace_jsonl
from hostile import DEEP, HOSTILE, deadline
from repro.errors import ReproError
from repro.workloads.trace import (
    FlowRecord,
    read_trace,
    read_trace_jsonl,
    records_to_traffic_matrix,
)

RECORDS = [
    FlowRecord(0.0, "alpha", "a1", "a2", 5e8),
    FlowRecord(30.5, "beta", "b1", "b2", 2e8),
    FlowRecord(31.0, "beta", "b2", "b3", 1e8),
]
FIELDS = ("timestamp", "application", "src_task", "dst_task", "num_bytes")

#: Fields that got through the readers before they were fuzzed: a NaN time
#: and an infinite byte count loaded, and a huge integer escaped as
#: ``OverflowError``.  (So did deep JSON, as ``RecursionError``, and a byte
#: that is not UTF-8, as ``UnicodeDecodeError``; each mutator ends on them.)
ESCAPES = (
    ("timestamp", float("nan")), ("num_bytes", float("inf")), ("num_bytes", 10**400),
)


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _csv_mutants(text, rng, n):
    rows = list(csv.reader(io.StringIO(text)))
    data = text.encode()
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            yield data[: int(rng.integers(0, len(data)))]
        elif roll < 0.3:
            flipped = bytearray(data)
            flipped[int(rng.integers(0, len(data)))] ^= int(rng.integers(1, 256))
            yield bytes(flipped)
        else:
            copy = [list(row) for row in rows]
            row = copy[int(rng.integers(0, len(copy)))]
            cell = int(rng.integers(0, len(row)))
            if roll < 0.4:
                del row[cell]
            else:
                row[cell] = str(HOSTILE[int(rng.integers(0, len(HOSTILE)))])
            yield _csv_text(copy).encode()
    for field, value in ESCAPES:
        copy = [list(row) for row in rows]
        copy[1][FIELDS.index(field)] = str(value)
        yield _csv_text(copy).encode()
    yield _csv_text(rows + [["1.0", "deep", "d1", "d2", DEEP]]).encode()
    yield data + b"2.0,gamma,c1,c2,\xff\n"


def _jsonl_mutants(text, rng, n):
    docs = [json.loads(line) for line in text.splitlines()]
    data = text.encode()

    def dumped(copy):
        return "".join(json.dumps(doc) + "\n" for doc in copy).encode()

    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            yield data[: int(rng.integers(0, len(data)))]
        elif roll < 0.3:
            flipped = bytearray(data)
            flipped[int(rng.integers(0, len(data)))] ^= int(rng.integers(1, 256))
            yield bytes(flipped)
        else:
            copy = json.loads(json.dumps(docs))
            line = int(rng.integers(0, len(copy)))
            key = FIELDS[int(rng.integers(0, len(FIELDS)))]
            if roll < 0.4:
                del copy[line][key]
            elif roll < 0.45:
                copy[line] = HOSTILE[int(rng.integers(0, len(HOSTILE)))]
            else:
                copy[line][key] = HOSTILE[int(rng.integers(0, len(HOSTILE)))]
            yield dumped(copy)
    for field, value in ESCAPES:
        copy = json.loads(json.dumps(docs))
        copy[1][field] = value
        yield dumped(copy)
    yield data + DEEP.encode() + b"\n"
    yield data + b'{"application": "\xff"}\n'


FORMATS = {
    "csv": (write_trace, read_trace, _csv_mutants),
    "jsonl": (write_trace_jsonl, read_trace_jsonl, _jsonl_mutants),
}


def _use(records):
    for record in records:
        assert math.isfinite(record.timestamp) and record.timestamp >= 0, record
        assert math.isfinite(record.num_bytes) and record.num_bytes >= 0, record
        assert record.src_task and record.dst_task, record
    records_to_traffic_matrix(records)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("seed", range(3))
def test_a_mutated_trace_loads_or_names_its_file(fmt, seed, tmp_path):
    write, read, mutants = FORMATS[fmt]
    path = tmp_path / f"trace.{fmt}"
    write(RECORDS, path)
    rng = np.random.default_rng(seed)
    outcomes = {"loaded": 0, "refused": 0}
    for i, mutant in enumerate(mutants(path.read_text(), rng, 300)):
        path.write_bytes(mutant)
        with deadline():
            try:
                records = read(path)
            except ReproError as exc:
                assert path.name in str(exc), (i, mutant[:200], exc)
                outcomes["refused"] += 1
                continue
            _use(records)
        outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["refused"], outcomes

