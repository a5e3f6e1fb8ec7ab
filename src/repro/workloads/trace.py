"""sFlow-like flow-record traces (paper §2.1, §6.1).

Choreo profiles applications with a network monitoring tool such as sFlow or
tcpdump; the output is a stream of flow records (timestamp, source task,
destination task, byte count).  This module defines that record format, its
two on-disk serialisations and the aggregation from records to
per-application traffic matrices.  A CSV trace has the header
``timestamp,application,src_task,dst_task,num_bytes`` and one record per
row; a JSONL trace (one JSON object per line, the common export format of
flow collectors) has one object with those keys per line.

Records travel as one column batch, :class:`FlowRecords`: application and
task ids into two name tables (task ids in name order), byte counts and
timestamps — 28 bytes a record, where a :class:`FlowRecord` object took
about 200.  The generator, both readers and :func:`load_trace` return a
batch; :func:`aggregate_records` sums it by pair id in record order, so the
matrix is the one :meth:`TrafficMatrix.add` builds record by record
(``tests/oracles/flow_records.py``).  :class:`FlowRecord` is the row view a
batch iterates as and is built from.

:func:`load_trace` dispatches on the file suffix, so consumers such as the
``ec2-trace-replay`` scenario's ``trace_path`` parameter accept either
format.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.application import TrafficMatrix, VolumeOrder

_FIELDS = ("timestamp", "application", "src_task", "dst_task", "num_bytes")


def _check(timestamp: float, src_task: str, dst_task: str, num_bytes: float) -> None:
    """What one record must hold: a finite timestamp and byte count, both
    >= 0, and two non-empty task names."""
    if not 0 <= timestamp < math.inf:
        raise WorkloadError(
            f"flow record timestamp must be finite and >= 0, got {timestamp!r}"
        )
    if not 0 <= num_bytes < math.inf:
        raise WorkloadError(
            f"flow record byte count must be finite and >= 0, got {num_bytes!r}"
        )
    if not src_task or not dst_task:
        raise WorkloadError("flow record task names must be non-empty")


@dataclass(frozen=True)
class FlowRecord:
    """One observed transfer between two tasks: a row of a
    :class:`FlowRecords` batch.

    Attributes:
        timestamp: seconds since the start of the trace.
        application: name of the application the tasks belong to.
        src_task: sending task.
        dst_task: receiving task.
        num_bytes: bytes observed in this record.
    """

    timestamp: float
    application: str
    src_task: str
    dst_task: str
    num_bytes: float

    def __post_init__(self) -> None:
        _check(self.timestamp, self.src_task, self.dst_task, self.num_bytes)


class FlowRecords:
    """Flow records as columns, in record order.

    ``applications`` and ``tasks`` are name tables, ``tasks`` in name
    order (so sorting task ids sorts task names); record ``i`` is
    ``num_bytes[i]`` bytes from ``tasks[src[i]]`` to ``tasks[dst[i]]`` of
    application ``applications[application[i]]`` at ``timestamp[i]``.
    Every record holds what a :class:`FlowRecord` does; the constructor
    refuses a batch that does not, or whose tables do not cover its ids.
    """

    __slots__ = ("applications", "tasks", "application", "src", "dst", "num_bytes", "timestamp")

    def __init__(
        self,
        applications: Sequence[str],
        tasks: Sequence[str],
        application: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        num_bytes: np.ndarray,
        timestamp: np.ndarray,
    ) -> None:
        self.applications = tuple(applications)
        self.tasks = tuple(tasks)
        self.application = np.asarray(application, dtype=np.int32)
        self.src = np.asarray(src, dtype=np.int32)
        self.dst = np.asarray(dst, dtype=np.int32)
        self.num_bytes = np.asarray(num_bytes, dtype=np.float64)
        self.timestamp = np.asarray(timestamp, dtype=np.float64)
        n = self.timestamp.shape[0]
        columns = (self.application, self.src, self.dst, self.num_bytes, self.timestamp)
        if any(column.shape != (n,) for column in columns):
            raise WorkloadError("flow record columns must be 1-D and of one length")
        if not all(self.tasks) or any(a >= b for a, b in zip(self.tasks, self.tasks[1:])):
            raise WorkloadError("flow record task names must be non-empty and in name order")
        for ids, table in (
            (self.application, self.applications), (self.src, self.tasks), (self.dst, self.tasks)
        ):
            if n and not (0 <= ids.min() and ids.max() < len(table)):
                raise WorkloadError("flow record ids must index their name tables")
        for value, what in ((self.timestamp, "timestamp"), (self.num_bytes, "byte count")):
            if n and not (0 <= value.min() and value.max() < math.inf):
                raise WorkloadError(f"flow record {what}s must be finite and >= 0")

    @classmethod
    def of(cls, rows: Iterable[FlowRecord]) -> "FlowRecords":
        """The batch of ``rows``, in their order."""
        columns = _Columns()
        for row in rows:
            columns.add(row.timestamp, row.application, row.src_task, row.dst_task, row.num_bytes)
        return columns.batch()

    def __len__(self) -> int:
        return self.timestamp.shape[0]

    def __iter__(self) -> Iterator[FlowRecord]:
        apps, tasks = self.applications, self.tasks
        for timestamp, app, src, dst, num_bytes in zip(
            self.timestamp.tolist(), self.application.tolist(), self.src.tolist(),
            self.dst.tolist(), self.num_bytes.tolist(),
        ):
            yield FlowRecord(timestamp, apps[app], tasks[src], tasks[dst], num_bytes)

    def applications_by_start(self) -> List[str]:
        """The applications the records name, by their first timestamp and,
        among equal ones, by their first record (one pass over the batch)."""
        n, seen = len(self), np.arange(len(self))
        first_at = np.full(len(self.applications), n)
        np.minimum.at(first_at, self.application, seen)
        first = np.full(len(self.applications), math.inf)
        np.minimum.at(first, self.application, self.timestamp)
        ids = (first_at < n).nonzero()[0]
        order = np.lexsort((first_at[ids], first[ids]))
        return [self.applications[i] for i in ids[order].tolist()]


class _Columns:
    """A batch being read row by row: names get ids as they are first
    seen, and task ids move to name order when the batch is built."""

    def __init__(self) -> None:
        self.applications: Dict[str, int] = {}
        self.tasks: Dict[str, int] = {}
        self.application: List[int] = []
        self.src: List[int] = []
        self.dst: List[int] = []
        self.num_bytes: List[float] = []
        self.timestamp: List[float] = []

    def add(
        self, timestamp: float, application: str, src: str, dst: str, num_bytes: float
    ) -> None:
        _check(timestamp, src, dst, num_bytes)
        apps, tasks = self.applications, self.tasks
        self.application.append(apps.setdefault(application, len(apps)))
        self.src.append(tasks.setdefault(src, len(tasks)))
        self.dst.append(tasks.setdefault(dst, len(tasks)))
        self.num_bytes.append(num_bytes)
        self.timestamp.append(timestamp)

    def batch(self) -> FlowRecords:
        names = sorted(self.tasks)
        rank = np.empty(len(names), dtype=np.int32)
        rank[[self.tasks[name] for name in names]] = np.arange(len(names), dtype=np.int32)
        return FlowRecords(
            list(self.applications), names, self.application,
            rank[np.array(self.src, dtype=np.intp)], rank[np.array(self.dst, dtype=np.intp)],
            self.num_bytes, self.timestamp,
        )


#: What a malformed trace raises while it is read and parsed: a bad row or
#: number (ValueError, which covers bytes that are not UTF-8, TypeError,
#: KeyError), an integer too large for a float (OverflowError), JSON nested
#: past the parser's stack (RecursionError), a CSV the reader cannot split
#: (csv.Error), and a record that fails validation (WorkloadError).
_MALFORMED = (
    ValueError, TypeError, KeyError, OverflowError, RecursionError, csv.Error,
    WorkloadError,
)


def read_trace(path: Union[str, Path]) -> FlowRecords:
    """Read records from a CSV trace."""
    path = Path(path)
    columns = _Columns()
    line_no = 1
    try:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or tuple(reader.fieldnames) != _FIELDS:
                raise WorkloadError(
                    f"not a flow trace (expected header {_FIELDS}, got "
                    f"{reader.fieldnames})"
                )
            for row in reader:
                line_no = reader.line_num
                columns.add(
                    float(row["timestamp"]), row["application"], row["src_task"],
                    row["dst_task"], float(row["num_bytes"]),
                )
    except OSError as exc:
        raise WorkloadError(f"cannot read trace {path}: {exc}") from exc
    except _MALFORMED as exc:
        raise WorkloadError(
            f"{path}:{line_no}: malformed trace record: {exc}"
        ) from exc
    return columns.batch()


def read_trace_jsonl(path: Union[str, Path]) -> FlowRecords:
    """Read records from a JSONL trace (or any flow collector emitting the
    same keys)."""
    path = Path(path)
    columns = _Columns()
    line_no = 0
    try:
        with path.open() as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                columns.add(
                    float(row["timestamp"]), str(row["application"]),
                    str(row["src_task"]), str(row["dst_task"]), float(row["num_bytes"]),
                )
    except OSError as exc:
        raise WorkloadError(f"cannot read trace {path}: {exc}") from exc
    except _MALFORMED as exc:
        raise WorkloadError(
            f"{path}:{line_no}: malformed trace record: {exc}"
        ) from exc
    return columns.batch()


def load_trace(path: Union[str, Path]) -> FlowRecords:
    """Read a trace from disk, dispatching on the file suffix.

    ``.jsonl`` (and ``.ndjson``) files are parsed as JSONL, everything else
    as CSV.
    """
    path = Path(path)
    if path.suffix.lower() in (".jsonl", ".ndjson"):
        return read_trace_jsonl(path)
    return read_trace(path)


def aggregate_records(
    records: FlowRecords,
    application: Optional[str] = None,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> Tuple[TrafficMatrix, List[str], float]:
    """The traffic matrix of the records that match, every task they name
    (in name order), and the earliest matching timestamp (``inf`` with no
    match) — one array program over the batch.

    A record matches when it belongs to ``application`` (any, when
    omitted) and falls in the half-open window ``[start, end)``.  Each
    pair's bytes are summed in record order (one ``np.bincount`` by pair
    id, which adds its weights in order from 0.0, as ``np.add.at`` would),
    and the matrix lists its pairs in the order their first record came, as :meth:`TrafficMatrix.add` would; self-transfers and empty
    records name their tasks and add no entry.  The matrix comes with its
    volume order (:class:`VolumeOrder`): ``(-bytes, src id, dst id)``, one
    stable sort by volume of the pairs in id order.  (``np.unique`` and
    ``np.lexsort`` would do the same work at several times the cost; the
    first ``np.unique`` of a process imports ``numpy.ma``, ≈13 ms.)
    """
    timestamp = records.timestamp
    match = None
    if application is not None:
        if application not in records.applications:
            return TrafficMatrix(), [], math.inf
        if len(records.applications) > 1:
            match = records.application == records.applications.index(application)
    for bound, keep in ((start, np.greater_equal), (end, np.less)):
        if bound is not None:
            within = keep(timestamp, bound)
            match = within if match is None else match & within
    src, dst, num_bytes = records.src, records.dst, records.num_bytes
    if match is not None:
        at = match.nonzero()[0]
        src, dst, num_bytes, timestamp = src[at], dst[at], num_bytes[at], timestamp[at]
    if not timestamp.shape[0]:
        return TrafficMatrix(), [], math.inf
    tasks = records.tasks
    present = np.zeros(len(tasks), dtype=bool)
    present[src] = present[dst] = True
    named = [tasks[i] for i in present.nonzero()[0].tolist()]
    moving = ((num_bytes > 0) & (src != dst)).nonzero()[0]
    pair = src[moving].astype(np.int64) * len(tasks) + dst[moving]
    # The pairs in id order (so in (src, dst) name order), each record's
    # pair, and each pair's first record.
    by_pair = pair.argsort(kind="stable")
    pair = pair[by_pair]
    new = np.ones(pair.shape[0], dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=new[1:])
    slot = np.empty_like(by_pair)
    slot[by_pair] = new.cumsum() - 1
    first, pair = by_pair[new], pair[new]
    totals = np.bincount(slot, num_bytes[moving], pair.shape[0])
    s, d = np.divmod(pair, len(tasks))
    seen = first.argsort()
    entries = dict(zip(
        [(tasks[a], tasks[b]) for a, b in zip(s[seen].tolist(), d[seen].tolist())],
        totals[seen].tolist(),
    ))
    by_volume = (-totals).argsort(kind="stable")
    volume = VolumeOrder.of_columns(tasks, s[by_volume], d[by_volume], totals[by_volume])
    return TrafficMatrix.of_totals(entries, volume), named, float(timestamp.min())
