"""sFlow-like flow-record traces (paper §2.1, §6.1).

Choreo profiles applications with a network monitoring tool such as sFlow or
tcpdump; the output is a stream of flow records (timestamp, source task,
destination task, byte count).  This module defines that record format, its
two on-disk serialisations and the aggregation from records to
per-application traffic matrices.  A CSV trace has the header
``timestamp,application,src_task,dst_task,num_bytes`` and one record per
row; a JSONL trace (one JSON object per line, the common export format of
flow collectors) has one object with those keys per line.

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
from typing import Iterable, List, Optional, Union

from repro.errors import WorkloadError
from repro.workloads.application import TrafficMatrix

_FIELDS = ("timestamp", "application", "src_task", "dst_task", "num_bytes")


@dataclass(frozen=True)
class FlowRecord:
    """One observed transfer between two tasks.

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
        if not 0 <= self.timestamp < math.inf:
            raise WorkloadError(
                f"flow record timestamp must be finite and >= 0, got {self.timestamp!r}"
            )
        if not 0 <= self.num_bytes < math.inf:
            raise WorkloadError(
                f"flow record byte count must be finite and >= 0, got {self.num_bytes!r}"
            )
        if not self.src_task or not self.dst_task:
            raise WorkloadError("flow record task names must be non-empty")


#: What a malformed trace raises while it is read and parsed: a bad row or
#: number (ValueError, which covers bytes that are not UTF-8, TypeError,
#: KeyError), an integer too large for a float (OverflowError), JSON nested
#: past the parser's stack (RecursionError), a CSV the reader cannot split
#: (csv.Error), and a record that fails validation (WorkloadError).
_MALFORMED = (
    ValueError, TypeError, KeyError, OverflowError, RecursionError, csv.Error,
    WorkloadError,
)


def read_trace(path: Union[str, Path]) -> List[FlowRecord]:
    """Read records from a CSV trace."""
    path = Path(path)
    records: List[FlowRecord] = []
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
                records.append(
                    FlowRecord(
                        timestamp=float(row["timestamp"]),
                        application=row["application"],
                        src_task=row["src_task"],
                        dst_task=row["dst_task"],
                        num_bytes=float(row["num_bytes"]),
                    )
                )
    except OSError as exc:
        raise WorkloadError(f"cannot read trace {path}: {exc}") from exc
    except _MALFORMED as exc:
        raise WorkloadError(
            f"{path}:{line_no}: malformed trace record: {exc}"
        ) from exc
    return records


def read_trace_jsonl(path: Union[str, Path]) -> List[FlowRecord]:
    """Read records from a JSONL trace (or any flow collector emitting the
    same keys)."""
    path = Path(path)
    records: List[FlowRecord] = []
    line_no = 0
    try:
        with path.open() as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                records.append(
                    FlowRecord(
                        timestamp=float(row["timestamp"]),
                        application=str(row["application"]),
                        src_task=str(row["src_task"]),
                        dst_task=str(row["dst_task"]),
                        num_bytes=float(row["num_bytes"]),
                    )
                )
    except OSError as exc:
        raise WorkloadError(f"cannot read trace {path}: {exc}") from exc
    except _MALFORMED as exc:
        raise WorkloadError(
            f"{path}:{line_no}: malformed trace record: {exc}"
        ) from exc
    return records


def load_trace(path: Union[str, Path]) -> List[FlowRecord]:
    """Read a trace from disk, dispatching on the file suffix.

    ``.jsonl`` (and ``.ndjson``) files are parsed as JSONL, everything else
    as CSV.
    """
    path = Path(path)
    if path.suffix.lower() in (".jsonl", ".ndjson"):
        return read_trace_jsonl(path)
    return read_trace(path)


def records_to_traffic_matrix(
    records: Iterable[FlowRecord],
    application: Optional[str] = None,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> TrafficMatrix:
    """Aggregate flow records into a traffic matrix.

    Args:
        application: restrict to one application (all records when omitted).
        start, end: optional half-open time window ``[start, end)``.
    """
    matrix = TrafficMatrix()
    for record in records:
        if application is not None and record.application != application:
            continue
        if start is not None and record.timestamp < start:
            continue
        if end is not None and record.timestamp >= end:
            continue
        matrix.add(record.src_task, record.dst_task, record.num_bytes)
    return matrix
