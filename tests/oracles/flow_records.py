"""Flow records one object at a time: the oracle the column batch is held to.

The profiler once read a list of :class:`~repro.workloads.trace.FlowRecord`
objects in one Python pass, adding each matching record to a
:class:`~repro.workloads.application.TrafficMatrix` as it came.
:func:`aggregate_rows` is that pass; :func:`repro.workloads.trace.aggregate_records`
must return the same matrix (items, their order and their float sums), the
same tasks and the same first timestamp from the batch of the same rows.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Set, Tuple

from repro.workloads.application import TrafficMatrix
from repro.workloads.trace import FlowRecord


def aggregate_rows(
    rows: Iterable[FlowRecord],
    application: Optional[str] = None,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> Tuple[TrafficMatrix, Set[str], float]:
    """The matrix ``TrafficMatrix.add`` builds from the rows of
    ``application`` (any, when omitted) in ``[start, end)``, every task
    they name, and their earliest timestamp (``inf`` with none)."""
    matrix = TrafficMatrix()
    tasks: Set[str] = set()
    first = math.inf
    lo = -math.inf if start is None else start
    hi = math.inf if end is None else end
    for row in rows:
        if application is not None and row.application != application:
            continue
        if not lo <= row.timestamp < hi:
            continue
        first = min(first, row.timestamp)
        matrix.add(row.src_task, row.dst_task, row.num_bytes)
        tasks.update((row.src_task, row.dst_task))
    return matrix, tasks, first
