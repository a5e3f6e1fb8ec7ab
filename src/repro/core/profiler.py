"""Application profiling (paper §2.1).

Choreo profiles an application offline with a network monitoring tool such
as sFlow or tcpdump; the output is a matrix whose entry ``(i, j)`` is
proportional to the number of bytes task ``i`` sends to task ``j``.  The
profiler here consumes a :class:`~repro.workloads.trace.FlowRecords` batch
(our sFlow stand-in) and produces :class:`~repro.workloads.application.Application`
objects ready for placement.  A profile is one array program over the
batch's columns (:func:`~repro.workloads.trace.aggregate_records`): bytes
summed by pair id in record order, and the matrix's volume order, which the
greedy placer walks, from one ``lexsort`` handed over with the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads.application import Application, Task
from repro.workloads.trace import FlowRecords, aggregate_records


@dataclass
class ApplicationProfiler:
    """Builds application profiles from observed flow records.

    Attributes:
        default_cpu_cores: CPU demand assumed for tasks whose demand is not
            supplied (the HP Cloud dataset had no CPU data either; the paper
            models 0.5–4 cores per task).
    """

    default_cpu_cores: float = 1.0

    def profile_application(
        self,
        records: FlowRecords,
        application: str,
        task_cpu_cores: Optional[Mapping[str, float]] = None,
        window: Optional[Tuple[float, float]] = None,
        start_time: Optional[float] = None,
    ) -> Application:
        """Build an :class:`Application` from the records of one application.

        Args:
            records: observed flow records (may contain other applications).
            application: name of the application to profile.
            task_cpu_cores: optional per-task CPU demands; tasks not listed
                get ``default_cpu_cores``.
            window: optional ``(start, end)`` profiling window in seconds.
            start_time: the application's start time; defaults to the first
                record observed for it.

        Raises:
            WorkloadError: if no records match the application.
        """
        lo, hi = window if window is not None else (None, None)
        traffic, task_names, observed_start = aggregate_records(
            records, application, lo, hi
        )
        if not task_names:
            raise WorkloadError(
                f"no flow records found for application {application!r}"
            )
        cpus = dict(task_cpu_cores) if task_cpu_cores else {}
        tasks = [
            Task(name, cpus.get(name, self.default_cpu_cores))
            for name in task_names
        ]
        return Application(
            name=application,
            tasks=tasks,
            traffic=traffic,
            start_time=observed_start if start_time is None else start_time,
        )
