"""Tasks, traffic matrices, and applications (paper §2.1).

Choreo models an application as a set of *tasks* plus a traffic matrix whose
entry ``(i, j)`` is the number of bytes task ``i`` sends to task ``j`` over
the application's lifetime.  The matrix records bytes rather than rates
because bytes are independent of cross traffic (§2.1).  Tasks also carry a
CPU demand (the evaluation models 0.5–4 cores per task on 4-core machines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import WorkloadError


@dataclass(frozen=True)
class Task:
    """One schedulable unit of an application.

    Attributes:
        name: identifier, unique within its application.
        cpu_cores: CPU demand in cores (the paper uses 0.5–4).
    """

    name: str
    cpu_cores: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("task name must be non-empty")
        if not self.cpu_cores > 0:
            raise WorkloadError(f"task {self.name!r}: cpu_cores must be positive")


class TrafficMatrix:
    """Sparse task-to-task byte counts.

    The matrix is directional: ``matrix[i, j]`` is the number of bytes task
    ``i`` sends to task ``j``.  Entries are accumulated, so profiling code
    can simply :meth:`add` every observed flow record.
    """

    def __init__(self, entries: Optional[Mapping[Tuple[str, str], float]] = None):
        self._entries: Dict[Tuple[str, str], float] = {}
        if entries:
            for (src, dst), value in entries.items():
                self.add(src, dst, value)

    # ------------------------------------------------------------- mutation
    def add(self, src: str, dst: str, num_bytes: float) -> None:
        """Accumulate ``num_bytes`` from ``src`` to ``dst``.

        Self-transfers and zero volumes are ignored (they carry no
        placement information).

        Raises:
            WorkloadError: ``num_bytes`` is negative, NaN or infinite (the
                message names the pair).
        """
        if not 0 <= num_bytes < math.inf:
            raise WorkloadError(
                f"traffic matrix entry ({src!r}, {dst!r}) must be finite and "
                f">= 0, got {num_bytes!r}"
            )
        if src == dst or num_bytes == 0:
            return
        key = (src, dst)
        self._entries[key] = self._entries.get(key, 0.0) + float(num_bytes)

    def scaled(self, factor: float) -> "TrafficMatrix":
        """A new matrix with every entry multiplied by ``factor``.

        Raises:
            WorkloadError: ``factor`` is negative, NaN or infinite, or a
                product overflows to infinity (naming its pair).
        """
        if not 0 <= factor < math.inf:
            raise WorkloadError(f"scale factor must be finite and >= 0, got {factor!r}")
        return TrafficMatrix(
            {pair: value * factor for pair, value in self._entries.items()}
        )

    # ------------------------------------------------------------ inspection
    def items(self) -> List[Tuple[Tuple[str, str], float]]:
        """All ``((src, dst), bytes)`` entries, in insertion order."""
        return list(self._entries.items())

    def pairs_by_volume(self) -> List[Tuple[str, str, float]]:
        """Transfers as ``(src, dst, bytes)``, largest first (Algorithm 1, line 1)."""
        return sorted(
            ((src, dst, value) for (src, dst), value in self._entries.items()),
            key=lambda item: (-item[2], item[0], item[1]),
        )

    @property
    def total_bytes(self) -> float:
        """Sum of all entries."""
        return sum(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class Application:
    """A named set of tasks plus their traffic matrix.

    Attributes:
        name: application identifier.
        tasks: the application's tasks; names must be unique.
        traffic: task-to-task byte counts; every referenced task must exist.
        start_time: observed (or scheduled) start time in seconds, used when
            placing sequences of applications (§6.3).
    """

    name: str
    tasks: List[Task]
    traffic: TrafficMatrix = field(default_factory=TrafficMatrix)
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("application name must be non-empty")
        if not self.tasks:
            raise WorkloadError(f"application {self.name!r} has no tasks")
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise WorkloadError(f"application {self.name!r} has duplicate task names")
        known = set(names)
        for src, dst in (pair for pair, _ in self.traffic.items()):
            if src not in known or dst not in known:
                raise WorkloadError(
                    f"application {self.name!r}: traffic references unknown task "
                    f"{src!r} or {dst!r}"
                )
        if not self.start_time >= 0:
            raise WorkloadError("start_time must be >= 0")

    # ------------------------------------------------------------ inspection
    @property
    def task_names(self) -> List[str]:
        """Task names in declaration order."""
        return [task.name for task in self.tasks]

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        for task in self.tasks:
            if task.name == name:
                return task
        raise WorkloadError(f"application {self.name!r} has no task {name!r}")

    def cpu_demand(self, task_name: str) -> float:
        """CPU demand (cores) of one task."""
        return self.task(task_name).cpu_cores

    @property
    def total_cpu(self) -> float:
        """Total CPU demand of the application in cores."""
        return sum(task.cpu_cores for task in self.tasks)

    @property
    def total_bytes(self) -> float:
        """Total bytes the application transfers between tasks."""
        return self.traffic.total_bytes

    def transfers(self) -> List[Tuple[str, str, float]]:
        """Transfers sorted by descending volume (Algorithm 1 input)."""
        return self.traffic.pairs_by_volume()
