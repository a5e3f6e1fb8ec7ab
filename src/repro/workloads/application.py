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
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

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


class VolumeOrder(NamedTuple):
    """A matrix's transfers largest first (Algorithm 1, line 1) as columns:
    transfer ``k`` is ``num_bytes[k]`` bytes from ``tasks[src[k]]`` to
    ``tasks[dst[k]]``, equal volumes in ``(src, dst)`` name order.
    ``tasks`` is the table the ids index (it may name tasks with no
    transfer).  ``opens`` lists, ascending, the transfers that are the
    first to name one of their tasks."""

    tasks: Tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    num_bytes: np.ndarray
    opens: List[int]

    @classmethod
    def of_columns(
        cls, tasks: Tuple[str, ...], src: np.ndarray, dst: np.ndarray, num_bytes: np.ndarray
    ) -> "VolumeOrder":
        """The order of columns already in volume order, its ``opens``
        found as one array program: each task's first position among the
        transfers' interleaved ends."""
        ends = np.empty(2 * src.shape[0], dtype=np.intp)
        ends[0::2], ends[1::2] = src, dst
        first = np.full(len(tasks), ends.shape[0])
        np.minimum.at(first, ends, np.arange(ends.shape[0]))
        opening = np.zeros(src.shape[0], dtype=bool)
        opening[first[first < ends.shape[0]] // 2] = True
        return cls(tasks, src, dst, num_bytes, opening.nonzero()[0].tolist())


class TrafficMatrix:
    """Sparse task-to-task byte counts.

    The matrix is directional: ``matrix[i, j]`` is the number of bytes task
    ``i`` sends to task ``j``.  Entries are accumulated, so profiling code
    can simply :meth:`add` every observed flow record.
    """

    def __init__(self, entries: Optional[Mapping[Tuple[str, str], float]] = None):
        self._entries: Dict[Tuple[str, str], float] = {}
        self._by_volume: Optional[List[Tuple[str, str, float]]] = None
        self._volume: Optional[VolumeOrder] = None
        if entries:
            for (src, dst), value in entries.items():
                self.add(src, dst, value)

    @classmethod
    def of_totals(
        cls, totals: Dict[Tuple[str, str], float], volume: Optional[VolumeOrder] = None
    ) -> "TrafficMatrix":
        """A matrix holding ``totals`` as they are: each ``(src, dst)``
        entry already summed, finite, positive and off the diagonal (what
        :meth:`add` would have kept), in the order :meth:`items` lists;
        ``volume``, when given, is their :meth:`volume_order`."""
        matrix = cls()
        matrix._entries = totals
        matrix._volume = volume
        return matrix

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
        self._by_volume = self._volume = None

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
        """Transfers as ``(src, dst, bytes)``, largest first (Algorithm 1,
        line 1): a new list of an order sorted once per change (read off
        the :meth:`volume_order` a matrix was built with)."""
        if self._by_volume is None:
            volume = self._volume
            if volume is None:
                self._by_volume = sorted(
                    ((src, dst, value) for (src, dst), value in self._entries.items()),
                    key=lambda item: (-item[2], item[0], item[1]),
                )
            else:
                tasks = volume.tasks
                self._by_volume = list(zip(
                    [tasks[i] for i in volume.src.tolist()],
                    [tasks[i] for i in volume.dst.tolist()],
                    volume.num_bytes.tolist(),
                ))
        return list(self._by_volume)

    def volume_order(self) -> VolumeOrder:
        """:meth:`pairs_by_volume` as columns over the tasks the matrix
        names (kept until the next change)."""
        if self._volume is None:
            # A matrix built entry by entry is ordered in Python, as
            # pairs_by_volume orders it, and its tasks take ids as that
            # order first names them; a profiled one was handed its order.
            index: Dict[str, int] = {}
            src: List[int] = []
            dst: List[int] = []
            opens: List[int] = []
            transfers = self.pairs_by_volume()
            for k, (a, b, _) in enumerate(transfers):
                named = len(index)
                src.append(index.setdefault(a, named))
                dst.append(index.setdefault(b, len(index)))
                if len(index) != named:
                    opens.append(k)
            ends = np.array((src, dst), dtype=np.intp).reshape(2, -1)
            self._volume = VolumeOrder(
                tuple(index), ends[0], ends[1],
                np.fromiter([value for _, _, value in transfers], np.float64),
                opens,
            )
        return self._volume

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
