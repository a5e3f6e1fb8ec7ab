"""Flow descriptors used by the fluid simulator.

A :class:`Flow` is a transfer of bytes between two hosts (or within one
host).  Flows can be *finite* (a known number of bytes, e.g. a task-to-task
transfer from an application traffic matrix) or *unbounded* (backlogged
cross traffic that exists between a start and an end time, as in the ON/OFF
background sources of Figure 4).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError


class FlowState(enum.Enum):
    """Lifecycle of a flow inside the fluid simulator."""

    PENDING = "pending"
    ACTIVE = "active"
    COMPLETED = "completed"
    STOPPED = "stopped"


@dataclass
class Flow:
    """A single transfer between two endpoints.

    Attributes:
        flow_id: unique identifier.
        src: source host name.
        dst: destination host name (may equal ``src`` for colocated tasks).
        size_bytes: bytes to transfer; ``None`` for an unbounded
            (backlogged) flow that only stops at ``end_time``.
        start_time: simulation time at which the flow begins.
        end_time: for unbounded flows, the time at which the source stops
            sending; ignored for finite flows.
        max_rate_bps: optional application-level cap on the flow's rate.
        tag: free-form label (application name, "cross-traffic", ...).
    """

    flow_id: str
    src: str
    dst: str
    size_bytes: Optional[float] = None
    start_time: float = 0.0
    end_time: Optional[float] = None
    max_rate_bps: Optional[float] = None
    tag: str = ""

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them: a NaN start time
        # would never be reached by the event loop, which then spins.
        if self.size_bytes is not None and not 0 <= self.size_bytes < math.inf:
            raise SimulationError(
                f"flow {self.flow_id!r}: size_bytes must be finite and >= 0, "
                f"got {self.size_bytes!r}"
            )
        if self.size_bytes is None and self.end_time is None:
            raise SimulationError(
                f"flow {self.flow_id!r}: an unbounded flow needs an end_time"
            )
        if not 0 <= self.start_time < math.inf:
            raise SimulationError(
                f"flow {self.flow_id!r}: start_time must be finite and >= 0, "
                f"got {self.start_time!r}"
            )
        if self.end_time is not None and not self.end_time >= self.start_time:
            raise SimulationError(
                f"flow {self.flow_id!r}: end_time {self.end_time!r} does not "
                f"follow start_time {self.start_time!r}"
            )
        if self.max_rate_bps is not None and not self.max_rate_bps > 0:
            raise SimulationError(
                f"flow {self.flow_id!r}: max_rate_bps must be positive, "
                f"got {self.max_rate_bps!r}"
            )

    @property
    def is_unbounded(self) -> bool:
        """True for backlogged flows without a byte count."""
        return self.size_bytes is None

    def remaining_or_inf(self) -> float:
        """Bytes remaining for finite flows, ``inf`` for unbounded ones."""
        return math.inf if self.size_bytes is None else float(self.size_bytes)
