"""Flow descriptors used by the fluid simulator.

A :class:`Flow` is a number of bytes sent from one endpoint to another (or
to itself), starting at a given time: a task-to-task transfer from an
application traffic matrix, another tenant's transfer, or a netperf
connection — which is simply a flow too big to finish before the run is
cut off.  Its endpoints are the names the component that routes it reads:
VM names for :meth:`repro.cloud.provider.CloudProvider.add_flows`, host
names for a :meth:`repro.net.fluid.FluidSimulation.add_flows` that routes
the batch itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
        src: source endpoint (a VM or a host name, see the module).
        dst: destination endpoint (may equal ``src`` for colocated tasks).
        size_bytes: bytes to transfer.
        start_time: simulation time at which the flow begins.
    """

    flow_id: str
    src: str
    dst: str
    size_bytes: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them: a NaN start time
        # would never be reached by the event loop, which then spins.
        if not 0 <= self.size_bytes < math.inf:
            raise SimulationError(
                f"flow {self.flow_id!r}: size_bytes must be finite and >= 0, "
                f"got {self.size_bytes!r}"
            )
        if not 0 <= self.start_time < math.inf:
            raise SimulationError(
                f"flow {self.flow_id!r}: start_time must be finite and >= 0, "
                f"got {self.start_time!r}"
            )
