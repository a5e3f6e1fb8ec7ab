"""Exception hierarchy for the Choreo reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class TopologyError(ReproError):
    """Raised for malformed topologies or unknown nodes/links."""


class RoutingError(ReproError):
    """Raised when no route exists between two endpoints."""


class SimulationError(ReproError):
    """Raised when the fluid or packet simulator is driven inconsistently."""


class MeasurementError(ReproError):
    """Raised when a measurement cannot be carried out or parsed."""


class PlacementError(ReproError):
    """Raised when an application cannot be placed (e.g. CPU infeasible)."""


class WorkloadError(ReproError):
    """Raised for malformed applications, traces, or traffic matrices."""


class CloudError(ReproError):
    """Raised by the synthetic cloud providers (bad VM handles, etc.)."""


class ExperimentError(ReproError):
    """Raised by the evaluation subsystem (unknown scenarios, bad grids)."""


class ServiceError(ReproError):
    """Raised by the online placement service (bad timelines or fault
    events, malformed timeline files, unknown predictors)."""
