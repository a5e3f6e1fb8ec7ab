"""Run placed applications on a synthetic cloud, outside a session.

``run_applications`` runs each placed application on one
:class:`~repro.runtime.migration.LiveNetwork`, the engine every
placement-service session (and so every sweep cell) runs on: it admits an
application's :class:`~repro.runtime.migration.LiveApp` books at its
``start_time`` and advances the network from one arrival to the next, then
to the end.  Transfers between tasks on the same VM never touch the network
(one of the main wins of network-aware placement); the books move their
bytes off-network the moment the placement is set.  No trial runs through
it: it stays for callers that run placements whole, outside a session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.cloud.provider import CloudProvider
from repro.core.placement.base import Placement
from repro.errors import PlacementError, SimulationError
from repro.runtime.migration import LiveApp, LiveNetwork, advance_live_apps, booked_bytes
from repro.workloads.application import Application


@dataclass
class ApplicationRun:
    """Outcome of running one placed application.

    Attributes:
        app_name: the application.
        start_time: when its transfers began.
        completion_time: absolute time the last of its flows finished; equal
            to ``start_time`` when the placement put every communicating
            task pair on the same VM (no network transfers at all).
        flow_completion_times: per-flow absolute completion times, one per
            transfer between different VMs, keyed by its
            :meth:`~repro.runtime.migration.LiveApp.flow_ids` id; a
            transfer too small to put on the network finishes at the start.
        colocated_bytes: bytes that never crossed the network because both
            endpoints shared a VM.
        network_bytes: bytes that did cross the network.
    """

    app_name: str
    start_time: float
    completion_time: float
    flow_completion_times: Dict[str, float] = field(default_factory=dict)
    colocated_bytes: float = 0.0
    network_bytes: float = 0.0

    @property
    def duration(self) -> float:
        """The application's running time (network-transfer time)."""
        return self.completion_time - self.start_time


def run_applications(
    provider: CloudProvider,
    placements: Mapping[str, Placement],
    apps: Sequence[Application],
) -> Dict[str, ApplicationRun]:
    """Run several placed applications together on one provider network,
    each from its own ``start_time``.

    Args:
        placements: one placement per application name.
        apps: the applications (must all appear in ``placements``).

    Returns:
        Mapping of application name to its :class:`ApplicationRun`.
    """
    if not apps:
        raise SimulationError("run_applications needs at least one application")
    arrivals: Dict[float, List[Application]] = {}
    for app in apps:
        if app.name not in placements:
            raise PlacementError(f"no placement supplied for application {app.name!r}")
        arrivals.setdefault(app.start_time, []).append(app)

    network = LiveNetwork(provider)
    running: Dict[str, LiveApp] = {}
    finished: Dict[str, float] = {}
    starts = sorted(arrivals)
    for start, until in zip(starts, [*starts[1:], None]):
        for app in arrivals[start]:
            running[app.name] = LiveApp(app, placements[app.name], start)
        result = advance_live_apps(network, running, start, until)
        if result is not None:
            finished.update(result.completion_times)
    return {app.name: _application_run(running[app.name], finished) for app in apps}


def _application_run(state: LiveApp, finished: Mapping[str, float]) -> ApplicationRun:
    """What the books of a drained application, and the completion times
    of every flow the network ran, say about it."""
    machine_of = state.placement.machine_of
    network_bytes, colocated_bytes = booked_bytes([state])
    return ApplicationRun(
        app_name=state.app.name,
        start_time=state.started,
        completion_time=state.completed_at,
        flow_completion_times={
            flow_id: finished.get(flow_id, state.started)
            for flow_id, (src, dst) in state.flow_ids()
            if machine_of(src) != machine_of(dst)
        },
        colocated_bytes=colocated_bytes,
        network_bytes=network_bytes,
    )
