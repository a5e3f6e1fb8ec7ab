"""Periodic re-evaluation and migration (paper §2.4).

Every ``T`` minutes Choreo re-evaluates its placement of the applications
that are still running and migrates tasks if a better placement exists; a
smaller ``T`` makes sense when migration is cheap.  The paper does not
evaluate this mechanism (its §6.3 results are explicitly *without*
re-evaluation); this module holds the pieces of it the online placement
service (:mod:`repro.service.engine`) runs at every epoch boundary.

Time is cut into segments within which rates are constant.  Within a
segment the current placements' remaining transfers run on the fluid
simulator (:func:`advance_live_apps`); at a re-evaluation, each running
application's *remaining* traffic matrix is re-placed and, if the placement
changed and the estimated completion time improves by more than a threshold,
the application migrates (:func:`propose_migration`; its remaining bytes
continue from the new placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.estimator import estimate_completion_time
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer
from repro.workloads.application import Application, Task, TrafficMatrix


@dataclass(frozen=True)
class MigrationEvent:
    """One migration decision taken at a re-evaluation tick."""

    time_s: float
    app_name: str
    moved_tasks: Tuple[str, ...]
    estimated_gain_fraction: float


def propose_migration(
    placer: Placer,
    remaining_app: Application,
    current: Placement,
    cluster: ClusterState,
    profile: NetworkProfile,
    now: float,
    improvement_threshold: float = 0.05,
    rate_model: str = "hose",
) -> Optional[Tuple[Placement, MigrationEvent]]:
    """The §2.4 re-evaluation decision for one running application.

    Re-places the application's *remaining* traffic on ``cluster`` (which
    must exclude the application's own CPU) under ``profile`` and accepts
    the candidate only when its estimated completion time beats the current
    placement's by more than ``improvement_threshold``.

    Returns ``(new_placement, event)`` when the application should migrate,
    ``None`` otherwise.  The online service calls it at epoch boundaries,
    with forecast profiles.
    """
    candidate = placer.place(remaining_app, cluster, profile)
    if candidate.assignments == current.assignments:
        return None
    current_estimate = estimate_completion_time(
        current.assignments, remaining_app, profile, model=rate_model
    )
    candidate_estimate = estimate_completion_time(
        candidate.assignments, remaining_app, profile, model=rate_model
    )
    if current_estimate <= 0:
        return None
    gain = (current_estimate - candidate_estimate) / current_estimate
    if gain <= improvement_threshold:
        return None
    moved = tuple(
        sorted(
            task
            for task, machine in candidate.assignments.items()
            if current.assignments.get(task) != machine
        )
    )
    event = MigrationEvent(
        time_s=now,
        app_name=remaining_app.name,
        moved_tasks=moved,
        estimated_gain_fraction=gain,
    )
    return candidate, event


@dataclass
class LiveApp:
    """Book-keeping for an application while it is running.

    What the online placement service tracks per admitted application: its
    current placement and the bytes each task pair still has to move.
    """

    app: Application
    placement: Placement
    remaining: Dict[Tuple[str, str], float]
    started: float
    completed_at: Optional[float] = None

    @property
    def done(self) -> bool:
        # Remaining bytes only ever shrink, so a stamped completion is
        # final: the session loop asks this of every application it ever
        # admitted, on every event, and most of them finished long ago.
        if self.completed_at is not None:
            return True
        return all(volume <= 1e-6 for volume in self.remaining.values())

    def remaining_application(self) -> Application:
        """The application restricted to its remaining bytes."""
        traffic = TrafficMatrix()
        for (src, dst), volume in self.remaining.items():
            if volume > 1e-6:
                traffic.add(src, dst, volume)
        return Application(
            name=self.app.name,
            tasks=[Task(t.name, t.cpu_cores) for t in self.app.tasks],
            traffic=traffic,
            start_time=self.app.start_time,
        )

    def live_flows(self, start: float) -> List[VMFlow]:
        """The remaining transfers as VM flows starting at ``start``.

        Task pairs whose endpoints share a VM under the *current* placement
        move their bytes off-network immediately (their remaining volume is
        zeroed), exactly as :func:`~repro.runtime.executor.placement_to_flows`
        accounts colocated bytes.
        """
        flows: List[VMFlow] = []
        for index, ((src_task, dst_task), volume) in enumerate(
            sorted(self.remaining.items())
        ):
            if volume <= 1e-6:
                continue
            src_vm = self.placement.machine_of(src_task)
            dst_vm = self.placement.machine_of(dst_task)
            if src_vm == dst_vm:
                self.remaining[(src_task, dst_task)] = 0.0
                continue
            flows.append(
                VMFlow(
                    flow_id=f"{self.app.name}:{index}:{src_task}->{dst_task}",
                    src_vm=src_vm,
                    dst_vm=dst_vm,
                    size_bytes=volume,
                    start_time=start,
                    tag=self.app.name,
                )
            )
        return flows


def live_background_flows(
    running: Dict[str, LiveApp], now: float, exclude: Optional[str] = None
) -> List[VMFlow]:
    """Every active application's remaining flows (cross traffic for
    measurements and admissions), optionally excluding one application."""
    flows: List[VMFlow] = []
    for name, state in running.items():
        if name == exclude or state.done:
            continue
        flows.extend(state.live_flows(start=now))
    return flows


def cluster_with_live_usage(
    cluster: ClusterState,
    running: Dict[str, LiveApp],
    exclude: Optional[str] = None,
) -> ClusterState:
    """``cluster`` with the CPU of active applications applied, optionally
    excluding one application (re-placing it must free its own cores)."""
    usage: Dict[str, float] = {}
    for name, state in running.items():
        if name == exclude or state.done:
            continue
        for machine, cores in state.placement.cpu_usage(state.app).items():
            usage[machine] = usage.get(machine, 0.0) + cores
    return cluster.with_usage(usage)


def advance_live_apps(
    provider: CloudProvider,
    running: Dict[str, LiveApp],
    start: float,
    until: Optional[float],
) -> None:
    """Run every active application's remaining flows from ``start``.

    Simulates the flows on the provider's network (at the provider's
    *current* rates — callers segment time so rates are constant within a
    call), debits each pair's remaining bytes, and stamps ``completed_at``
    on applications whose last flow finished within the segment.
    """
    flow_owner: Dict[str, Tuple[str, Tuple[str, str]]] = {}
    all_flows: List[VMFlow] = []
    for name, state in running.items():
        if state.done:
            continue
        for flow in state.live_flows(start=start):
            task_pair = tuple(flow.flow_id.split(":", 2)[2].split("->"))
            flow_owner[flow.flow_id] = (name, (task_pair[0], task_pair[1]))
            all_flows.append(flow)
    if not all_flows:
        return
    result = provider.simulate(all_flows, until=until)
    for flow in all_flows:
        name, pair = flow_owner[flow.flow_id]
        state = running[name]
        if flow.flow_id in result.completion_times:
            state.remaining[pair] = 0.0
        else:
            state.remaining[pair] = result.remaining_bytes.get(
                flow.flow_id, state.remaining[pair]
            )
    for name, state in running.items():
        if state.completed_at is None and state.done and not state.app.num_tasks == 0:
            finish_times = [
                result.completion_times[flow.flow_id]
                for flow in all_flows
                if flow_owner[flow.flow_id][0] == name
                and flow.flow_id in result.completion_times
            ]
            state.completed_at = max(finish_times, default=start)
