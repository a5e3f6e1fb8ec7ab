"""Periodic re-evaluation and migration (paper §2.4).

Every ``T`` minutes Choreo re-evaluates its placement of the applications
that are still running and migrates tasks if a better placement exists; a
smaller ``T`` makes sense when migration is cheap.  The paper does not
evaluate this mechanism (its §6.3 results are explicitly *without*
re-evaluation), so this runner exists to (a) implement the mechanism the
paper describes and (b) drive our ablation bench on the re-evaluation
interval.

The simulation proceeds epoch by epoch: epochs are delimited by application
arrivals and re-evaluation ticks.  Within an epoch the current placements'
remaining transfers run on the fluid simulator; at a tick, each running
application's *remaining* traffic matrix is re-placed and, if the placement
changed and the estimated completion time improves by more than a threshold,
the application migrates (its remaining bytes continue from the new
placement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.estimator import estimate_completion_time
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer
from repro.errors import SimulationError
from repro.runtime.executor import ApplicationRun
from repro.runtime.sequence import SequenceResult
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
    ``None`` otherwise.  Shared by :class:`MigratingSequenceRunner` (clock
    ticks) and the online service's predictor-triggered re-evaluation
    (epoch boundaries, forecast profiles).
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

    Shared by the §2.4 :class:`MigratingSequenceRunner` and the online
    placement service: both track, per admitted application, its current
    placement and the bytes each task pair still has to move.
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


class MigratingSequenceRunner:
    """Sequential placement with periodic re-evaluation and migration."""

    def __init__(
        self,
        provider: CloudProvider,
        cluster: ClusterState,
        placer: Placer,
        reevaluation_interval_s: float = 600.0,
        improvement_threshold: float = 0.05,
        measurement: Optional[MeasurementPlan] = None,
        rate_model: str = "hose",
    ):
        if reevaluation_interval_s <= 0:
            raise SimulationError("reevaluation_interval_s must be positive")
        if not 0.0 <= improvement_threshold < 1.0:
            raise SimulationError("improvement_threshold must be in [0, 1)")
        self.provider = provider
        self.cluster = cluster
        self.placer = placer
        self.interval = reevaluation_interval_s
        self.improvement_threshold = improvement_threshold
        if measurement is None:
            measurement = MeasurementPlan(advance_clock=False)
        self.measurer = NetworkMeasurer(provider, plan=measurement)
        self.rate_model = rate_model
        self.migrations: List[MigrationEvent] = []

    # ------------------------------------------------------------------ run
    def run(self, apps: Sequence[Application]) -> SequenceResult:
        """Run the sequence with re-evaluation every ``interval`` seconds."""
        if not apps:
            raise SimulationError("run needs at least one application")
        ordered = sorted(apps, key=lambda a: (a.start_time, a.name))
        self.migrations = []

        running: Dict[str, LiveApp] = {}
        placements: Dict[str, Placement] = {}
        arrivals = {app.start_time for app in ordered}
        pending = list(ordered)
        now = min(arrivals)
        next_tick = now + self.interval

        # Admit applications arriving at the very first instant.
        pending = self._admit(pending, running, placements, now)

        safety = 0
        while pending or any(not state.done for state in running.values()):
            safety += 1
            if safety > 100_000:
                raise SimulationError("migration runner did not converge")
            next_arrival = pending[0].start_time if pending else math.inf
            active_exists = any(not state.done for state in running.values())
            tick = next_tick if active_exists else math.inf
            horizon = min(next_arrival, tick)

            if math.isinf(horizon):
                horizon = None  # run the remaining flows to completion
            advance_live_apps(self.provider, running, now, horizon)
            if horizon is None:
                break
            now = horizon

            if pending and now >= pending[0].start_time - 1e-9:
                pending = self._admit(pending, running, placements, now)
            if now >= next_tick - 1e-9:
                self._reevaluate(running, placements, now)
                next_tick = now + self.interval

        runs = {
            name: ApplicationRun(
                app_name=name,
                start_time=state.started,
                completion_time=(
                    state.completed_at if state.completed_at is not None else state.started
                ),
            )
            for name, state in running.items()
        }
        return SequenceResult(runs=runs, placements=placements)

    # ------------------------------------------------------------- internals
    def _admit(
        self,
        pending: List[Application],
        running: Dict[str, LiveApp],
        placements: Dict[str, Placement],
        now: float,
    ) -> List[Application]:
        """Place every pending application whose start time has arrived."""
        remaining_pending = list(pending)
        while remaining_pending and remaining_pending[0].start_time <= now + 1e-9:
            app = remaining_pending.pop(0)
            background = live_background_flows(running, now)
            cluster_now = cluster_with_live_usage(self.cluster, running)
            profile = self.measurer.measure(
                cluster_now.machine_names(), background=background
            )
            placement = self.placer.place(app, cluster_now, profile)
            placements[app.name] = placement
            running[app.name] = LiveApp(
                app=app,
                placement=placement,
                remaining={(s, d): v for s, d, v in app.transfers()},
                started=now,
            )
        return remaining_pending

    def _reevaluate(
        self,
        running: Dict[str, LiveApp],
        placements: Dict[str, Placement],
        now: float,
    ) -> None:
        """Re-place every running application's remaining traffic (§2.4)."""
        for name, state in running.items():
            if state.done:
                continue
            remaining_app = state.remaining_application()
            if remaining_app.total_bytes <= 0:
                continue
            background = live_background_flows(running, now, exclude=name)
            cluster_now = cluster_with_live_usage(
                self.cluster, running, exclude=name
            )
            profile = self.measurer.measure(
                cluster_now.machine_names(), background=background
            )
            proposal = propose_migration(
                self.placer,
                remaining_app,
                state.placement,
                cluster_now,
                profile,
                now=now,
                improvement_threshold=self.improvement_threshold,
                rate_model=self.rate_model,
            )
            if proposal is None:
                continue
            candidate, event = proposal
            self.migrations.append(event)
            state.placement = candidate
            placements[name] = candidate
