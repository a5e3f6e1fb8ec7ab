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
continue from the new placement).  :class:`LiveApp` is the one record of a
running application; the §6.3 sequence runner
(:mod:`repro.runtime.sequence`) keeps its applications in it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.estimator import estimate_completion_time
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer
from repro.net.fluid import FluidResult
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
        current.assignments, remaining_app, profile
    )
    candidate_estimate = estimate_completion_time(
        candidate.assignments, remaining_app, profile
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
    """The books of one application while it runs.

    ``remaining`` is the bytes each task pair still has to put on the
    network.  A pair whose endpoints share a VM moves its bytes off-network
    the moment a placement is set (booked in ``colocated``, as
    :func:`~repro.runtime.executor.placement_to_flows` books them), so an
    application is done — and gives its cores back — exactly when it has
    nothing left on the network.
    """

    app: Application
    placement: Placement
    started: float
    completed_at: Optional[float] = field(default=None, init=False)
    remaining: Dict[Tuple[str, str], float] = field(init=False)
    colocated: Dict[Tuple[str, str], float] = field(init=False)

    def __post_init__(self) -> None:
        self.remaining = {(s, d): v for s, d, v in self.app.transfers()}
        self.colocated = {}
        self.place(self.placement, self.started)

    def place(self, placement: Placement, now: float) -> None:
        """Move to ``placement`` at ``now`` (admission, migration, recovery)."""
        self.placement = placement
        machine_of = placement.machine_of
        for pair, volume in self.remaining.items():
            if volume > 0.0 and machine_of(pair[0]) == machine_of(pair[1]):
                self.colocated[pair] = self.colocated.get(pair, 0.0) + volume
                self.remaining[pair] = 0.0
        self.settle(now)

    def settle(self, now: float) -> None:
        """Stamp completion at ``now`` once no pair has bytes left."""
        if self.completed_at is None and all(
            volume <= 1e-6 for volume in self.remaining.values()
        ):
            self.completed_at = now

    @property
    def done(self) -> bool:
        return self.completed_at is not None

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

    def live_flows(self, start: float) -> List[Tuple[Tuple[str, str], VMFlow]]:
        """Each task pair with bytes left and the VM flow, starting at
        ``start``, that carries them under the current placement."""
        return [
            (
                pair,
                VMFlow(
                    flow_id=f"{self.app.name}:{index}",
                    src_vm=self.placement.machine_of(pair[0]),
                    dst_vm=self.placement.machine_of(pair[1]),
                    size_bytes=volume,
                    start_time=start,
                    tag=self.app.name,
                ),
            )
            for index, (pair, volume) in enumerate(sorted(self.remaining.items()))
            if volume > 1e-6
        ]


def live_background_flows(running: Dict[str, LiveApp], now: float) -> List[VMFlow]:
    """Every active application's remaining flows (cross traffic for
    measurements and admissions)."""
    return [
        flow
        for state in running.values()
        if not state.done
        for _, flow in state.live_flows(start=now)
    ]


def cluster_with_live_usage(
    cluster: ClusterState,
    running: Dict[str, LiveApp],
    exclude: Optional[str] = None,
) -> ClusterState:
    """``cluster`` with the CPU of active applications applied, optionally
    excluding one application (re-placing it must free its own cores).
    Cores held on a machine that has left ``cluster`` (a preempted VM whose
    applications still queue for re-placement) are not carried over."""
    known = set(cluster.machine_names())
    usage: Dict[str, float] = {}
    for name, state in running.items():
        if name == exclude or state.done:
            continue
        for machine, cores in state.placement.cpu_usage(state.app).items():
            if machine in known:
                usage[machine] = usage.get(machine, 0.0) + cores
    return cluster.with_usage(usage)


def advance_live_apps(
    provider: CloudProvider,
    running: Dict[str, LiveApp],
    start: float,
    until: Optional[float],
    background: Sequence[VMFlow] = (),
) -> Optional[FluidResult]:
    """Run every active application's remaining flows from ``start``.

    Simulates the flows on the provider's network (at the provider's
    *current* rates — callers segment time so rates are constant within a
    call) next to ``background`` (another tenant's flows, on their own start
    times), debits each pair's remaining bytes, and stamps ``completed_at``
    on applications whose last flow finished within the segment.  Returns
    the simulation (how far ``background`` got), ``None`` if nothing ran.
    """
    active = [
        (state, state.live_flows(start=start))
        for state in running.values()
        if not state.done
    ]
    all_flows = [flow for _, flows in active for _, flow in flows]
    all_flows.extend(background)
    if not all_flows:
        return None
    result = provider.simulate(all_flows, until=until)
    for state, flows in active:
        finished_at = start
        for pair, flow in flows:
            finish = result.completion_times.get(flow.flow_id)
            if finish is None:
                state.remaining[pair] = result.remaining_bytes[flow.flow_id]
            else:
                state.remaining[pair] = 0.0
                finished_at = max(finished_at, finish)
        state.settle(finished_at)
    return result
