"""Periodic re-evaluation and migration (paper §2.4).

Every ``T`` minutes Choreo re-evaluates its placement of the applications
that are still running and migrates tasks if a better placement exists; a
smaller ``T`` makes sense when migration is cheap.  The paper does not
evaluate this mechanism (its §6.3 results are explicitly *without*
re-evaluation); this module holds the pieces of it the online placement
service (:mod:`repro.service.engine`) runs at every epoch boundary.

Time is cut into segments within which rates are constant.  The current
placements' remaining transfers run on one fluid simulation per session
(:class:`LiveNetwork`), paused at every segment boundary and resumed by
:func:`advance_live_apps`; at a re-evaluation, each running application's
*remaining* traffic matrix is re-placed and, if the placement changed and
the estimated completion time improves by more than
:data:`IMPROVEMENT_THRESHOLD`, the application migrates
(:func:`propose_migration`; its remaining bytes continue from the new
placement).  :class:`LiveApp` is the one record of a
running application, and :func:`live_book_violations` holds those records
to their invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.estimator import estimate_completion_time
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer
from repro.net.fluid import FluidResult, FluidSimulation
from repro.workloads.application import Application, Task, TrafficMatrix

Pair = Tuple[str, str]

#: The predicted completion-time gain a migration must exceed to be worth
#: its disruption.  Every pinned session digest was computed with it, so a
#: new value moves them all (docs/service.md has the measured sweep).
IMPROVEMENT_THRESHOLD = 0.1


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
) -> Optional[Tuple[Placement, MigrationEvent]]:
    """The §2.4 re-evaluation decision for one running application.

    Re-places the application's *remaining* traffic on ``cluster`` (which
    must exclude the application's own CPU) under ``profile`` and accepts
    the candidate only when its estimated completion time beats the current
    placement's by more than :data:`IMPROVEMENT_THRESHOLD`.

    Returns ``(new_placement, event)`` when the application should migrate,
    ``None`` otherwise; a skipped migration leaves a
    ``service.migration_skipped`` point while tracing.  The online service
    calls it at epoch boundaries, with the profile it measured there.
    """
    candidate = placer.place(remaining_app, cluster, profile)
    gain: Optional[float] = None  # no move to price
    if candidate.assignments != current.assignments:
        current_estimate = estimate_completion_time(
            current.assignments, remaining_app, profile
        )
        if current_estimate > 0:
            candidate_estimate = estimate_completion_time(
                candidate.assignments, remaining_app, profile
            )
            gain = (current_estimate - candidate_estimate) / current_estimate
    if gain is None or gain <= IMPROVEMENT_THRESHOLD:
        obs.point(
            "service.migration_skipped", app=remaining_app.name,
            predicted_gain=gain, improvement_threshold=IMPROVEMENT_THRESHOLD,
        )
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


class LiveNetwork:
    """The one fluid simulation a session's live applications share.

    Built once per service session; :func:`advance_live_apps` keeps it in
    step with the books and runs it from pause to pause.  The provider's VM
    set must not change meanwhile: the simulation has one hose link per VM
    it had.

    ``background`` is another tenant's flows, registered before any of the
    session's own.  They load the network the session runs on, but no
    application owns them: ``other`` holds, per flow id, each one that has
    not finished, with the bytes it has left after the last run.

    ``sent[app, pair]`` is what the simulation reported delivered for a
    task pair so far — the bytes each of its flows had left when it was
    registered, minus what each had left after every run since.
    """

    def __init__(self, provider: CloudProvider, background: Sequence[VMFlow] = ()):
        self.provider = provider
        # The hose capacities the simulation holds, as of ``built_at``.
        self.hose = provider.hose_capacities()
        self.built_at = provider.now
        self.simulation = FluidSimulation(provider.topology, extra_capacities=self.hose)
        provider.add_flows(self.simulation, background)
        self.other: Dict[str, VMFlow] = {flow.flow_id: flow for flow in background}
        self.sent: Dict[Tuple[str, Pair], float] = {}
        # Per application with flows in the simulation: its record, the
        # placement the flows were routed for, and per flow id the task
        # pair and the bytes the flow had left at the last pause.
        self.registered: Dict[
            str, Tuple[LiveApp, Placement, Dict[str, Tuple[Pair, float]]]
        ] = {}
        # Applications registered, or found done, since they last moved (a
        # done application stays done).
        self.seen: Set[str] = set()

    def campaign_background(self, running: Dict[str, LiveApp], now: float) -> List[VMFlow]:
        """What a campaign at ``now`` sees as cross traffic: the other
        tenant's flows that have started and not finished, then every
        active application's remaining flows."""
        return [
            *(flow for flow in self.other.values() if flow.start_time <= now),
            *live_background_flows(running, now),
        ]


def advance_live_apps(
    network: LiveNetwork,
    running: Dict[str, LiveApp],
    start: float,
    until: Optional[float],
) -> Optional[FluidResult]:
    """Run the session's simulation from the pause at ``start`` to ``until``.

    First the simulation is reconciled with the books: an application that
    left ``running``, or whose placement changed since its flows were
    registered (a migration, a recovery), has them withdrawn; one not done
    and without flows registers its :meth:`LiveApp.live_flows`, starting at
    ``start``; hose capacities that drifted since the last run are pushed
    (the provider's *current* rates hold for the whole call — callers
    segment time so they are constant within it).  The run then debits each
    pair's remaining bytes and stamps ``completed_at`` on applications whose
    last flow finished; finished pairs leave the simulation, and the other
    tenant's flows update :attr:`LiveNetwork.other`.  Every pause
    ends exactly where a fresh simulation of the same flows, restarted at
    ``start`` with the bytes they had left, would.  Returns the run,
    ``None`` if nothing was live.
    """
    sim = network.simulation
    registered = network.registered
    stale = [
        name
        for name, (state, placement, _) in registered.items()
        if running.get(name) is not state or state.placement is not placement
    ]
    for name in stale:
        sim.withdraw_flows(registered.pop(name)[2])
        network.seen.discard(name)
    new: List[VMFlow] = []
    for name in sorted(running.keys() - network.seen):
        network.seen.add(name)
        state = running[name]
        if state.done:
            continue
        flows = state.live_flows(start=start)
        registered[name] = (
            state,
            state.placement,
            {flow.flow_id: (pair, flow.size_bytes) for pair, flow in flows},
        )
        new.extend(flow for _, flow in flows)
    network.provider.add_flows(sim, new)
    if sim.idle:
        return None
    if network.provider.now != network.built_at:
        # Only a hose a live flow crosses bears on a rate, so only the
        # senders' are read; a VM's is brought up to date when a flow of it
        # registers.  (No hose drifts before the clock moves.)
        senders: Dict[str, None] = dict.fromkeys(
            flow.src_vm for flow in network.other.values()
        )
        for _, placement, flows in registered.values():
            for (src, _), _ in flows.values():
                senders[placement.machine_of(src)] = None
        drifted = {
            link: cap
            for link, cap in network.provider.hose_capacities(senders).items()
            if network.hose.get(link) != cap
        }
        if drifted:
            sim.update_extra_capacities(drifted)
            network.hose.update(drifted)

    result = sim.run(until=until)
    completion, left = result.completion_times, result.remaining_bytes
    other = network.other
    for flow_id in list(other):
        if flow_id in completion:
            del other[flow_id]
        else:
            other[flow_id] = replace(other[flow_id], size_bytes=left[flow_id])
    for name, (state, _, flows) in list(registered.items()):
        finished_at = start
        for flow_id, (pair, before) in list(flows.items()):
            finish = completion.get(flow_id)
            after = left[flow_id] if finish is None else 0.0
            key = (name, pair)
            network.sent[key] = network.sent.get(key, 0.0) + (before - after)
            state.remaining[pair] = after
            if finish is None:
                flows[flow_id] = (pair, after)
            else:
                finished_at = max(finished_at, finish)
                del flows[flow_id]
        state.settle(finished_at)
        if not flows:
            del registered[name]
    return result


def live_book_violations(
    cluster: ClusterState,
    running: Dict[str, LiveApp],
    sent: Dict[Tuple[str, Pair], float],
) -> List[str]:
    """Ways the live-application books are wrong (empty: none).

    No machine has more cores held than it has; an application holds cores
    exactly while it has bytes in flight, and reading its flows changes
    neither; per task pair the bytes the network carried (``sent[app,
    pair]``: what the simulation reported delivered, see
    :class:`LiveNetwork`), the bytes still to move and the bytes colocation
    took off the network add up to the traffic-matrix entry — to 1e-6 B, or
    to a part in 1e12 where a double is coarser than that (its ulp at 13 GB
    is 1.9e-6 B).
    """
    free = cluster_with_live_usage(cluster, running).available_cpus()
    problems = [
        f"{machine}: {-cores!r} core(s) more held than it has"
        for machine, cores in free.items()
        if cores < -1e-9
    ]
    for name, state in running.items():
        before = state.done, dict(state.remaining), dict(state.colocated)
        in_flight = state.live_flows(start=0.0)
        if before != (state.done, state.remaining, state.colocated):
            problems.append(f"{name}: live_flows() changed the books")
        if state.done == bool(in_flight):
            problems.append(f"{name}: done={state.done} with {len(in_flight)} flow(s)")
        for src, dst, entry in state.app.transfers():
            pair = (src, dst)
            parts = (
                sent.get((name, pair), 0.0),
                state.remaining[pair],
                state.colocated.get(pair, 0.0),
            )
            if min(parts) < 0.0 or abs(sum(parts) - entry) > max(1e-6, 1e-12 * entry):
                problems.append(
                    f"{name} {src}->{dst}: sent, remaining, colocated = "
                    f"{parts!r} do not add up to {entry!r}"
                )
    return problems
