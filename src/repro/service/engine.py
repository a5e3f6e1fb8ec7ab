"""The online placement service (the system §2 describes, run for real).

:class:`PlacementService` admits a *stream* of applications onto a cloud
whose ground truth drifts epoch by epoch (see
:mod:`repro.service.timeline`).  Per epoch it:

1. refreshes the measurement cache — only pairs whose TTL expired are
   re-probed (:mod:`repro.service.cache`) — which is the epoch's placement
   profile: Choreo measures, then places (§3);
2. re-evaluates every running application against that profile and
   migrates it when the predicted gain clears
   :data:`repro.runtime.migration.IMPROVEMENT_THRESHOLD`
   (:func:`repro.runtime.migration.propose_migration`).

Arrivals are admitted against a refresh taken as they land; an
application that cannot be placed (CPU exhausted) is *rejected* and the
stream continues — the service is long-running, one infeasible arrival must
not sink the session.  Without migration and with a TTL below the arrival
gaps, this is the §6.3 arrival loop: each application is placed against a
measurement taken under the load of those still running.  A placer that
reads no profile (:attr:`~repro.core.placement.base.Placer.needs_profile`)
gets none then: with nothing to migrate, the session measures nothing and
builds no measurement cache.

Two control predictors bound the ``measured`` one: ``stale`` places every
application against the frozen hour-0 profile (what an offline evaluator
implicitly does — and measures nothing after bootstrap), and ``oracle``
reads the true current rates straight off the provider, the regret
reference, and builds no cache either.  The cache's refresh is the one way
a session measures: the bootstrap is its refresh at t = 0, when every pair
is stale.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cloud.provider import CloudProvider
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placer, cpu_shortfall
from repro.errors import ReproError, ServiceError
from repro.net.flows import Flow
from repro.runtime.migration import (
    LiveApp,
    LiveNetwork,
    MigrationEvent,
    advance_live_apps,
    cluster_with_live_usage,
    propose_migration,
)
from repro.service.cache import CacheStats, MeasurementCache
from repro.service.timeline import (
    DEFAULT_EPOCH_S,
    FaultEvent,
    LinkDegradation,
    ProbeLoss,
    VmPreemption,
)
from repro.workloads.application import Application

logger = logging.getLogger("repro.service.engine")

#: Service counters (``obs.metrics.snapshot()`` under ``repro.service.*``).
_ADMISSIONS = obs.Counter("repro.service.admissions")
_REJECTIONS = obs.Counter("repro.service.rejections")
_MIGRATIONS = obs.Counter("repro.service.migrations")
_RECOVERIES = obs.Counter("repro.service.recoveries")
_EPOCH_TICKS = obs.Counter("repro.service.epoch_ticks")

#: Every predictor a session accepts: the cache's measured profile, then
#: its two controls.
PREDICTOR_NAMES: Tuple[str, ...] = ("measured", "stale", "oracle")

#: Every session's campaign plan: the default packet trains, and the clock
#: left where it is (the report accounts measurement time).
_CAMPAIGN_PLAN = MeasurementPlan(advance_clock=False)


@dataclass
class AppOutcome:
    """What happened to one application that hit the admission stream."""

    name: str
    status: str  # "completed" or "rejected"
    arrived_at: float
    completed_at: Optional[float] = None
    migrations: int = 0
    #: Forced re-placements the self-healing loop applied (VM preemptions).
    recoveries: int = 0
    error: Optional[str] = None

    @property
    def duration(self) -> Optional[float]:
        """Admission-to-completion time (``None`` for rejected apps)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrived_at

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "arrived_at": round(self.arrived_at, 6),
            "completed_at": (
                round(self.completed_at, 6) if self.completed_at is not None else None
            ),
            "duration_s": (
                round(self.duration, 6) if self.duration is not None else None
            ),
            "migrations": self.migrations,
            "recoveries": self.recoveries,
            "error": self.error,
        }


@dataclass(frozen=True)
class RecoveryAction:
    """One healing step the service took in response to a fault event.

    ``latency_s`` — the time between the fault taking effect and the
    service acting on it — is the recovery-latency metric; the service
    only observes faults at epoch boundaries, so it is bounded by the
    epoch length.
    """

    time_s: float  # when the service acted (an epoch boundary)
    event_time_s: float  # when the fault took effect
    epoch: int
    kind: str  # "vm-preemption" | "link-degradation" | "probe-loss"
    target: str  # VM name, or "src->dst" for probe loss
    action: str  # "re-placed" | "re-measured" | "degraded-coast" | "rejected"
    apps: Tuple[str, ...] = ()

    @property
    def latency_s(self) -> float:
        return self.time_s - self.event_time_s

    def to_json_dict(self) -> dict:
        return {
            "time_s": round(self.time_s, 6),
            "event_time_s": round(self.event_time_s, 6),
            "latency_s": round(self.latency_s, 6),
            "epoch": self.epoch,
            "kind": self.kind,
            "target": self.target,
            "action": self.action,
            "apps": list(self.apps),
        }


@dataclass
class ServiceReport:
    """Outcome of one churn session."""

    predictor: str
    placer: str
    hours: float
    epoch_s: float
    ttl_s: float
    drift: str
    apps: List[AppOutcome] = field(default_factory=list)
    migrations: List[MigrationEvent] = field(default_factory=list)
    recovery: List[RecoveryAction] = field(default_factory=list)
    measurement: Dict[str, object] = field(default_factory=dict)
    #: Host wall clock of the whole session / of measurement+placement only
    #: (bootstrap, epoch ticks and fault handling) / of the admissions
    #: (measuring and placing each arriving application).  The last one
    #: reaches the JSON only inside ``telemetry``: the top-level keys are
    #: what the pinned session digests hash.
    session_wall_s: float = 0.0
    placement_wall_s: float = 0.0
    admission_wall_s: float = 0.0
    #: Optional observability block (``run_session(..., telemetry=True)``):
    #: a metrics snapshot plus wall clocks.  Host-specific and therefore
    #: excluded from :meth:`canonical_json_dict`, so bit-identity checks
    #: and caching never see it.
    telemetry: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------ aggregates
    def completed(self) -> List[AppOutcome]:
        return [a for a in self.apps if a.status == "completed"]

    def rejected(self) -> List[AppOutcome]:
        return [a for a in self.apps if a.status == "rejected"]

    @property
    def mean_completion_time_s(self) -> float:
        """Mean admission-to-completion time over completed applications."""
        done = self.completed()
        if not done:
            raise ServiceError("no application completed in this session")
        return sum(a.duration for a in done) / len(done)

    @property
    def total_completion_time_s(self) -> float:
        return sum(a.duration for a in self.completed())

    # ------------------------------------------------------------------ JSON
    def to_json_dict(self) -> dict:
        done = self.completed()
        return {
            "schema": "repro.service/report/v1",
            "predictor": self.predictor,
            "placer": self.placer,
            "hours": self.hours,
            "epoch_s": self.epoch_s,
            "ttl_s": self.ttl_s,
            "drift": self.drift,
            "apps": [a.to_json_dict() for a in self.apps],
            "n_admitted": len(self.apps) - len(self.rejected()),
            "n_completed": len(done),
            "n_rejected": len(self.rejected()),
            "mean_completion_time_s": (
                round(self.mean_completion_time_s, 6) if done else None
            ),
            "total_completion_time_s": round(self.total_completion_time_s, 6),
            "migrations": [
                {
                    "time_s": round(event.time_s, 6),
                    "app": event.app_name,
                    "moved_tasks": list(event.moved_tasks),
                    "estimated_gain_fraction": round(
                        event.estimated_gain_fraction, 6
                    ),
                }
                for event in self.migrations
            ],
            "recovery": [action.to_json_dict() for action in self.recovery],
            "measurement": dict(self.measurement),
            "session_wall_s": round(self.session_wall_s, 6),
            "placement_wall_s": round(self.placement_wall_s, 6),
            **(
                {"telemetry": dict(self.telemetry)}
                if self.telemetry is not None
                else {}
            ),
        }

    def canonical_json_dict(self) -> dict:
        """:meth:`to_json_dict` with host wall clock zeroed.

        Everything else is a deterministic function of (provider seed,
        timeline, arrival stream, predictor, placer) — the determinism the
        CI service smoke job asserts.  The optional ``telemetry`` block
        carries host timings and process-wide counters, so it is dropped
        entirely.
        """
        payload = self.to_json_dict()
        payload["session_wall_s"] = 0.0
        payload["placement_wall_s"] = 0.0
        payload.pop("telemetry", None)
        return payload


def report_violations(report: ServiceReport) -> List[str]:
    """Ways a session's report contradicts itself (empty: none).

    A completed application completes no earlier than it arrived; a
    rejected one has no completion time, migrations or recoveries; the
    migration and the recovery records each come in nondecreasing time;
    and no recovery acts before its fault took effect.
    """
    problems = []
    for app in report.apps:
        if app.status == "completed":
            if app.completed_at is None or not app.completed_at >= app.arrived_at:
                problems.append(
                    f"{app.name}: completed at {app.completed_at!r}, "
                    f"arrived at {app.arrived_at!r}"
                )
        elif app.completed_at is not None or app.migrations or app.recoveries:
            problems.append(
                f"{app.name}: rejected, yet completed at {app.completed_at!r} "
                f"with {app.migrations} migration(s) and "
                f"{app.recoveries} recovery(ies)"
            )
    for what, times in (
        ("migration", [event.time_s for event in report.migrations]),
        ("recovery", [action.time_s for action in report.recovery]),
    ):
        problems.extend(
            f"a {what} at {later!r} s follows one at {earlier!r} s"
            for earlier, later in zip(times, times[1:])
            if not later >= earlier
        )
    problems.extend(
        f"recovery on {action.target} acted {-action.latency_s!r} s before "
        f"its fault took effect"
        for action in report.recovery
        if not action.latency_s >= 0
    )
    return problems


def validate_predictor(name: str) -> str:
    """Return ``name`` if it is a known predictor, raise otherwise."""
    if name not in PREDICTOR_NAMES:
        raise ServiceError(
            f"unknown predictor {name!r}; known: {list(PREDICTOR_NAMES)} (the "
            f"§6.1 history predictors forecast an application's bytes, not "
            f"the network: repro.workloads.predictability.evaluate_predictability)"
        )
    return name


class PlacementService:
    """Streaming admission + predictor-driven placement over a drifting net.

    Args:
        provider: the cloud (usually with a timeline attached via
            :func:`repro.service.timeline.attach_timeline`).
        cluster: the tenant's machines.
        placer: the placement algorithm for admissions and migrations.
        predictor: one of :data:`PREDICTOR_NAMES`.
        ttl_s: measurement-cache TTL; the default of half an epoch makes
            the epoch tick re-probe the mesh while admissions shortly after
            a tick reuse it.
        migrate: re-evaluate running applications at epoch ticks (§2.4).

    The measurement epoch is the attached timeline's (an hour
    without one).  Campaigns use the default packet-train plan without
    advancing the provider clock: the service accounts measurement time
    itself, in the report.
    """

    def __init__(
        self,
        provider: CloudProvider,
        cluster: ClusterState,
        placer: Placer,
        predictor: str = "measured",
        ttl_s: Optional[float] = None,
        migrate: bool = True,
    ):
        self.provider = provider
        self.cluster = cluster
        self.placer = placer
        # ``churn_day`` in benchmark/workloads.py still passes ``combined``,
        # the measured predictor's name from when a forecast replaced its
        # rates; no other caller may.
        self.predictor = validate_predictor(
            "measured" if predictor == "combined" else predictor
        )
        timeline = provider.timeline
        self.epoch_s = float(
            timeline.epoch_s if timeline is not None else DEFAULT_EPOCH_S
        )
        self.ttl_s = float(ttl_s) if ttl_s is not None else self.epoch_s / 2.0
        if not self.ttl_s > 0:
            raise ServiceError("ttl_s must be positive")
        self.migrate = migrate
        #: A placer that reads no profile needs no campaign, and nor does
        #: the session then: migration is what would price one.
        self._measures = placer.needs_profile or migrate
        #: The session's measurements, ``None`` where it takes none: it reads
        #: no profile, or the oracle reads the truth instead.
        self.cache: Optional[MeasurementCache] = None
        if self._measures and self.predictor != "oracle":
            self.cache = MeasurementCache(
                NetworkMeasurer(provider, plan=_CAMPAIGN_PLAN),
                cluster.machine_names(), ttl_s=self.ttl_s,
            )
        self._migrations: List[MigrationEvent] = []
        self._recovery: List[RecoveryAction] = []
        #: The books of every application the last session ran to the end
        #: (post-migration placements included), keyed by application name.
        self.last_apps: Dict[str, LiveApp] = {}
        #: The running session's live network.
        self._network: Optional[LiveNetwork] = None

    # -------------------------------------------------------------- session
    def run_session(
        self, apps: Sequence[Application], hours: float,
        telemetry: bool = False, background: Sequence[Flow] = (),
    ) -> ServiceReport:
        """Admit ``apps`` as they arrive over ``hours`` epochs of service.

        Arrivals must land within the session (``start_time < hours *
        epoch_s``); transfers still in flight at the horizon drain to
        completion (the network keeps drifting, the service just stops
        measuring and migrating).

        ``background`` is another tenant's flows.  They share the session's
        network from their start times, registered before the tenant's own
        flows, and every campaign (the bootstrap included) sees what they
        still have left to send as cross traffic.  The tenant does not own
        them: they are no application of the report, hold no cores and
        count in no application's bytes, and the session ends when the
        tenant's applications do, whatever they have left.

        With ``telemetry=True`` the report carries a ``telemetry`` block
        (a process-wide :func:`repro.obs.metrics.snapshot` plus wall
        clocks).  It is opt-in because it is host-specific; canonical
        forms drop it either way.
        """
        if not apps:
            raise ServiceError("a session needs at least one application")
        if not hours > 0:
            raise ServiceError("hours must be positive")
        if self.provider.now != 0.0:
            raise ServiceError(
                "run_session expects a fresh provider (clock at zero)"
            )
        ordered = sorted(apps, key=lambda a: (a.start_time, a.name))
        names = {app.name for app in ordered}
        if len(names) != len(ordered):
            raise ServiceError("applications in a session must have unique names")
        horizon = hours * self.epoch_s
        if ordered and ordered[-1].start_time >= horizon:
            raise ServiceError(
                f"arrival at {ordered[-1].start_time:.0f}s is past the "
                f"session horizon of {horizon:.0f}s"
            )

        logger.info(
            "session: %d app(s) over %.1f epoch(s) of %.0fs, predictor=%s",
            len(ordered), hours, self.epoch_s, self.predictor,
        )
        with obs.span(
            "service.session",
            apps=len(ordered), hours=hours, predictor=self.predictor,
        ):
            report = self._session_loop(ordered, hours, horizon, background)
        if telemetry:
            report.telemetry = {
                "metrics": obs.metrics.snapshot(),
                "session_wall_s": round(report.session_wall_s, 6),
                "placement_wall_s": round(report.placement_wall_s, 6),
                "admission_wall_s": round(report.admission_wall_s, 6),
                "trace_path": obs.trace_path(),
            }
        logger.info(
            "session: %d completed, %d rejected, %d migration(s), "
            "%d recovery action(s) in %.2fs",
            len(report.completed()), len(report.rejected()),
            len(report.migrations), len(report.recovery),
            report.session_wall_s,
        )
        return report

    def _session_loop(
        self, ordered: List[Application], hours: float, horizon: float,
        background: Sequence[Flow],
    ) -> ServiceReport:
        """The session body (see :meth:`run_session`, which spans it)."""
        # The service consumes the timeline's fault events at epoch
        # boundaries and heals.
        timeline = self.provider.timeline
        session_started = time.perf_counter()
        report = ServiceReport(
            predictor=self.predictor,
            placer=getattr(self.placer, "name", type(self.placer).__name__),
            hours=hours,
            epoch_s=self.epoch_s,
            ttl_s=self.ttl_s,
            drift=(
                timeline.drift
                if timeline is not None and timeline.hose_epochs
                else "provider-ou"
            ),
        )

        running: Dict[str, LiveApp] = {}
        network = self._network = LiveNetwork(self.provider, background)
        outcomes: Dict[str, AppOutcome] = {}
        self._migrations: List[MigrationEvent] = []
        self._recovery: List[RecoveryAction] = []
        pending = list(ordered)
        now = 0.0
        epoch = 0
        placement_wall = admission_wall = 0.0
        #: Fault events with effect times <= this have been handled.
        fault_watermark = 0.0
        have_faults = timeline is not None and bool(timeline.events)

        # Epoch-0 bootstrap: every pair is stale, so the refresh is the
        # classic measure-then-place full mesh.
        if self.cache is not None:
            place_started = time.perf_counter()
            self.cache.refresh(
                now, background=network.campaign_background(running, now)
            )
            placement_wall += time.perf_counter() - place_started

        pending, spent = self._admit_due(pending, running, outcomes, now)
        admission_wall += spent

        safety = 0
        while pending or any(not s.done for s in running.values()):
            safety += 1
            if safety > 100_000:
                raise ServiceError("service session did not converge")
            next_arrival = pending[0].start_time if pending else math.inf
            next_boundary = (epoch + 1) * self.epoch_s
            rates_frozen = (
                timeline is None or epoch >= timeline.n_epochs - 1
            ) and now >= horizon
            faults_pending = have_faults and timeline.pending_after(
                fault_watermark
            )
            if rates_frozen and math.isinf(next_arrival) and not faults_pending:
                # No more drift, arrivals, or faults: drain in one pass.
                advance_live_apps(network, running, now, until=None)
                break
            target = min(next_arrival, next_boundary)
            advance_live_apps(network, running, now, until=target)
            if not (pending or have_faults or target < horizon - 1e-9) and all(
                state.done for state in running.values()
            ):
                break  # nothing left to run, admit, heal or measure
            self.provider.advance_time(target - now)
            now = target

            if now >= next_boundary - 1e-9:
                epoch += 1
                if have_faults:
                    # Heal at *every* boundary — including past the horizon,
                    # where a late preemption would otherwise stall the drain.
                    events = timeline.events_between(fault_watermark, now)
                    fault_watermark = now
                    if events:
                        place_started = time.perf_counter()
                        self._handle_fault_events(
                            events, running, outcomes, now, epoch
                        )
                        placement_wall += time.perf_counter() - place_started
                if now < horizon - 1e-9:
                    place_started = time.perf_counter()
                    self._epoch_tick(running, outcomes, now, epoch)
                    placement_wall += time.perf_counter() - place_started
            pending, spent = self._admit_due(pending, running, outcomes, now)
            admission_wall += spent

        for name, state in running.items():
            outcomes[name].completed_at = state.completed_at
        self.last_apps = dict(running)
        report.apps = [outcomes[app.name] for app in ordered]
        report.migrations = list(self._migrations)
        report.recovery = list(self._recovery)
        report.measurement = (
            self.cache.stats if self.cache is not None else CacheStats()
        ).to_json_dict()
        report.placement_wall_s = placement_wall
        report.admission_wall_s = admission_wall
        report.session_wall_s = time.perf_counter() - session_started
        return report

    # ------------------------------------------------------------ internals
    def _handle_fault_events(
        self,
        events: Sequence[FaultEvent],
        running: Dict[str, LiveApp],
        outcomes: Dict[str, AppOutcome],
        now: float,
        epoch: int,
    ) -> None:
        """React to the fault events that took effect since the last check."""
        with obs.span("service.recover", epoch=epoch, events=len(events)):
            self._handle_fault_events_inner(
                events, running, outcomes, now, epoch
            )

    def _handle_fault_events_inner(
        self,
        events: Sequence[FaultEvent],
        running: Dict[str, LiveApp],
        outcomes: Dict[str, AppOutcome],
        now: float,
        epoch: int,
    ) -> None:
        for event in events:
            if isinstance(event, VmPreemption):
                self._recover_preemption(event, running, outcomes, now, epoch)
            elif isinstance(event, LinkDegradation):
                self._recover_degradation(event, running, now, epoch)
            elif isinstance(event, ProbeLoss):
                # The measurement layer already absorbed this (retry, then
                # the cached rate or the floor); record that the service
                # coasted.
                self._record_recovery(
                    RecoveryAction(
                        time_s=now,
                        event_time_s=event.effect_time_s,
                        epoch=epoch,
                        kind="probe-loss",
                        target=f"{event.src}->{event.dst}",
                        action="degraded-coast",
                    ),
                    event,
                )

    def _record_recovery(self, action: RecoveryAction, event: FaultEvent) -> None:
        """Append a healing step taken for ``event``, counting and logging it."""
        self._recovery.append(action)
        _RECOVERIES.inc()
        logger.info(
            "epoch %d: %s on %s -> %s (latency %.0fs%s)",
            action.epoch, action.kind, action.target, action.action,
            action.latency_s,
            f", apps: {', '.join(action.apps)}" if action.apps else "",
        )
        events = self.provider.timeline.events
        obs.point(
            "service.recovery", kind=action.kind, target=action.target,
            action=action.action, epoch=action.epoch,
            fault=next(i for i, known in enumerate(events) if known is event),
            event_time_s=action.event_time_s, latency_s=action.latency_s,
            apps=list(action.apps),
        )

    def _apps_on_vm(self, running: Dict[str, LiveApp], vm: str) -> List[str]:
        """Running (not-done) applications with at least one task on ``vm``."""
        return sorted(
            name
            for name, state in running.items()
            if not state.done and vm in state.placement.assignments.values()
        )

    def _recover_preemption(
        self,
        event: VmPreemption,
        running: Dict[str, LiveApp],
        outcomes: Dict[str, AppOutcome],
        now: float,
        epoch: int,
    ) -> None:
        """Remove a preempted VM and re-place the apps it carried."""
        vm = event.vm
        if vm not in self.cluster.machine_names():
            return  # already removed (duplicate event)
        affected = self._apps_on_vm(running, vm)
        survivors = [m for m in self.cluster.machines if m.name != vm]
        if len(survivors) < 2:
            # Too few VMs left to re-place or even measure: coast and hope.
            self._record_recovery(
                RecoveryAction(
                    time_s=now, event_time_s=event.time_s, epoch=epoch,
                    kind="vm-preemption", target=vm,
                    action="degraded-coast", apps=tuple(affected),
                ),
                event,
            )
            return
        self.cluster = ClusterState(
            machines=survivors,
            cpu_used={
                k: v for k, v in self.cluster.cpu_used.items() if k != vm
            },
        )
        if self.cache is not None and vm in self.cache.vms:
            self.cache.remove_vm(vm)
        replaced: List[str] = []
        rejected: List[str] = []
        for name in affected:
            state = running[name]
            remaining_app = state.remaining_application()
            try:
                placement = self.placer.place(
                    remaining_app,
                    cluster_with_live_usage(self.cluster, running, exclude=name),
                    self._placement_profile(now),
                )
            except ReproError as exc:
                # Cannot re-place the survivor tasks: the app fails
                # gracefully instead of stalling the session forever.
                del running[name]
                outcomes[name].status = "rejected"
                outcomes[name].completed_at = None
                outcomes[name].error = (
                    f"VM {vm} preempted at t={event.time_s:.0f}s and the "
                    f"remainder could not be re-placed: "
                    f"{type(exc).__name__}: {exc}"
                )
                rejected.append(name)
                continue
            state.place(placement, now)
            outcomes[name].recoveries += 1
            replaced.append(name)
        self._record_recovery(
            RecoveryAction(
                time_s=now, event_time_s=event.time_s, epoch=epoch,
                kind="vm-preemption", target=vm,
                # A preempted VM with nothing re-placeable on it still
                # records the removal, just not as a re-placement.
                action="re-placed" if replaced else "removed",
                apps=tuple(replaced),
            ),
            event,
        )
        if rejected:
            self._record_recovery(
                RecoveryAction(
                    time_s=now, event_time_s=event.time_s, epoch=epoch,
                    kind="vm-preemption", target=vm,
                    action="rejected", apps=tuple(rejected),
                ),
                event,
            )

    def _recover_degradation(
        self,
        event: LinkDegradation,
        running: Dict[str, LiveApp],
        now: float,
        epoch: int,
    ) -> None:
        """Invalidate cached pairs touching a degraded VM (targeted
        re-measurement at the next refresh); a session that never refreshes
        after its bootstrap (``stale``, ``oracle``, or one that measures
        nothing) coasts on what it has."""
        vm = event.vm
        affected = self._apps_on_vm(running, vm)
        if (
            self.predictor == "measured" and self.cache is not None
            and vm in self.cache.vms
        ):
            self.cache.invalidate_vm(vm)
            action = "re-measured"
        else:
            action = "degraded-coast"
        self._record_recovery(
            RecoveryAction(
                time_s=now, event_time_s=event.start_s, epoch=epoch,
                kind="link-degradation", target=vm,
                action=action, apps=tuple(affected),
            ),
            event,
        )

    def _placement_profile(
        self, now: float, running: Optional[Dict[str, LiveApp]] = None,
    ) -> Optional[NetworkProfile]:
        """The profile a decision at ``now`` is made against.

        Admissions and migrations pass the ``running`` applications: the
        ``measured`` session then refreshes the cache, with their traffic
        as the campaign's cross traffic, and places on what it measured.
        One profile serves every decision made at an instant:
        the TTL cache means a second refresh within the TTL returns the
        same rates anyway, so per-decision re-probing (with, say, per-app
        background exclusion) would only make the *first* decision of a
        tick special — the running apps' own traffic is part of what the
        campaign sees, for every app alike, exactly as the paper's
        measure-under-load admission does.  Both sides of every migration
        comparison are priced on this same profile, so the
        self-interference bias cancels in the gain.

        A re-placement after a preemption passes no ``running`` and reads
        the cache's last-known view *without probing* — recovery must work
        even past the measurement horizon, and the affected VM's pairs are
        already gone from the mesh by the time it is called.  ``stale`` always
        reads that frozen view (its bootstrap mesh, never refreshed), and
        the ``oracle`` the true rates.  A session that measures nothing has
        no profile.
        """
        if not self._measures:
            return None
        if self.predictor == "oracle":
            names = self.cluster.machine_names()
            return NetworkProfile(names, self.provider.true_path_rates(names))
        if self.predictor == "stale" or running is None:
            return self.cache.profile(now)
        return self.cache.refresh(
            now, background=self._network.campaign_background(running, now)
        )

    def _epoch_tick(
        self,
        running: Dict[str, LiveApp],
        outcomes: Dict[str, AppOutcome],
        now: float,
        epoch: int,
    ) -> None:
        """Refresh the mesh and re-evaluate placements."""
        _EPOCH_TICKS.inc()
        with obs.span(
            "service.epoch", epoch=epoch, running=len(running)
        ):
            self._epoch_tick_inner(running, outcomes, now, epoch)

    def _epoch_tick_inner(
        self,
        running: Dict[str, LiveApp],
        outcomes: Dict[str, AppOutcome],
        now: float,
        epoch: int,
    ) -> None:
        if not self._measures:
            return  # nothing observed, nothing to re-evaluate
        if not self.migrate:
            # Measure all the same: with and without migration, a session
            # then probes at the same instants, so §2.4's comparison of the
            # two differs in migration alone.
            if self.predictor == "measured":
                self.cache.refresh(
                    now, background=self._network.campaign_background(running, now)
                )
            return
        # One refresh per tick, shared by every migration decision below
        # (see _placement_profile for why).
        profile = self._placement_profile(now, running)
        for name in sorted(running):
            state = running[name]
            if state.done:
                continue
            remaining_app = state.remaining_application()
            try:
                proposal = propose_migration(
                    self.placer,
                    remaining_app,
                    state.placement,
                    cluster_with_live_usage(self.cluster, running, exclude=name),
                    profile,
                    now=now,
                )
            except ReproError:
                # A placer that cannot re-place the remainder (e.g. CPU
                # packing dead-end) simply keeps the current placement.
                continue
            if proposal is None:
                continue
            placement, event = proposal
            state.place(placement, now)
            outcomes[name].migrations += 1
            self._migrations.append(event)
            _MIGRATIONS.inc()
            logger.info(
                "epoch %d: migrated %s (%d task(s), predicted gain %.1f%%)",
                epoch, name, len(event.moved_tasks),
                100.0 * event.estimated_gain_fraction,
            )

    def _admit_due(
        self,
        pending: List[Application],
        running: Dict[str, LiveApp],
        outcomes: Dict[str, AppOutcome],
        now: float,
    ) -> Tuple[List[Application], float]:
        """Place every pending application whose arrival time has come.

        Returns the applications still pending and the host seconds spent
        measuring and placing the ones admitted or rejected.
        """
        remaining_pending = list(pending)
        spent = 0.0
        while remaining_pending and remaining_pending[0].start_time <= now + 1e-9:
            app = remaining_pending.pop(0)
            started = time.perf_counter()
            profile = self._placement_profile(now, running)
            cluster_now = cluster_with_live_usage(self.cluster, running)
            error: Optional[ReproError] = None
            try:
                placement = self.placer.place(app, cluster_now, profile)
            except ReproError as exc:
                error = exc
            spent += time.perf_counter() - started
            self._trace_admission(app, running, cluster_now, now, error is not None)
            if error is not None:
                outcomes[app.name] = AppOutcome(
                    name=app.name,
                    status="rejected",
                    arrived_at=now,
                    error=f"{type(error).__name__}: {error}",
                )
                _REJECTIONS.inc()
                logger.info(
                    "t=%.0fs: rejected %s (%s)", now, app.name,
                    type(error).__name__,
                )
                continue
            _ADMISSIONS.inc()
            logger.debug(
                "t=%.0fs: admitted %s (%d task(s))",
                now, app.name, len(app.task_names),
            )
            running[app.name] = LiveApp(app=app, placement=placement, started=now)
            outcomes[app.name] = AppOutcome(
                name=app.name, status="completed", arrived_at=now
            )
        return remaining_pending, spent

    def _trace_admission(
        self,
        app: Application,
        running: Dict[str, LiveApp],
        cluster_now: ClusterState,
        now: float,
        rejected: bool,
    ) -> None:
        """Emit one ``service.admission`` point while tracing (see
        docs/observability.md, "Service decisions"): what the arrival saw,
        and for a rejection the CPU bound that it could not meet."""
        if obs.trace_path() is None:
            return
        binding = needed = available = None
        if rejected:
            short = cpu_shortfall(app, cluster_now)
            if short is None:
                binding = "packing"  # both bounds met; the placer found no fit
            else:
                binding, needed, available = short
        obs.point(
            "service.admission",
            app=app.name,
            outcome="rejected" if rejected else "admitted",
            live_apps=sorted(name for name, state in running.items() if not state.done),
            background_flows=len(self._network.campaign_background(running, now)),
            cores_free=list(cluster_now.available_cpus().values()),
            binding=binding,
            needed_cores=needed,
            available_cores=available,
        )
