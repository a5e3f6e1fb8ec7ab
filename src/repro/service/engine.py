"""The online placement service (the system §2 describes, run for real).

:class:`PlacementService` admits a *stream* of applications onto a cloud
whose ground truth drifts epoch by epoch (see
:mod:`repro.service.timeline`).  Per epoch it:

1. records the completed epoch's measured rates into the forecaster's
   per-pair history;
2. refreshes the measurement cache — only pairs whose TTL expired are
   re-probed (:mod:`repro.service.cache`);
3. builds the epoch's placement profile by running the selected §6.1
   predictor over the history (:mod:`repro.service.forecast`);
4. re-evaluates every running application against the forecast and
   migrates it when the predicted gain clears a threshold
   (:func:`repro.runtime.migration.propose_migration`).

Arrivals are admitted against the same forecast as they land; an
application that cannot be placed (CPU exhausted) is *rejected* and the
stream continues — the service is long-running, one infeasible arrival must
not sink the session.

Two special predictors bound the comparison: ``stale`` places every
application against the frozen hour-0 profile (what an offline evaluator
implicitly does — and measures nothing after bootstrap), and ``oracle``
reads the true current rates straight off the provider, the regret
reference.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placer
from repro.errors import ReproError, ServiceError
from repro.faults import FaultEvent, LinkDegradation, ProbeLoss, VmPreemption
from repro.runtime.migration import (
    LiveApp,
    MigrationEvent,
    advance_live_apps,
    cluster_with_live_usage,
    live_background_flows,
    propose_migration,
)
from repro.service.cache import MeasurementCache
from repro.service.forecast import RateForecaster, validate_predictor
from repro.service.timeline import DEFAULT_EPOCH_S
from repro.workloads.application import Application

logger = logging.getLogger("repro.service.engine")

#: Service counters (``obs.metrics.snapshot()`` under ``repro.service.*``).
_ADMISSIONS = obs.Counter("repro.service.admissions")
_REJECTIONS = obs.Counter("repro.service.rejections")
_MIGRATIONS = obs.Counter("repro.service.migrations")
_RECOVERIES = obs.Counter("repro.service.recoveries")
_EPOCH_TICKS = obs.Counter("repro.service.epoch_ticks")


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
    #: Host wall clock of the whole session / of measurement+placement only.
    session_wall_s: float = 0.0
    placement_wall_s: float = 0.0
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

    def duration_of(self, app_name: str) -> float:
        for outcome in self.apps:
            if outcome.name == app_name and outcome.duration is not None:
                return outcome.duration
        raise ServiceError(f"no completed application {app_name!r} in report")

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


class PlacementService:
    """Streaming admission + predictor-driven placement over a drifting net.

    Args:
        provider: the cloud (usually with a timeline attached via
            :func:`repro.service.timeline.attach_timeline`).
        cluster: the tenant's machines.
        placer: the placement algorithm for admissions and migrations.
        predictor: one of :data:`repro.service.forecast.PREDICTOR_NAMES`.
        epoch_s: forecast/measurement epoch; defaults to the attached
            timeline's epoch (an hour without one).
        ttl_s: measurement-cache TTL; the default of half an epoch makes
            the epoch tick re-probe the mesh while admissions shortly after
            a tick reuse it.
        migrate: re-evaluate running applications at epoch ticks (§2.4).
        improvement_threshold: minimum predicted completion-time gain for a
            migration to be worth its disruption.
        measurement: campaign plan; the default packet-train plan does not
            advance the provider clock (the service accounts measurement
            time itself, in the report).
        rate_model: completion-time model for migration decisions.
    """

    def __init__(
        self,
        provider: CloudProvider,
        cluster: ClusterState,
        placer: Placer,
        predictor: str = "combined",
        epoch_s: Optional[float] = None,
        ttl_s: Optional[float] = None,
        migrate: bool = True,
        improvement_threshold: float = 0.1,
        measurement: Optional[MeasurementPlan] = None,
        rate_model: str = "hose",
    ):
        self.provider = provider
        self.cluster = cluster
        self.placer = placer
        self.predictor = validate_predictor(predictor)
        timeline = provider.hose_timeline
        if epoch_s is None:
            epoch_s = timeline.epoch_s if timeline is not None else DEFAULT_EPOCH_S
        if epoch_s <= 0:
            raise ServiceError("epoch_s must be positive")
        self.epoch_s = float(epoch_s)
        self.ttl_s = float(ttl_s) if ttl_s is not None else self.epoch_s / 2.0
        if self.ttl_s <= 0:
            raise ServiceError("ttl_s must be positive")
        self.migrate = migrate
        if not 0.0 <= improvement_threshold < 1.0:
            raise ServiceError("improvement_threshold must be in [0, 1)")
        self.improvement_threshold = improvement_threshold
        if measurement is None:
            measurement = MeasurementPlan(advance_clock=False)
        self.rate_model = rate_model
        measurer = NetworkMeasurer(provider, plan=measurement)
        self.cache = MeasurementCache(
            measurer, cluster.machine_names(), ttl_s=self.ttl_s
        )
        self.forecaster = (
            RateForecaster(predictor) if predictor != "oracle" else None
        )
        #: Fault schedule, if one is attached (see repro.faults); the
        #: service consumes fault events at epoch boundaries and heals.
        self.faults = getattr(provider, "fault_timeline", None)
        self._migrations: List[MigrationEvent] = []
        self._recovery: List[RecoveryAction] = []
        #: Final placement of every admitted application after the last
        #: session (post-migration), keyed by application name.
        self.last_placements: Dict[str, object] = {}

    # -------------------------------------------------------------- session
    def run_session(
        self, apps: Sequence[Application], hours: float,
        telemetry: bool = False,
    ) -> ServiceReport:
        """Admit ``apps`` as they arrive over ``hours`` epochs of service.

        Arrivals must land within the session (``start_time < hours *
        epoch_s``); transfers still in flight at the horizon drain to
        completion (the network keeps drifting, the service just stops
        measuring and migrating).

        With ``telemetry=True`` the report carries a ``telemetry`` block
        (a process-wide :func:`repro.obs.metrics.snapshot` plus wall
        clocks).  It is opt-in because it is host-specific; canonical
        forms drop it either way.
        """
        if not apps:
            raise ServiceError("a session needs at least one application")
        if hours <= 0:
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
            report = self._session_loop(ordered, hours, horizon)
        if telemetry:
            report.telemetry = {
                "metrics": obs.metrics.snapshot(),
                "session_wall_s": round(report.session_wall_s, 6),
                "placement_wall_s": round(report.placement_wall_s, 6),
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
        self, ordered: List[Application], hours: float, horizon: float
    ) -> ServiceReport:
        """The session body (see :meth:`run_session`, which spans it)."""
        timeline = self.provider.hose_timeline
        session_started = time.perf_counter()
        report = ServiceReport(
            predictor=self.predictor,
            placer=getattr(self.placer, "name", type(self.placer).__name__),
            hours=hours,
            epoch_s=self.epoch_s,
            ttl_s=self.ttl_s,
            drift=timeline.drift if timeline is not None else "provider-ou",
        )

        running: Dict[str, LiveApp] = {}
        outcomes: Dict[str, AppOutcome] = {}
        self._migrations: List[MigrationEvent] = []
        self._recovery: List[RecoveryAction] = []
        pending = list(ordered)
        now = 0.0
        epoch = 0
        placement_wall = 0.0
        #: Fault events with effect times <= this have been handled.
        fault_watermark = 0.0
        have_faults = self.faults is not None and not self.faults.is_empty

        # Epoch-0 bootstrap: the classic measure-then-place full mesh.
        if self.predictor != "oracle":
            place_started = time.perf_counter()
            self.cache.refresh(
                now, background=[], force=True,
                fallback=self._forecast_fallback(epoch),
            )
            placement_wall += time.perf_counter() - place_started

        pending = self._admit_due(pending, running, outcomes, now, epoch)

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
            faults_pending = have_faults and self.faults.pending_after(
                fault_watermark
            )
            if rates_frozen and math.isinf(next_arrival) and not faults_pending:
                # No more drift, arrivals, or faults: drain in one pass.
                advance_live_apps(self.provider, running, now, until=None)
                break
            target = min(next_arrival, next_boundary)
            advance_live_apps(self.provider, running, now, until=target)
            self.provider.advance_time(target - now)
            now = target

            if now >= next_boundary - 1e-9:
                epoch += 1
                if have_faults:
                    # Heal at *every* boundary — including past the horizon,
                    # where a late preemption would otherwise stall the drain.
                    events = self.faults.events_between(fault_watermark, now)
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
            pending = self._admit_due(pending, running, outcomes, now, epoch)

        for name, state in running.items():
            outcomes[name].completed_at = state.completed_at
        self.last_placements = {
            name: state.placement for name, state in running.items()
        }
        report.apps = [outcomes[app.name] for app in ordered]
        report.migrations = list(self._migrations)
        report.recovery = list(self._recovery)
        report.measurement = self.cache.stats.to_json_dict()
        report.placement_wall_s = placement_wall
        report.session_wall_s = time.perf_counter() - session_started
        return report

    # ------------------------------------------------------------ internals
    def _forecast_fallback(self, epoch: int):
        """Predicted-rate fallback for pairs a campaign could not measure.

        ``None`` for the stale/oracle controls (they never refresh); for the
        history predictors, a callable the :class:`MeasurementCache` invokes
        with a degraded pair — the forecaster's prediction stands in for the
        unobtainable measurement (flagged via ``pairs_degraded`` in stats).
        """
        if self.forecaster is None or self.predictor == "stale":
            return None
        forecaster = self.forecaster
        return lambda pair: forecaster.forecast_pair(pair, epoch)

    def _recovery_profile(self) -> NetworkProfile:
        """The profile forced re-placements are made against.

        The oracle reads true rates; everyone else uses the cache's
        last-known view *without probing* — recovery must work even past
        the measurement horizon, and the affected VM's pairs are already
        gone from the mesh by the time this is called.
        """
        if self.predictor == "oracle":
            return NetworkProfile.from_rate_function(
                self.cluster.machine_names(), self.provider.true_path_rate
            )
        return self.cache.profile(self.provider.now)

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
                # forecast fallback); record that the service coasted.
                self._record_recovery(
                    RecoveryAction(
                        time_s=now,
                        event_time_s=event.effect_time_s,
                        epoch=epoch,
                        kind="probe-loss",
                        target=f"{event.src}->{event.dst}",
                        action="degraded-coast",
                    )
                )

    def _record_recovery(self, action: RecoveryAction) -> None:
        """Append a healing step, counting and logging it."""
        self._recovery.append(action)
        _RECOVERIES.inc()
        logger.info(
            "epoch %d: %s on %s -> %s (latency %.0fs%s)",
            action.epoch, action.kind, action.target, action.action,
            action.latency_s,
            f", apps: {', '.join(action.apps)}" if action.apps else "",
        )
        obs.point(
            "service.recovery", kind=action.kind, target=action.target,
            action=action.action, epoch=action.epoch,
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
        """Remove a preempted VM and force-re-place the apps it carried."""
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
                )
            )
            return
        self.cluster = ClusterState(
            machines=survivors,
            cpu_used={
                k: v for k, v in self.cluster.cpu_used.items() if k != vm
            },
        )
        if vm in self.cache.vms:
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
                    self._recovery_profile(),
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
            )
        )
        if rejected:
            self._record_recovery(
                RecoveryAction(
                    time_s=now, event_time_s=event.time_s, epoch=epoch,
                    kind="vm-preemption", target=vm,
                    action="rejected", apps=tuple(rejected),
                )
            )

    def _recover_degradation(
        self,
        event: LinkDegradation,
        running: Dict[str, LiveApp],
        now: float,
        epoch: int,
    ) -> None:
        """Invalidate cached pairs touching a degraded VM (targeted
        re-measurement at the next refresh); controls without a live cache
        coast on what they have."""
        vm = event.vm
        affected = self._apps_on_vm(running, vm)
        uses_cache = self.predictor not in ("oracle", "stale")
        if uses_cache and vm in self.cache.vms:
            self.cache.invalidate_pairs(
                [p for p in self.cache.mesh_pairs() if vm in p]
            )
            action = "re-measured"
        else:
            action = "degraded-coast"
        self._record_recovery(
            RecoveryAction(
                time_s=now, event_time_s=event.start_s, epoch=epoch,
                kind="link-degradation", target=vm,
                action=action, apps=tuple(affected),
            )
        )

    def _placement_profile(
        self, running: Dict[str, LiveApp], now: float, epoch: int
    ) -> NetworkProfile:
        """The profile placements during ``epoch`` should be made against.

        One profile serves every decision made at an instant: the TTL cache
        means a second refresh within the TTL returns the same rates anyway,
        so per-decision re-probing (with, say, per-app background exclusion)
        would only make the *first* decision of a tick special — the running
        apps' own traffic is part of what the campaign sees, for every app
        alike, exactly as the paper's measure-under-load admission does.
        Both sides of every migration comparison are priced on this same
        profile, so the self-interference bias cancels in the gain.
        """
        if self.predictor == "oracle":
            return NetworkProfile.from_rate_function(
                self.cluster.machine_names(), self.provider.true_path_rate
            )
        if self.predictor == "stale":
            # Frozen hour-0 view: bootstrap mesh only, never refreshed.
            return self.cache.profile(now)
        background = live_background_flows(running, now)
        current = self.cache.refresh(
            now, background=background,
            fallback=self._forecast_fallback(epoch),
        )
        return self.forecaster.forecast_profile(current, epoch)

    def _epoch_tick(
        self,
        running: Dict[str, LiveApp],
        outcomes: Dict[str, AppOutcome],
        now: float,
        epoch: int,
    ) -> None:
        """Record history, refresh the mesh, and re-evaluate placements."""
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
        if self.forecaster is not None:
            # The cache's state at the boundary is what the service observed
            # during the epoch that just completed.
            self.forecaster.record_epoch(epoch - 1, self.cache.profile(now))
        if not self.migrate:
            # Still refresh the cache so history keeps accumulating.
            if self.predictor not in ("oracle", "stale"):
                self.cache.refresh(
                    now, background=live_background_flows(running, now),
                    fallback=self._forecast_fallback(epoch),
                )
            return
        # One refresh + forecast per tick, shared by every migration
        # decision below (see _placement_profile for why).
        profile = self._placement_profile(running, now, epoch)
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
                    improvement_threshold=self.improvement_threshold,
                    rate_model=self.rate_model,
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
        epoch: int,
    ) -> List[Application]:
        """Place every pending application whose arrival time has come."""
        remaining_pending = list(pending)
        while remaining_pending and remaining_pending[0].start_time <= now + 1e-9:
            app = remaining_pending.pop(0)
            profile = self._placement_profile(running, now, epoch)
            cluster_now = cluster_with_live_usage(self.cluster, running)
            try:
                placement = self.placer.place(app, cluster_now, profile)
            except ReproError as exc:
                outcomes[app.name] = AppOutcome(
                    name=app.name,
                    status="rejected",
                    arrived_at=now,
                    error=f"{type(exc).__name__}: {exc}",
                )
                _REJECTIONS.inc()
                logger.info(
                    "t=%.0fs: rejected %s (%s)", now, app.name,
                    type(exc).__name__,
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
        return remaining_pending
