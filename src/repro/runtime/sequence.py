"""Sequential application arrival and placement (paper §2.4, §6.3).

Applications arrive one by one, ordered by their observed start times, and
are placed as they arrive.  When application ``k`` arrives:

1. the applications already placed — :class:`~repro.runtime.migration.LiveApp`
   records, the same books the online service keeps — are advanced from the
   previous arrival to this one on the sequence's one live simulation
   (:class:`~repro.runtime.migration.LiveNetwork`), so we know which are
   still running (they keep their CPU) and which transfers are still in
   flight (they are the cross traffic the new measurement sees);
2. Choreo re-measures the network with that cross traffic present;
3. the new application is placed on the machines' remaining CPU.

Once every application has been placed, all flows are executed together and
the per-application running time is the time from its arrival to the
completion of its last transfer.  The §6.3 comparison sums these running
times per placement algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set

from repro import obs
from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer
from repro.errors import PlacementError, SimulationError
from repro.runtime.executor import ApplicationRun, run_applications
from repro.runtime.migration import (
    LiveApp,
    LiveNetwork,
    advance_live_apps,
    cluster_with_live_usage,
    live_background_flows,
)
from repro.workloads.application import Application


@dataclass
class SequenceResult:
    """Outcome of placing and running a sequence of applications."""

    runs: Dict[str, ApplicationRun]
    placements: Dict[str, Placement]
    profiles: Dict[str, Optional[NetworkProfile]] = field(default_factory=dict)
    #: Host wall-clock spent measuring and placing (simulation excluded).
    placement_wall_s: float = 0.0


class SequentialPlacementRunner:
    """Places applications in arrival order and runs the whole sequence."""

    def __init__(
        self,
        provider: CloudProvider,
        cluster: ClusterState,
        placer: Placer,
        measurement: Optional[MeasurementPlan] = None,
        measure_network: bool = True,
        background: Sequence[VMFlow] = (),
    ):
        """
        Args:
            provider: the cloud the applications run on.
            cluster: the tenant's machines (VMs).
            placer: the placement algorithm under test.
            measurement: measurement plan; the default uses packet trains and
                does *not* advance the provider clock, because the paper's
                comparison charges the same measurement time to every scheme.
            measure_network: set to False for network-oblivious baselines to
                skip the (useless for them) measurement campaign entirely.
            background: another tenant's flows sharing the network for the
                whole sequence; they load the simulated transfers and, while
                still running at an arrival, appear as cross traffic to that
                arrival's measurement.
        """
        self.provider = provider
        self.cluster = cluster
        self.placer = placer
        if measurement is None:
            measurement = MeasurementPlan(advance_clock=False)
        self.measurer = NetworkMeasurer(provider, plan=measurement)
        self.measure_network = measure_network
        self.background = list(background)

    # ------------------------------------------------------------------ run
    def run(self, apps: Sequence[Application]) -> SequenceResult:
        """Place the applications in start-time order and run them all."""
        if not apps:
            raise SimulationError("run needs at least one application")
        ordered = sorted(apps, key=lambda a: (a.start_time, a.name))
        names = {app.name for app in ordered}
        if len(names) != len(ordered):
            raise PlacementError("applications in a sequence must have unique names")

        placements: Dict[str, Placement] = {}
        profiles: Dict[str, Optional[NetworkProfile]] = {}
        running: Dict[str, LiveApp] = {}
        network = LiveNetwork(self.provider, background=self.background)
        finished: Set[str] = set()  # ids of the tenant's completed flows
        placement_wall = 0.0
        segments = 0
        now = ordered[0].start_time

        with obs.span("sequence.run", apps=len(ordered)) as span:
            for app in ordered:
                arrival = app.start_time
                segment = advance_live_apps(network, running, now, until=arrival)
                if segment is not None:
                    segments += 1
                    finished.update(segment.completion_times)
                now = arrival
                background = live_background_flows(running, now)
                # The tenant's flows that have started and not finished.
                background.extend(
                    f
                    for f in self.background
                    if f.start_time <= now and f.flow_id not in finished
                )
                cluster_now = cluster_with_live_usage(self.cluster, running)
                obs.point(
                    "sequence.arrival",
                    app=app.name,
                    live_apps=sorted(n for n, s in running.items() if not s.done),
                    background_flows=len(background),
                    cores_free=list(cluster_now.available_cpus().values()),
                )

                place_started = time.perf_counter()
                profile: Optional[NetworkProfile] = None
                if self.measure_network:
                    profile = self.measurer.measure(
                        cluster_now.machine_names(), background=background
                    )
                profiles[app.name] = profile

                placement = self.placer.place(app, cluster_now, profile)
                placement_wall += time.perf_counter() - place_started
                placements[app.name] = placement
                running[app.name] = LiveApp(app=app, placement=placement, started=now)

            # One simulation of every placed flow, from zero, is what the
            # metrics read; the live one above only told each arrival what
            # was still running.  (Folding the two would add an event at
            # arrivals whose application colocates every transfer, which
            # moves the reported times in their last bits.)
            runs = run_applications(
                self.provider,
                placements=placements,
                apps=list(ordered),
                start_times={app.name: app.start_time for app in ordered},
                background=self.background,
            )
            span.set(segments=segments, simulations=2)
        return SequenceResult(
            runs=runs,
            placements=placements,
            profiles=profiles,
            placement_wall_s=placement_wall,
        )
