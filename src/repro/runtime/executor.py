"""Run placed applications on a synthetic cloud (paper §6.1, §6.2).

``placement_to_flows`` converts a placement and a traffic matrix into
VM-level flows: every task-pair transfer whose endpoints landed on different
VMs becomes a network flow; transfers between tasks on the same VM never
touch the network (one of the main wins of network-aware placement).

``run_applications`` executes those flows on the
provider's fluid simulator and reports per-application completion times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.placement.base import Placement
from repro.errors import PlacementError, SimulationError
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
        flow_completion_times: per-flow absolute completion times.
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


def placement_to_flows(
    placement: Placement,
    app: Application,
    start_time: float = 0.0,
    flow_prefix: Optional[str] = None,
) -> Tuple[List[VMFlow], float]:
    """Convert one placed application into VM-level flows.

    Returns:
        ``(flows, colocated_bytes)`` — transfers whose endpoints share a VM
        produce no flow and are accounted in ``colocated_bytes``.
    """
    prefix = flow_prefix if flow_prefix is not None else app.name
    flows: List[VMFlow] = []
    colocated = 0.0
    for index, (src_task, dst_task, volume) in enumerate(app.transfers()):
        src_vm = placement.machine_of(src_task)
        dst_vm = placement.machine_of(dst_task)
        if src_vm == dst_vm:
            colocated += volume
            continue
        flows.append(
            VMFlow(
                flow_id=f"{prefix}:{index}:{src_task}->{dst_task}",
                src_vm=src_vm,
                dst_vm=dst_vm,
                size_bytes=volume,
                start_time=start_time,
                tag=app.name,
            )
        )
    return flows, colocated


def run_applications(
    provider: CloudProvider,
    placements: Mapping[str, Placement],
    apps: Sequence[Application],
    start_times: Optional[Mapping[str, float]] = None,
    background: Sequence[VMFlow] = (),
) -> Dict[str, ApplicationRun]:
    """Run several placed applications together on one provider network.

    Args:
        placements: one placement per application name.
        apps: the applications (must all appear in ``placements``).
        start_times: per-application start times; defaults to each
            application's own ``start_time`` attribute.
        background: extra flows sharing the network (e.g. another tenant).

    Returns:
        Mapping of application name to its :class:`ApplicationRun`.
    """
    if not apps:
        raise SimulationError("run_applications needs at least one application")
    all_flows: List[VMFlow] = list(background)
    per_app_flows: Dict[str, List[str]] = {}
    per_app_colocated: Dict[str, float] = {}
    per_app_network_bytes: Dict[str, float] = {}
    starts: Dict[str, float] = {}

    for app in apps:
        if app.name not in placements:
            raise PlacementError(f"no placement supplied for application {app.name!r}")
        start = (
            start_times[app.name]
            if start_times is not None and app.name in start_times
            else app.start_time
        )
        starts[app.name] = start
        flows, colocated = placement_to_flows(
            placements[app.name], app, start_time=start
        )
        per_app_flows[app.name] = [flow.flow_id for flow in flows]
        per_app_colocated[app.name] = colocated
        per_app_network_bytes[app.name] = sum(flow.size_bytes or 0.0 for flow in flows)
        all_flows.extend(flows)

    result = provider.simulate(all_flows) if all_flows else None

    runs: Dict[str, ApplicationRun] = {}
    for app in apps:
        flow_ids = per_app_flows[app.name]
        completions = {}
        if result is not None:
            completions = {fid: result.completion_time(fid) for fid in flow_ids}
        completion_time = max(completions.values(), default=starts[app.name])
        runs[app.name] = ApplicationRun(
            app_name=app.name,
            start_time=starts[app.name],
            completion_time=completion_time,
            flow_completion_times=completions,
            colocated_bytes=per_app_colocated[app.name],
            network_bytes=per_app_network_bytes[app.name],
        )
    return runs
