"""The batch executor's rule for turning a placement into flows: every
task-pair transfer whose endpoints landed on different VMs becomes one flow,
indexed in the traffic matrix's volume order; transfers between tasks on the
same VM make none.  The package builds flows through
``repro.runtime.migration.LiveApp.live_flows`` alone;
``tests/test_live_books.py`` uses this one as an independent flow builder
for its from-zero oracles."""

from typing import List

from repro.net.flows import Flow
from repro.core.placement.base import Placement
from repro.workloads.application import Application


def placement_to_flows(
    placement: Placement, app: Application, start_time: float = 0.0
) -> List[Flow]:
    """One flow between VM names per transfer between different VMs."""
    flows: List[Flow] = []
    for index, (src_task, dst_task, volume) in enumerate(app.transfers()):
        src_vm = placement.machine_of(src_task)
        dst_vm = placement.machine_of(dst_task)
        if src_vm != dst_vm:
            flows.append(
                Flow(
                    flow_id=f"{app.name}:{index}:{src_task}->{dst_task}",
                    src=src_vm,
                    dst=dst_vm,
                    size_bytes=volume,
                    start_time=start_time,
                )
            )
    return flows
