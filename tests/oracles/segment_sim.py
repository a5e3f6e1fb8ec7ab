"""``advance_live_apps`` as it stood before the service and the sequence
runner moved onto one live simulation, bodies verbatim: every segment builds
a fresh simulation (``provider.simulate``) of what is still in flight,
restarted at the segment's start with the bytes each flow had left, next to
the other tenant's flows as :func:`background_at` restarts them.
``tests/test_live_network.py`` holds the live simulation to it, pause by
pause."""

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.cloud.provider import CloudProvider, VMFlow
from repro.net.fluid import FluidResult
from repro.runtime.migration import LiveApp


def segment_advance(
    provider: CloudProvider,
    running: Dict[str, LiveApp],
    start: float,
    until: Optional[float],
    background: Sequence[VMFlow] = (),
) -> Optional[FluidResult]:
    """Run every active application's remaining flows from ``start``."""
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


def background_at(
    tenant: Sequence[VMFlow], segment: FluidResult, now: float
) -> List[VMFlow]:
    """The other tenant's flows as ``segment`` left them at ``now``: finished
    ones dropped, running ones restarted at ``now`` with the bytes they have
    left, the ones still to start untouched."""
    flows: List[VMFlow] = []
    for flow in tenant:
        if flow.flow_id in segment.completion_times:
            continue
        if flow.start_time < now:
            left = segment.remaining_bytes[flow.flow_id]
            flow = replace(flow, start_time=now, size_bytes=left)
        flows.append(flow)
    return flows
