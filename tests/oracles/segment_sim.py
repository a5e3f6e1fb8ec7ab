"""``advance_live_apps`` as it stood before the service moved onto one live
simulation, body verbatim but for the ``provider.simulate`` wrapper it
called: every segment builds and runs a fresh simulation of what is still
in flight, restarted at the segment's start with the bytes each flow had
left.
``tests/test_live_network.py`` holds the live simulation to it, pause by
pause."""

from typing import Dict, Optional

from repro.cloud.provider import CloudProvider
from repro.net.fluid import FluidResult
from repro.runtime.migration import LiveApp


def segment_advance(
    provider: CloudProvider,
    running: Dict[str, LiveApp],
    start: float,
    until: Optional[float],
) -> Optional[FluidResult]:
    """Run every active application's remaining flows from ``start``."""
    active = [
        (state, state.live_flows(start=start))
        for state in running.values()
        if not state.done
    ]
    all_flows = [flow for _, flows in active for _, flow in flows]
    if not all_flows:
        return None
    result = provider.build_simulation(all_flows).run(until=until)
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
