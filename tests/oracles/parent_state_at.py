"""What a sequence of placed applications has in flight at ``time_s``, by
re-simulating every placed flow from zero up to it: the §6.3 runner's
``_state_at`` before applications were kept as ``LiveApp`` books, body
verbatim but for the ``provider.simulate`` wrapper it called.  It only
knows applications that own a network flow — one whose placement
colocates every transfer is never "finished" here;
``tests/test_live_books.py`` holds the service's live books to this, arrival
by arrival, in everything else."""

from typing import Dict, List, Sequence, Tuple

from repro.cloud.provider import CloudProvider
from repro.net.flows import Flow


def parent_state_at(
    provider: CloudProvider,
    background: List[Flow],
    placed_flows: Sequence[Flow],
    app_of_flow: Dict[str, str],
    time_s: float,
) -> Tuple[List[Flow], set]:
    """``(active_flows, finished_app_names)`` at ``time_s``."""
    all_flows = list(placed_flows) + background
    if not all_flows:
        return [], set()
    partial = provider.build_simulation(all_flows).run(until=time_s)
    active: List[Flow] = []
    remaining_by_app: Dict[str, int] = {}
    for flow in placed_flows:
        app_name = app_of_flow[flow.flow_id]
        remaining_by_app.setdefault(app_name, 0)
        completed = flow.flow_id in partial.completion_times
        if completed:
            continue
        remaining_by_app[app_name] += 1
        if flow.start_time <= time_s:
            active.append(flow)
    for flow in background:
        if flow.flow_id in partial.completion_times:
            continue
        if flow.start_time <= time_s:
            active.append(flow)
    finished = {name for name, count in remaining_by_app.items() if count == 0}
    return active, finished
