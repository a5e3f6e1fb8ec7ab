"""``SequentialPlacementRunner._state_at`` as it stood before the sequence
runner moved onto ``LiveApp`` (PR 23), body verbatim: every placed flow
re-simulated from zero up to ``time_s``.  It only knows applications that
own a network flow — one whose placement colocates every transfer is never
"finished" here; ``tests/test_sequence_live.py`` holds the live-app books to
this in everything else."""

from typing import Dict, List, Sequence, Tuple

from repro.cloud.provider import CloudProvider, VMFlow


def parent_state_at(
    provider: CloudProvider,
    background: List[VMFlow],
    placed_flows: Sequence[VMFlow],
    app_of_flow: Dict[str, str],
    time_s: float,
) -> Tuple[List[VMFlow], set]:
    """``(active_flows, finished_app_names)`` at ``time_s``."""
    all_flows = list(placed_flows) + background
    if not all_flows:
        return [], set()
    partial = provider.simulate(all_flows, until=time_s)
    active: List[VMFlow] = []
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
        if flow.end_time is not None and flow.end_time <= time_s:
            continue
        if flow.start_time <= time_s:
            active.append(flow)
    finished = {name for name, count in remaining_by_app.items() if count == 0}
    return active, finished
