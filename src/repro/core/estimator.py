"""Completion-time estimation for a candidate placement (Appendix).

The paper's objective is the time taken by the longest-running flow: for
every set of flows sharing a bottleneck link with rate ``R`` transferring
``b_1..b_k`` bytes, the set takes ``sum(b_i) / R``; the application's
completion time is the maximum over all bottlenecks, and Choreo minimises
that over placements.

Under the hose model (what §4.4 finds on EC2 and Rackspace, and what
``tests/test_bottleneck.py`` finds on every synthetic provider), the
bottleneck shared by flows is the source VM's egress cap.  The ILP, the
greedy placer and the ablation benches all use this one estimator.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from repro.core.network_profile import NetworkProfile
from repro.errors import PlacementError
from repro.units import BITS_PER_BYTE
from repro.workloads.application import Application


def machine_pair_bytes(
    assignments: Mapping[str, str], app: Application
) -> Dict[Tuple[str, str], float]:
    """Aggregate task-to-task bytes into machine-to-machine bytes (``D = X^T B X``).

    Args:
        assignments: mapping of task name to machine name.
        app: the application whose traffic matrix is aggregated.

    Returns:
        Mapping of ordered machine pair to bytes, including intra-machine
        pairs (``(m, m)``).
    """
    data: Dict[Tuple[str, str], float] = {}
    for src_task, dst_task, volume in app.transfers():
        try:
            src_machine = assignments[src_task]
            dst_machine = assignments[dst_task]
        except KeyError as exc:
            raise PlacementError(
                f"task {exc.args[0]!r} has no machine assignment"
            ) from exc
        key = (src_machine, dst_machine)
        data[key] = data.get(key, 0.0) + volume
    return data


def estimate_completion_time(
    assignments: Mapping[str, str],
    app: Application,
    profile: NetworkProfile,
) -> float:
    """Estimated completion time (seconds) of ``app`` under a placement.

    Args:
        assignments: mapping of task name to machine (VM) name.
        app: the application being placed.
        profile: measured network profile; flows out of the same machine
            share its egress (hose) cap.

    Returns:
        The estimated completion time of the slowest bottleneck, in seconds.
        Zero when the application transfers no data across machines.
    """
    data = machine_pair_bytes(assignments, app)
    if not data:
        return 0.0

    # All egress of one machine shares that machine's cap, and
    # intra-machine transfers use the (fast) intra-VM path.
    worst = 0.0
    egress: Dict[str, float] = {}
    for (src, dst), volume in data.items():
        if src == dst:
            if not math.isinf(profile.intra_vm_rate_bps):
                worst = max(
                    worst, volume * BITS_PER_BYTE / profile.intra_vm_rate_bps
                )
            continue
        egress[src] = egress.get(src, 0.0) + volume
    for machine, volume in egress.items():
        rate = profile.hose_rate(machine)
        if math.isinf(rate):
            continue
        worst = max(worst, volume * BITS_PER_BYTE / rate)
    return worst
