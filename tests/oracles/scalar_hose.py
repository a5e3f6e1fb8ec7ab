"""``CloudProvider.hose_rate``, ``true_path_rate`` and ``advance_time`` of
commit ``a696fb3`` — the oracle.

Until then the provider read one VM's hose at a time, asking the attached
timeline for that VM's drift-table entry, its preemption and each active
degradation; a true path rate was read pair by pair; and its OU drift drew
one ``normal`` per VM.  The provider now reads every VM's hose as one
vector (the drift-table row, the OU caps and the fault factors at once),
every pair's true rate as one matrix, and draws the OU innovations in one
call; ``tests/test_hose_vector.py`` holds it to these loops, moved here
verbatim with the timeline's per-VM methods inlined.  What was ``self.``
is ``provider.`` (or ``timeline.``).
"""

from __future__ import annotations

import math
from typing import Optional

from oracles.graph_search import route_ids
from repro.service.timeline import PREEMPTED_RATE_BPS, LinkDegradation


def hose_rate_at(timeline, vm: str, time_s: float) -> Optional[float]:
    """Drift-table egress cap of ``vm`` at ``time_s`` (``None`` when the
    table is empty or does not cover the VM)."""
    if not timeline.hose_epochs:
        return None
    return timeline.hose_epochs[timeline.epoch_of(time_s)].get(vm)


def degradation_factor(timeline, vm: str, t: float) -> float:
    """Product of all degradation multipliers active on ``vm`` at ``t``."""
    factor = 1.0
    for event in timeline.events:
        if (
            isinstance(event, LinkDegradation)
            and event.vm == vm
            and event.start_s <= t < event.end_s
        ):
            factor *= event.multiplier
    return factor


def effective_hose_rate(timeline, vm: str, t: float, rate_bps: float) -> float:
    """Fault-adjusted egress rate of ``vm`` at ``t``."""
    if timeline.preempted(vm, t):
        return PREEMPTED_RATE_BPS
    return rate_bps * degradation_factor(timeline, vm, t)


def hose_rate(provider, vm_name: str) -> float:
    """Current (drifted) egress cap of a VM, in bits/second."""
    provider.vm(vm_name)
    timeline = provider.timeline
    rate = None
    if timeline is not None:
        rate = hose_rate_at(timeline, vm_name, provider._clock)
    if rate is None:
        base = provider._base_hose[vm_name]
        deviation = provider._hose_deviation[vm_name]
        rate = max(base * (1.0 + deviation), 0.05 * base)
    if timeline is not None and timeline.events:
        rate = effective_hose_rate(timeline, vm_name, provider._clock, rate)
    return rate


def true_path_rate(provider, src_vm: str, dst_vm: str) -> float:
    """Single-connection throughput absent any other tenant traffic."""
    src, dst = provider.vm(src_vm), provider.vm(dst_vm)
    if src.host == dst.host:
        return provider.params.intra_host_rate_bps
    capacities = provider.topology.capacities()
    physical = min(
        capacities[link] for link in route_ids(provider.topology, src.host, dst.host)
    )
    return min(hose_rate(provider, src_vm), physical)


def advance_time(provider, seconds: float) -> None:
    """Advance the clock, drawing one OU innovation per VM in turn."""
    if seconds == 0:
        return
    provider._clock += seconds
    sigma = provider.params.temporal_sigma
    tau = provider.params.temporal_tau_s
    decay = math.exp(-seconds / tau)
    innovation_std = sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
    for name in provider._hose_deviation:
        provider._hose_deviation[name] = (
            provider._hose_deviation[name] * decay
            + float(provider._rng.normal(0.0, innovation_std))
        )
