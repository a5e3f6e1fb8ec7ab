"""One probe's fault, by a scan of the timeline: the rule ``probe_faults``
is held to.

The provider reads every probe's fault with
``Timeline.probe_faults(vms, src, dst, t)``, which resolves the preempted
VMs and the active windows once per call.  :func:`probe_fault` is the
per-probe scan it replaced: a probe touching a preempted endpoint fails,
else the first active :class:`~repro.service.timeline.ProbeLoss` window of
its ordered pair (in event order) decides.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.service.timeline import ProbeLoss, Timeline


def probe_fault(
    timeline: Timeline, src: str, dst: str, t: float
) -> Optional[Tuple[str, float]]:
    """Active probe fault for an ordered pair, or ``None``.

    Returns ``("fail", 0.0)`` when a probe of the pair must raise — probes
    touching a preempted VM always fail — or ``("wild", factor)`` when it
    returns a distorted estimate.
    """
    if timeline.preempted(src, t) or timeline.preempted(dst, t):
        return ("fail", 0.0)
    for event in timeline.events:
        if (
            isinstance(event, ProbeLoss)
            and event.src == src
            and event.dst == dst
            and event.start_s <= t < event.end_s
        ):
            if event.mode == "fail":
                return ("fail", 0.0)
            return ("wild", event.factor)
    return None
