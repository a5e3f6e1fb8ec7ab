"""The scalar rate model of Algorithm 1, line 13.

A new connection on ``src -> dst`` that joins ``k`` connections already
placed out of ``src`` gets ``R / (1 + k)``: they share the source's egress
(the hose model, §4.3).  This is that expression for one pair, which
:class:`~repro.core.rate_model.EffectiveRateMatrix` evaluates elementwise
and is held to, entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.core.network_profile import NetworkProfile
from repro.errors import MeasurementError


@dataclass
class ConnectionLoad:
    """Bookkeeping of the connections placed so far in one placement round."""

    per_source: Dict[str, int] = field(default_factory=dict)

    def add(self, src_machine: str, dst_machine: str) -> None:
        """Record one more connection; intra-machine ones use no egress."""
        if src_machine == dst_machine:
            return
        self.per_source[src_machine] = self.per_source.get(src_machine, 0) + 1

    def out_of(self, src_machine: str) -> int:
        """Connections already placed with ``src_machine`` as their source."""
        return self.per_source.get(src_machine, 0)


def effective_rate(
    profile: NetworkProfile, src_machine: str, dst_machine: str, load: ConnectionLoad
) -> float:
    """Rate a *new* connection would get on ``src -> dst`` given placed load;
    an intra-machine placement gets the profile's intra-VM rate.

    Raises:
        MeasurementError: the profile did not measure the pair.
    """
    if src_machine == dst_machine:
        return profile.intra_vm_rate_bps
    at = profile.vms.index
    rate = profile.rate_matrix().item(at(src_machine), at(dst_machine))
    if math.isnan(rate):
        raise MeasurementError(
            f"profile has no measurement for ({src_machine!r}, {dst_machine!r})"
        )
    return rate / (1.0 + load.out_of(src_machine))
