"""Rate models used while placing tasks (Algorithm 1, line 13).

When the greedy algorithm evaluates placing a transfer on machine pair
``(m, n)``, it needs "the rate that the transfer from i to j would see if
placed on m -> n", taking into account all other task pairs already placed
on that path (pipe model) or all other connections out of ``m`` (hose
model).

The measured single-connection rate ``R`` for a path already includes any
cross traffic ``c`` the measurement observed: ``R ≈ C / (c + 1)`` where
``C`` is the bottleneck capacity (§3.2).  Adding ``k`` of our own
connections therefore leaves each of them with ``C / (c + 1 + k)``, i.e.
``R * (c + 1) / (c + 1 + k)``.

:func:`effective_rate` is that expression for one pair — the definition, and
the oracle the tests hold the array form to.  :class:`EffectiveRateMatrix`
is the same expression evaluated elementwise over every ordered machine
pair at once, which is what the greedy placer ranks candidates on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.network_profile import NetworkProfile
from repro.errors import PlacementError


@dataclass
class ConnectionLoad:
    """Bookkeeping of the connections placed so far in one placement round."""

    per_path: Dict[Tuple[str, str], int] = field(default_factory=dict)
    per_source: Dict[str, int] = field(default_factory=dict)

    def add(self, src_machine: str, dst_machine: str) -> None:
        """Record one more connection from ``src_machine`` to ``dst_machine``.

        Intra-machine transfers use no network egress, so they are not
        counted against either the path or the source hose.
        """
        if src_machine == dst_machine:
            return
        key = (src_machine, dst_machine)
        self.per_path[key] = self.per_path.get(key, 0) + 1
        self.per_source[src_machine] = self.per_source.get(src_machine, 0) + 1

    def on_path(self, src_machine: str, dst_machine: str) -> int:
        """Connections already placed on the ordered path."""
        return self.per_path.get((src_machine, dst_machine), 0)

    def out_of(self, src_machine: str) -> int:
        """Connections already placed with ``src_machine`` as their source."""
        return self.per_source.get(src_machine, 0)

    def copy(self) -> "ConnectionLoad":
        """An independent copy (used when evaluating hypothetical placements)."""
        return ConnectionLoad(
            per_path=dict(self.per_path), per_source=dict(self.per_source)
        )


def effective_rate(
    profile: NetworkProfile,
    src_machine: str,
    dst_machine: str,
    load: ConnectionLoad,
    model: str = "hose",
) -> float:
    """Rate a *new* connection would get on ``src -> dst`` given placed load.

    Args:
        profile: the measured network profile.
        src_machine, dst_machine: candidate machines.
        load: connections placed so far during this placement round.
        model: ``"hose"`` (share the source's egress) or ``"pipe"`` (share
            the specific path).

    Returns:
        Estimated rate in bits/second.  Intra-machine placements return the
        profile's intra-VM rate (essentially infinite).
    """
    if model not in ("hose", "pipe"):
        raise PlacementError(f"unknown rate model {model!r}")
    if src_machine == dst_machine:
        return profile.intra_vm_rate_bps
    single = profile.rate(src_machine, dst_machine)
    cross = profile.cross(src_machine, dst_machine)
    if model == "pipe":
        existing = load.on_path(src_machine, dst_machine)
    else:
        existing = load.out_of(src_machine)
    if math.isinf(single):
        return single
    return single * (cross + 1.0) / (cross + 1.0 + existing)


class EffectiveRateMatrix:
    """:func:`effective_rate` for every ordered machine pair, kept current.

    ``rates[i, j]`` is the rate a new connection from ``machines[i]`` to
    ``machines[j]`` would get given the connections recorded so far:
    ``S·(C + 1.0)/(C + 1.0 + k)`` with ``S`` the profile's rate matrix, ``C``
    its cross-traffic estimates (zero where it has none) and ``k`` the
    connections already leaving the source (hose) or on that path (pipe) —
    the float operations of :func:`effective_rate`, elementwise, so every
    entry ``==`` the scalar value.  The diagonal is the intra-VM rate and
    never moves; an unmeasured pair is ``NaN``.  Recording a connection
    recomputes the one row (hose) or the one entry (pipe) it changes.
    """

    def __init__(
        self,
        profile: NetworkProfile,
        machines: Sequence[str],
        model: str = "hose",
    ) -> None:
        if model not in ("hose", "pipe"):
            raise PlacementError(f"unknown rate model {model!r}")
        self.model = model
        self._intra = profile.intra_vm_rate_bps
        #: The profile's single-connection rates, in ``machines`` order.
        self.single = single = profile.rate_matrix(machines)
        self._base = profile.cross_matrix(machines) + 1.0
        self._numerator = single * self._base
        n = len(machines)
        self._placed = np.zeros(n if model == "hose" else (n, n))
        self.rates = self._numerator / self._base
        np.fill_diagonal(self.rates, self._intra)

    def record(self, src: int, dst: int) -> None:
        """Account for one more connection from machine ``src`` to ``dst``
        (indices into ``machines``).  Intra-machine transfers use no
        network egress and change nothing."""
        if src == dst:
            return
        if self.model == "hose":
            self._placed[src] += 1
            self.rates[src] = self._numerator[src] / (
                self._base[src] + self._placed[src]
            )
            self.rates[src, src] = self._intra
        else:
            self._placed[src, dst] += 1
            self.rates[src, dst] = self._numerator[src, dst] / (
                self._base[src, dst] + self._placed[src, dst]
            )
