"""Rate models used while placing tasks (Algorithm 1, line 13).

When the greedy algorithm evaluates placing a transfer on machine pair
``(m, n)``, it needs "the rate that the transfer from i to j would see if
placed on m -> n", taking into account all other connections already placed
out of ``m``: the providers rate-limit at the source (the hose model, §4.3),
so connections leaving one machine share its egress.

The measured single-connection rate ``R`` of a path is what one new
connection gets there, with whatever else the measurement saw already
sharing it.  A new connection that joins ``k`` of our own connections
already leaving the same source splits that source's egress with them, and
gets ``R / (1 + k)``.

:class:`EffectiveRateMatrix` evaluates that expression elementwise over
every ordered machine pair at once, which is what the greedy placer ranks
candidates on.  Its scalar form for one pair, the oracle the tests hold the
matrix to, is ``tests/oracles/effective_rate.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.network_profile import NetworkProfile


class EffectiveRateMatrix:
    """The effective rate of every ordered machine pair, kept current.

    ``rates[i, j]`` is the rate a new connection from ``machines[i]`` to
    ``machines[j]`` would get given the connections recorded so far:
    ``S/(1.0 + k)`` with ``S`` the profile's rate matrix and ``k`` the
    connections already leaving the source — the float operations of the
    scalar expression, elementwise, so every entry ``==`` the scalar value.
    The diagonal is the intra-VM rate and never moves; an unmeasured pair
    is ``NaN``.  Recording a connection recomputes the one
    row it changes.
    """

    def __init__(self, profile: NetworkProfile, machines: Sequence[str]) -> None:
        self._intra = profile.intra_vm_rate_bps
        #: The profile's single-connection rates, in ``machines`` order.
        self.single = profile.rate_matrix(machines)
        #: ``1 + k`` per source machine.
        self._shares = np.ones(len(machines))
        self.rates = self.single.copy()
        np.fill_diagonal(self.rates, self._intra)

    def record(self, src: int, dst: int) -> None:
        """Account for one more connection from machine ``src`` to ``dst``
        (indices into ``machines``).  Intra-machine transfers use no
        network egress and change nothing."""
        if src == dst:
            return
        self._shares[src] += 1.0
        self.rates[src] = self.single[src] / self._shares[src]
        self.rates[src, src] = self._intra
