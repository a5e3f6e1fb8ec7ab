"""Round-trip time model.

Only the Mathis-formula half of the paper's throughput estimator needs an
RTT (§3.1: ``MSS * C / (RTT * sqrt(loss))``), and datacenter RTTs are
dominated by per-switch forwarding delay.  The RTT is therefore an affine
function of the hop count.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import MeasurementError

#: Fixed RTT component (NIC, hypervisor, kernel), in seconds.
BASE_RTT_S = 100e-6
#: One-way delay each switch hop adds, in seconds.
PER_HOP_S = 25e-6


def rtt_s(hops: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
    """Round-trip time in seconds of a path of ``hops`` hops (elementwise
    for an array of hop counts)."""
    if np.any(np.asarray(hops) < 1):
        raise MeasurementError("hop_count must be >= 1")
    return BASE_RTT_S + 2.0 * PER_HOP_S * hops
