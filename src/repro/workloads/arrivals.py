"""Application arrival processes (paper §6.3).

In the sequential-placement evaluation, applications arrive one by one and
are placed in order of their observed start times from the HP Cloud dataset.
We do not have that dataset, so a homogeneous Poisson process generates
the start times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.units import HOUR


@dataclass
class PoissonArrivals:
    """Homogeneous Poisson arrivals with ``rate_per_hour`` applications/hour."""

    rate_per_hour: float = 2.0

    def __post_init__(self) -> None:
        if not self.rate_per_hour > 0:
            raise WorkloadError("rate_per_hour must be positive")

    def sample(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> List[float]:
        """``n`` arrival times (seconds), in increasing order."""
        if n < 0:
            raise WorkloadError("n must be >= 0")
        rng = rng if rng is not None else np.random.default_rng()
        gaps = rng.exponential(HOUR / self.rate_per_hour, size=n)
        return list(np.cumsum(gaps))

