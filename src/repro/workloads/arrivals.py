"""Application arrival processes (paper §6.3).

In the sequential-placement evaluation, applications arrive one by one and
are placed in order of their observed start times from the HP Cloud dataset.
We do not have that dataset, so these processes generate realistic start
times: a homogeneous Poisson process and a diurnal (time-of-day modulated)
Poisson process matching the hour-over-hour structure §6.1 relies on.
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
        if self.rate_per_hour <= 0:
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


@dataclass
class DiurnalArrivals:
    """Poisson arrivals whose rate follows a sinusoidal day/night cycle.

    The rate at hour ``h`` is ``base * (1 + amplitude * sin(2*pi*(h - peak_hour + 6)/24))``
    so that the maximum occurs at ``peak_hour``.  Sampling uses thinning.
    """

    base_rate_per_hour: float = 2.0
    amplitude: float = 0.6
    peak_hour: float = 14.0

    def __post_init__(self) -> None:
        if self.base_rate_per_hour <= 0:
            raise WorkloadError("base_rate_per_hour must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError("amplitude must be in [0, 1)")

    def rate_at(self, t_seconds: float) -> float:
        """Instantaneous arrival rate (per hour) at absolute time ``t_seconds``."""
        hour_of_day = (t_seconds / HOUR) % 24.0
        phase = 2.0 * np.pi * (hour_of_day - self.peak_hour) / 24.0
        return self.base_rate_per_hour * (1.0 + self.amplitude * float(np.cos(phase)))

    def sample(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> List[float]:
        """``n`` arrival times (seconds) from the non-homogeneous process."""
        if n < 0:
            raise WorkloadError("n must be >= 0")
        rng = rng if rng is not None else np.random.default_rng()
        rate_max = self.base_rate_per_hour * (1.0 + self.amplitude)
        arrivals: List[float] = []
        t = 0.0
        while len(arrivals) < n:
            t += float(rng.exponential(HOUR / rate_max))
            if rng.random() < self.rate_at(t) / rate_max:
                arrivals.append(t)
        return arrivals
