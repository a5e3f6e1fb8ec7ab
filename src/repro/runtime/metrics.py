"""Speed-up metrics used in the evaluation (paper §6.2, §6.3).

The paper reports the *relative speed-up* of Choreo over an alternative
placement: if an application took five hours with the random placement and
four hours with Choreo, the relative speed-up is ``(5 - 4) / 5 = 20%``.
:class:`SpeedupSummary` aggregates a set of such speed-ups the same way the
paper does: mean/median over all applications, the fraction improved, the
statistics restricted to the improved applications, and the median slow-down
among the degraded ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.errors import SimulationError


def relative_speedup(baseline_duration: float, choreo_duration: float) -> float:
    """Relative speed-up of Choreo over a baseline placement.

    Positive values mean Choreo was faster.  A zero-duration baseline with a
    zero-duration Choreo run counts as no change.
    """
    if not (baseline_duration >= 0 and choreo_duration >= 0):
        raise SimulationError("durations must be >= 0")
    if baseline_duration == 0:
        return 0.0 if choreo_duration == 0 else -float("inf")
    return (baseline_duration - choreo_duration) / baseline_duration


@dataclass(frozen=True)
class SpeedupSummary:
    """Aggregate statistics of a collection of relative speed-ups."""

    n: int
    mean: float
    median: float
    max: float
    min: float
    fraction_improved: float
    mean_improvement_when_improved: float
    median_improvement_when_improved: float
    median_slowdown_when_degraded: float

    def as_percentages(self) -> dict:
        """The summary with every ratio expressed in percent (for reports)."""
        return {
            "n": self.n,
            "mean_%": 100.0 * self.mean,
            "median_%": 100.0 * self.median,
            "max_%": 100.0 * self.max,
            "min_%": 100.0 * self.min,
            "fraction_improved_%": 100.0 * self.fraction_improved,
            "mean_improvement_when_improved_%": 100.0 * self.mean_improvement_when_improved,
            "median_improvement_when_improved_%": 100.0 * self.median_improvement_when_improved,
            "median_slowdown_when_degraded_%": 100.0 * self.median_slowdown_when_degraded,
        }


def speedup_summary(speedups: Sequence[float]) -> SpeedupSummary:
    """Summarise relative speed-ups the way §6.2/§6.3 report them."""
    values = np.asarray(list(speedups), dtype=float)
    if values.size == 0:
        raise SimulationError("cannot summarise an empty list of speed-ups")
    improved = values[values > 0]
    degraded = values[values < 0]
    return SpeedupSummary(
        n=int(values.size),
        mean=float(values.mean()),
        median=float(np.median(values)),
        max=float(values.max()),
        min=float(values.min()),
        fraction_improved=float((values > 0).mean()),
        mean_improvement_when_improved=float(improved.mean()) if improved.size else 0.0,
        median_improvement_when_improved=float(np.median(improved)) if improved.size else 0.0,
        median_slowdown_when_degraded=float(np.median(-degraded)) if degraded.size else 0.0,
    )
