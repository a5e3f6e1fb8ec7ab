"""The §6.1 predictors one series at a time — the oracle ``predict`` is held to.

These are the package's scalar predictors from before
``repro.workloads.predictability.predict`` took over, with one change: a
mean sums left to right, as ``predict`` does.  That equals ``np.mean`` below
eight values — through epoch 191 of a series, the last whose same-hour
history has seven — and may differ by an ulp from the eighth on, where
``np.mean`` switches to pairwise summation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

HOURS_PER_DAY = 24

Predictor = Callable[[Sequence[float], int], Optional[float]]


def _mean(values: Sequence[float]) -> float:
    total = float(values[0])
    for value in values[1:]:
        total = total + float(value)
    return total / len(values)


def previous_hour_predictor(series: Sequence[float], hour: int) -> Optional[float]:
    """Predict hour ``hour`` as the value of the previous hour."""
    if hour < 1:
        return None
    return float(series[hour - 1])


def time_of_day_predictor(series: Sequence[float], hour: int) -> Optional[float]:
    """Predict hour ``hour`` as the mean of the same time-of-day on prior days."""
    history = [series[h] for h in range(hour % HOURS_PER_DAY, hour, HOURS_PER_DAY)]
    if not history:
        return None
    return _mean(history)


def combined_predictor(series: Sequence[float], hour: int) -> Optional[float]:
    """Average of the previous-hour and time-of-day predictors, or whichever
    component exists when the other has no history yet."""
    parts = [
        value
        for value in (
            previous_hour_predictor(series, hour),
            time_of_day_predictor(series, hour),
        )
        if value is not None
    ]
    if not parts:
        return None
    return _mean(parts)


PREDICTORS: Dict[str, Predictor] = {
    "previous-hour": previous_hour_predictor,
    "time-of-day": time_of_day_predictor,
    "combined": combined_predictor,
}
