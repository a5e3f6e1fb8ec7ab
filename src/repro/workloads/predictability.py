"""Hour-over-hour traffic predictability analysis (paper §6.1).

Choreo assumes an application's offline profile predicts its online
behaviour.  The paper justifies this with the HP Cloud dataset: "data from
the previous hour and the time-of-day are good predictors of the number of
bytes transferred in the next hour".  This module reproduces that analysis
on any hourly byte series: it implements the previous-hour predictor, the
time-of-day predictor (mean of the same hour on previous days), a combined
predictor (average of the two), and computes their relative-error
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError

HOURS_PER_DAY = 24

Predictor = Callable[[Sequence[float], int], Optional[float]]


def _mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))``, without the array round trip for the one-
    and two-element histories a session's first day is made of.

    ``np.mean`` of two float64s is ``(a + b) / 2`` in float64 — the same
    IEEE operations as the Python expression — and of one is itself.
    """
    if len(values) == 1:
        return float(values[0])
    if len(values) == 2:
        return (float(values[0]) + float(values[1])) / 2
    return float(np.mean(values))


def previous_hour_predictor(series: Sequence[float], hour: int) -> Optional[float]:
    """Predict hour ``hour`` as the value of the previous hour."""
    if hour < 1:
        return None
    return float(series[hour - 1])


def time_of_day_predictor(series: Sequence[float], hour: int) -> Optional[float]:
    """Predict hour ``hour`` as the mean of the same time-of-day on prior days."""
    history = [
        series[h]
        for h in range(hour % HOURS_PER_DAY, hour, HOURS_PER_DAY)
    ]
    if not history:
        return None
    return _mean(history)


def combined_predictor(series: Sequence[float], hour: int) -> Optional[float]:
    """Average of the previous-hour and time-of-day predictors.

    Falls back to whichever component is available when the other has no
    history yet.
    """
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


@dataclass
class PredictabilityReport:
    """Relative-error summary for one predictor on one or more series."""

    predictor_name: str
    relative_errors: List[float]

    @property
    def n_predictions(self) -> int:
        return len(self.relative_errors)

    @property
    def median_error(self) -> float:
        if not self.relative_errors:
            raise WorkloadError("no predictions were made")
        return float(np.median(self.relative_errors))

    @property
    def mean_error(self) -> float:
        if not self.relative_errors:
            raise WorkloadError("no predictions were made")
        return float(np.mean(self.relative_errors))

    def fraction_within(self, tolerance: float) -> float:
        """Fraction of predictions with relative error <= ``tolerance``."""
        if not self.relative_errors:
            raise WorkloadError("no predictions were made")
        hits = sum(1 for err in self.relative_errors if err <= tolerance)
        return hits / len(self.relative_errors)


def _relative_error(actual: float, predicted: float) -> float:
    """Magnitude of relative error, guarding the zero-traffic case."""
    if actual == 0.0 and predicted == 0.0:
        return 0.0
    denominator = max(abs(actual), 1.0)
    return abs(actual - predicted) / denominator


def evaluate_predictability(
    series_collection: Sequence[Sequence[float]],
    predictors: Optional[Dict[str, Predictor]] = None,
    warmup_hours: int = HOURS_PER_DAY,
) -> Dict[str, PredictabilityReport]:
    """Evaluate predictors on hourly byte series.

    Args:
        series_collection: one hourly byte series per application.
        predictors: mapping of name to predictor function; defaults to the
            three predictors discussed in §6.1.
        warmup_hours: hours at the start of each series that are skipped
            (the time-of-day predictor needs at least one full day).

    Returns:
        Mapping of predictor name to its :class:`PredictabilityReport`.
    """
    if predictors is None:
        predictors = {
            "previous-hour": previous_hour_predictor,
            "time-of-day": time_of_day_predictor,
            "combined": combined_predictor,
        }
    if warmup_hours < 1:
        raise WorkloadError("warmup_hours must be >= 1")

    errors: Dict[str, List[float]] = {name: [] for name in predictors}
    for series in series_collection:
        if len(series) <= warmup_hours:
            continue
        for hour in range(warmup_hours, len(series)):
            for name, predictor in predictors.items():
                predicted = predictor(series, hour)
                if predicted is None:
                    continue
                errors[name].append(_relative_error(float(series[hour]), predicted))

    return {
        name: PredictabilityReport(predictor_name=name, relative_errors=errs)
        for name, errs in errors.items()
    }
