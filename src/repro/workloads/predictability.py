"""Hour-over-hour traffic predictability analysis (paper §6.1).

Choreo assumes an application's offline profile predicts its online
behaviour.  The paper justifies this with the HP Cloud dataset: "data from
the previous hour and the time-of-day are good predictors of the number of
bytes transferred in the next hour".  This module holds the three
predictors — previous-hour, time-of-day (mean of the same hour on previous
days) and combined (average of the two) — as one function, :func:`predict`,
over an hourly series, which :func:`evaluate_predictability` runs over one
hourly byte series at a time.  The placement service forecasts
nothing: it places on a fresh measurement of the network (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError

HOURS_PER_DAY = 24

#: The §6.1 predictors, in the order the analysis reports them.
PREDICTORS: Tuple[str, ...] = ("previous-hour", "time-of-day", "combined")


def _average(values: Sequence[float]) -> float:
    """Sum left to right, then divide by the count."""
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total / len(values)


def predict(history: Sequence[float], predictor: str) -> Optional[float]:
    """Forecast the hour after ``history`` with one of :data:`PREDICTORS`.

    ``history`` is an hourly series, oldest first, and the forecast is the
    next hour's value.  ``previous-hour`` is the last hour, ``time-of-day``
    the mean of the same hour on prior days and ``combined`` the mean of
    the two, or whichever exists.  Returns ``None`` when the predictor has
    nothing to go on yet.
    """
    if predictor not in PREDICTORS:
        raise WorkloadError(f"unknown predictor {predictor!r}; known: {list(PREDICTORS)}")
    n = len(history)
    parts = []
    if predictor != "time-of-day" and n:
        parts.append(history[n - 1])
    if predictor != "previous-hour":
        same_hour = history[n % HOURS_PER_DAY : n : HOURS_PER_DAY]
        if len(same_hour):
            parts.append(_average(same_hour))
    return _average(parts) if parts else None


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
    warmup_hours: int = HOURS_PER_DAY,
) -> Dict[str, PredictabilityReport]:
    """Evaluate the §6.1 predictors on hourly byte series.

    Args:
        series_collection: one hourly byte series per application.
        warmup_hours: hours at the start of each series that are skipped
            (the time-of-day predictor needs at least one full day).

    Returns:
        Mapping of predictor name to its :class:`PredictabilityReport`.

    Raises:
        WorkloadError: for ``warmup_hours < 1``, or an hour holding a NaN,
            infinite or negative byte count.
    """
    if warmup_hours < 1:
        raise WorkloadError("warmup_hours must be >= 1")

    errors: Dict[str, List[float]] = {name: [] for name in PREDICTORS}
    for number, series in enumerate(series_collection):
        values = np.asarray(series, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
        if len(bad):
            raise WorkloadError(
                f"series {number} hour {bad[0]} holds {float(values[bad[0]])} bytes; "
                "hourly bytes must be finite and non-negative"
            )
        for hour in range(warmup_hours, len(values)):
            actual = float(values[hour])
            for name in PREDICTORS:
                predicted = predict(values[:hour], name)
                if predicted is not None:
                    errors[name].append(_relative_error(actual, float(predicted)))

    return {
        name: PredictabilityReport(predictor_name=name, relative_errors=errs)
        for name, errs in errors.items()
    }
