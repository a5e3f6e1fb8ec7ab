"""Next-epoch rate forecasts from the §6.1 predictors.

The service records, per ordered VM pair, the rate observed during each
completed epoch, and forecasts the coming epoch by running one of the
paper's predictors over that series: ``previous-hour`` (last epoch's
value), ``time-of-day`` (mean of the same epoch-of-day on prior days),
``combined`` (average of the two, the paper's best), or ``stale`` (the
hour-0 value, the frozen-profile control every offline scenario implicitly
uses).  The ``oracle`` predictor is resolved by the engine — it reads true
rates off the ground-truth timeline and never measures.

The history is one ``(N, N)`` rate matrix per recorded epoch, and a
forecast is the scalar predictor of :mod:`repro.workloads.predictability`
written over whole matrices with the *same float operations*, so every
entry ``==`` what the scalar predictor returns for that pair's series
(:func:`_mean` spells out the summation order ``np.mean`` uses on a 1-D
series).  The scalar predictors stay where they are — the §6.1 analysis
API, and the oracle the tests compare this module against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.network_profile import NetworkProfile
from repro.errors import ServiceError
from repro.workloads.predictability import HOURS_PER_DAY

#: Predictors the forecaster itself can run (the engine adds ``oracle``).
HISTORY_PREDICTORS: Tuple[str, ...] = (
    "previous-hour", "time-of-day", "combined", "stale",
)

#: Every predictor a service session accepts.
PREDICTOR_NAMES: Tuple[str, ...] = HISTORY_PREDICTORS + ("oracle",)

def validate_predictor(name: str) -> str:
    """Return ``name`` if it is a known predictor, raise otherwise."""
    if name not in PREDICTOR_NAMES:
        raise ServiceError(
            f"unknown predictor {name!r}; known: {list(PREDICTOR_NAMES)}"
        )
    return name


def _pairwise_sum(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum of ``parts`` in the order ``np.add.reduce`` sums a
    1-D float64 array of ``len(parts)`` values (NumPy's pairwise summation):
    left to right below 8 values; up to 128, eight strided accumulators
    combined as a balanced tree, then the remainder left to right; above,
    split in two (the first half rounded down to a multiple of 8)."""
    n = len(parts)
    if n < 8:
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total
    if n <= 128:
        acc = list(parts[:8])
        blocked = n - n % 8
        for i in range(8, blocked, 8):
            for j in range(8):
                acc[j] = acc[j] + parts[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for part in parts[blocked:]:
            total = total + part
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(parts[:half]) + _pairwise_sum(parts[half:])


def _mean(parts: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`repro.workloads.predictability._mean`, elementwise over
    matrices: one value is itself, two are ``(a + b) / 2``, more are
    ``np.mean``'s sum (see :func:`_pairwise_sum`) over their count."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return (parts[0] + parts[1]) / 2
    return _pairwise_sum(parts) / len(parts)


class RateForecaster:
    """Per-epoch rate matrices plus §6.1 prediction on top of them.

    The forecaster keeps its own VM index space (grown when a profile names
    a VM it has not seen; VMs the service drops keep their rows).  Each
    pair's series is epoch-indexed and gap-free from epoch 0: a pair first
    observed — or observed again — in epoch ``e`` back-fills the epochs it
    missed with that observation, so predictor indices line up with epochs,
    and a pair that is no longer observed simply stops growing.  Epochs in
    which a pair went unmeasured carry the last known value forward (the
    cache serves the same value, so the series reflects what the service
    believed).
    """

    def __init__(self, predictor: str = "combined"):
        if predictor not in HISTORY_PREDICTORS:
            raise ServiceError(
                f"forecaster predictor must be one of {list(HISTORY_PREDICTORS)}, "
                f"got {predictor!r}"
            )
        self.predictor = predictor
        self._index: Dict[str, int] = {}
        #: One (N, N) matrix per recorded epoch; an entry is meaningful for
        #: epochs below the pair's series length, NaN otherwise.
        self._epochs: List[np.ndarray] = []
        #: Series length per ordered pair (0 = never observed).
        self._lengths = np.zeros((0, 0), dtype=np.intp)

    def _indices(self, vms: Sequence[str]) -> np.ndarray:
        """Positions of ``vms`` in the forecaster's index space, growing it
        (with empty series) for names it has not seen."""
        index = self._index
        new = [vm for vm in vms if vm not in index]
        if new:
            for vm in dict.fromkeys(new):
                index[vm] = len(index)
            grow = len(index) - self._lengths.shape[0]
            self._lengths = np.pad(self._lengths, (0, grow))
            self._epochs = [
                np.pad(matrix, (0, grow), constant_values=math.nan)
                for matrix in self._epochs
            ]
        return np.array([index[vm] for vm in vms], dtype=np.intp)

    def record_epoch(self, epoch: int, profile: NetworkProfile) -> None:
        """Store the rates observed during ``epoch`` (monotonic, gap-free).

        Args:
            epoch: the *completed* epoch index the observations belong to.
            profile: the cache's merged view at the end of that epoch.
        """
        if epoch != len(self._epochs):
            raise ServiceError(
                f"epochs must be recorded in order; expected "
                f"{len(self._epochs)}, got {epoch}"
            )
        at = self._indices(profile.vms)
        observed = np.array(profile.rate_matrix(), dtype=np.float64)
        np.fill_diagonal(observed, math.nan)
        rates = np.full(self._lengths.shape, math.nan)
        rates[np.ix_(at, at)] = observed
        seen = ~np.isnan(rates)
        late = seen & (self._lengths < epoch)
        if late.any():
            # Back-fill, epoch by epoch, the pairs whose series is short.
            for missed in range(int(self._lengths[late].min()), epoch):
                gap = late & (self._lengths <= missed)
                self._epochs[missed][gap] = rates[gap]
        self._epochs.append(rates)
        self._lengths[seen] = epoch + 1

    def _predict(self, at: np.ndarray, epoch: int) -> np.ndarray:
        """Forecasts for the sub-mesh ``at`` × ``at`` (``NaN`` = no history).

        A pair's history is its first ``min(epoch, series length)`` epochs.
        Pairs are predicted together by history length — one group in a
        steady mesh, a second after a VM was dropped or added — each group
        with whole-matrix operations; nothing is approximated.
        """
        sub = np.ix_(at, at)
        known = np.minimum(self._lengths[sub], epoch)
        predicted = np.full(known.shape, math.nan)
        for n in np.unique(known).tolist():
            if n:
                group = self._predict_from(n, sub)
                predicted = np.where(known == n, group, predicted)
        return predicted

    def _predict_from(self, n: int, sub) -> np.ndarray:
        """The predictor over epochs ``[0, n)`` for every pair of ``sub``,
        as :func:`repro.workloads.predictability` computes it per series."""
        history = self._epochs
        if self.predictor == "stale":
            return history[0][sub]
        parts = []
        if self.predictor != "time-of-day":
            parts.append(history[n - 1][sub])
        if self.predictor != "previous-hour":
            same_hour = history[n % HOURS_PER_DAY : n : HOURS_PER_DAY]
            if same_hour:
                parts.append(_mean([matrix[sub] for matrix in same_hour]))
        # A predictor with nothing to go on yet repeats the last epoch.
        return _mean(parts) if parts else history[n - 1][sub]

    def forecast_pair(self, pair: Tuple[str, str], epoch: int) -> Optional[float]:
        """Forecast one pair's rate for ``epoch`` (``None`` without history)."""
        predicted = self._predict(self._indices(pair), epoch)[0, 1]
        return None if math.isnan(predicted) else float(predicted)

    def forecast_profile(
        self,
        current: NetworkProfile,
        epoch: int,
    ) -> NetworkProfile:
        """The profile the placer should see for placements during ``epoch``.

        Every pair of ``current`` is replaced by its forecast; pairs with no
        recorded history yet (epoch 0, or a freshly added VM) keep the
        measured value, so the degenerate first-epoch case reduces to the
        classic measure-then-place flow.
        """
        measured = current.rate_matrix()
        predicted = self._predict(self._indices(current.vms), epoch)
        forecast = ~np.isnan(predicted) & ~np.isnan(measured)
        rates = np.where(forecast, np.maximum(predicted, 1.0), measured)
        return NetworkProfile(
            current.vms,
            rates,
            intra_vm_rate_bps=current.intra_vm_rate_bps,
            measured_at=current.measured_at,
            measurement_duration_s=current.measurement_duration_s,
        )
