"""Next-epoch rate forecasts from the §6.1 ``combined`` predictor.

The service records the rate matrix observed during each completed epoch,
and forecasts the coming epoch by running the paper's best predictor,
``combined`` (the mean of the previous epoch and of the same epoch-of-day
on prior days, or the previous epoch alone before a day of history), over
those matrices with :func:`repro.workloads.predictability.predict`, the
function the §6.1 analysis runs over an hourly byte series.  Its two parts
stay in :func:`~repro.workloads.predictability.predict` for that analysis;
a session does not take them, because within a day of epochs both forecast
exactly what ``combined`` does.  A forecast rewrites the profile the
placer reads, never the cache: a pair the campaign could not measure
keeps its cached rate or the cache's floor.  Two more predictors are the
engine's controls and never forecast: ``stale`` places against the frozen
hour-0 profile (what every offline scenario implicitly does) and ``oracle``
reads true rates off the ground-truth timeline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.network_profile import NetworkProfile
from repro.errors import ServiceError
from repro.workloads.predictability import predict

#: Every predictor a service session accepts: the forecaster's, then the
#: engine's two controls.
PREDICTOR_NAMES: Tuple[str, ...] = ("combined", "stale", "oracle")


def validate_predictor(name: str) -> str:
    """Return ``name`` if it is a known predictor, raise otherwise."""
    if name not in PREDICTOR_NAMES:
        raise ServiceError(
            f"unknown predictor {name!r}; known: {list(PREDICTOR_NAMES)} (the "
            f"§6.1 analysis of all three history predictors is "
            f"repro.workloads.predictability.evaluate_predictability)"
        )
    return name


class RateForecaster:
    """Per-epoch rate matrices plus the ``combined`` forecast on top of them.

    The forecaster's mesh is the first recorded profile's VMs.  A later
    profile may cover fewer of them (the service drops preempted VMs) but
    never a new one.  A pair a profile leaves out is ``NaN`` in that epoch,
    so a forecast that reads the epoch is ``NaN`` for the pair and the
    placer keeps its measured rate.
    """

    def __init__(self):
        self._vms: List[str] = []
        self._index: Dict[str, int] = {}
        #: One (N, N) rate matrix per recorded epoch, over the mesh.
        self._epochs: List[np.ndarray] = []

    def _positions(self, vms: Sequence[str]) -> np.ndarray:
        """Positions of ``vms`` in the mesh; a VM outside it is refused."""
        try:
            return np.array([self._index[vm] for vm in vms], dtype=np.intp)
        except KeyError as exc:
            raise ServiceError(
                f"VM {exc.args[0]!r} is outside the forecaster's mesh "
                f"{self._vms} (the first recorded profile's VMs)"
            ) from None

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
        if not self._epochs:
            self._vms = list(profile.vms)
            self._index = {vm: i for i, vm in enumerate(self._vms)}
        rates = profile.rate_matrix()  # read-only: stored as it is
        if profile.vms != self._vms:
            at = self._positions(profile.vms)
            observed, rates = rates, np.full((len(self._vms),) * 2, math.nan)
            rates[np.ix_(at, at)] = observed
        self._epochs.append(rates)

    def forecast_profile(self, current: NetworkProfile, epoch: int) -> NetworkProfile:
        """The profile the placer should see for placements during ``epoch``.

        Every pair of ``current`` is replaced by its forecast from the
        epochs before ``epoch``, floored at 1 bps; with no recorded history
        yet (epoch 0) the measured profile stands, so the degenerate
        first-epoch case reduces to the classic measure-then-place flow.
        """
        predicted = predict(self._epochs[:epoch], "combined")
        if predicted is None:
            return current
        if current.vms != self._vms:
            at = self._positions(current.vms)
            predicted = predicted[np.ix_(at, at)]
        measured = current.rate_matrix()
        forecast = ~np.isnan(predicted) & ~np.isnan(measured)
        rates = np.where(forecast, np.maximum(predicted, 1.0), measured)
        return NetworkProfile(
            current.vms,
            rates,
            intra_vm_rate_bps=current.intra_vm_rate_bps,
            measured_at=current.measured_at,
            measurement_duration_s=current.measurement_duration_s,
        )
