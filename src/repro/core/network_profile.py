"""The measured view of the cloud network (output of Choreo's measurement).

A :class:`NetworkProfile` is what Choreo's placement algorithms consume: the
estimated single-connection TCP throughput for every ordered VM pair
(``R`` in the Appendix).  Connections out of one VM share its egress cap:
the hose model §4.4 finds on EC2 and Rackspace.

``R`` *is* the profile: one ``(n, n)`` float64 array in ``vms`` order, from
the campaign that scatters its estimates into it to the placer that ranks
machine pairs on it.  Per-pair probe times are an optional array of the
same shape.  The arrays are the profile's own copies and are never written
after construction, so a profile handed to a placer cannot change under
it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError


class NetworkProfile:
    """Pairwise network measurements for a set of VMs.

    Attributes:
        vms: the VM names covered by this profile.
        intra_vm_rate_bps: rate used for two tasks placed on the same VM;
            the paper models intra-machine paths as essentially infinite.
        measured_at: provider time at which the measurement was taken.
        measurement_duration_s: wall-clock cost of the measurement campaign.
        degraded_pairs: pairs the campaign could not measure (probes failed
            even after retries, see ``MeasurementPlan.max_retries``), mapped
            to a human-readable reason.  Degraded pairs carry no rate —
            consumers fall back to a cached rate or a floor instead of trusting
            a number that was never observed.

    ``rates_bps`` is an ``(n, n)`` array in ``vms`` order (copied; ``NaN`` =
    not measured, the diagonal is ignored).  ``pair_measured_at``, when
    given, is the provider time each ordered pair was probed, as an array of
    the same shape: pairs measured in later campaign rounds carry later
    timestamps, which is what lets a TTL cache invalidate stale pairs
    selectively instead of re-meshing the full N² campaign.  Pairs without
    one fall back to ``measured_at``.  Read them back with
    :meth:`rate_matrix` and :meth:`measured_at_matrix`.
    """

    def __init__(
        self,
        vms: Sequence[str],
        rates_bps: np.ndarray,
        intra_vm_rate_bps: float = math.inf,
        measured_at: float = 0.0,
        measurement_duration_s: float = 0.0,
        pair_measured_at: Optional[np.ndarray] = None,
        degraded_pairs: Optional[Mapping] = None,
    ) -> None:
        self.vms: List[str] = list(vms)
        self._index: Dict[str, int] = {vm: i for i, vm in enumerate(self.vms)}
        if len(self._index) != len(self.vms):
            raise MeasurementError("duplicate VM names in profile")
        self.intra_vm_rate_bps = intra_vm_rate_bps
        self.measured_at = measured_at
        self.measurement_duration_s = measurement_duration_s
        self.degraded_pairs: Dict[Tuple[str, str], str] = dict(degraded_pairs or {})

        rates = self._pair_matrix(rates_bps, "rates_bps")
        non_positive = rates <= 0
        if non_positive.any():
            src, dst = self._first_pair(non_positive)
            raise MeasurementError(f"rate for ({src!r}, {dst!r}) must be positive")
        self._times = None
        if pair_measured_at is not None:
            self._times = self._pair_matrix(pair_measured_at, "pair_measured_at")
            unmeasured = ~np.isnan(self._times) & np.isnan(rates)
            if unmeasured.any():
                raise MeasurementError(
                    "pair_measured_at references unmeasured pair "
                    f"{self._first_pair(unmeasured)!r}"
                )
        for src, dst in self.degraded_pairs:
            i, j = self._index.get(src), self._index.get(dst)
            if i is None or j is None:
                raise MeasurementError(
                    f"degraded pair references unknown VM {src!r} or {dst!r}"
                )
            if i == j:
                raise MeasurementError("degraded_pairs must not contain self pairs")
            if not math.isnan(rates[i, j]):
                raise MeasurementError(
                    f"pair ({src!r}, {dst!r}) is both measured and degraded"
                )
        rates.reshape(-1)[:: len(self.vms) + 1] = intra_vm_rate_bps  # the diagonal
        rates.flags.writeable = False
        self._rates = rates

    def _pair_matrix(self, values: np.ndarray, what: str) -> np.ndarray:
        """``values`` as this profile's own ``(n, n)`` array, diagonal ``NaN``."""
        n = len(self.vms)
        try:
            matrix = np.array(values, dtype=np.float64)  # always our own copy
        except (TypeError, ValueError):
            matrix = None
        if matrix is None or matrix.shape != (n, n):
            got = "no array" if matrix is None else f"shape {matrix.shape}"
            raise MeasurementError(
                f"{what} must be an ({n}, {n}) array in vms order, got {got}"
            )
        matrix.reshape(-1)[:: n + 1] = math.nan  # the diagonal
        return matrix

    def _first_pair(self, mask: np.ndarray) -> Tuple[str, str]:
        """The first (row-major) pair ``mask`` flags, for an error message."""
        i, j = np.argwhere(mask)[0]
        return self.vms[i], self.vms[j]

    # ------------------------------------------------------------- accessors
    @property
    def rates_bps(self) -> Dict[Tuple[str, str], float]:
        """The measured pairs as a ``(src, dst) -> rate`` dict, built on access.

        Its one reader is ``benchmark/workloads.py``'s ``pipeline_dc``
        coverage check, which takes its ``len``; read :meth:`rate_matrix`
        instead.
        """
        present = ~np.isnan(self._rates)
        np.fill_diagonal(present, False)
        rows, cols = np.nonzero(present)
        vms = self.vms
        return {
            (vms[i], vms[j]): rate
            for i, j, rate in zip(
                rows.tolist(), cols.tolist(), self._rates[rows, cols].tolist()
            )
        }

    def measured_at_matrix(self) -> np.ndarray:
        """When each ordered pair was last probed, in ``vms`` order.

        A pair without its own probe time reads ``measured_at``.  ``NaN``
        where the pair was not measured, and on the diagonal — so ``~isnan``
        of it is the mask of the pairs this profile measured.
        """
        measured = ~np.isnan(self._rates)
        np.fill_diagonal(measured, False)
        if self._times is None:
            return np.where(measured, self.measured_at, math.nan)
        return np.where(measured & np.isnan(self._times), self.measured_at, self._times)

    def hose_rate(self, vm: str) -> float:
        """Estimated egress cap of a VM: the maximum measured rate out of it.

        That is the natural hose estimate, as the provider does not
        advertise one.
        """
        i = self._index.get(vm)
        if i is not None:
            outgoing = self._rates[i].copy()
            outgoing[i] = math.nan
            fastest = float(np.fmax.reduce(outgoing))  # fmax skips NaN
            if fastest == fastest:
                return fastest
        raise MeasurementError(f"profile has no measurements out of {vm!r}")

    def rate_matrix(self, order: Optional[Sequence[str]] = None) -> np.ndarray:
        """Dense pairwise-rate array aligned with ``order`` (default: ``vms``).

        Entry ``[i, j]`` is the measured rate from ``order[i]`` to
        ``order[j]``; the diagonal carries ``intra_vm_rate_bps`` and
        unmeasured pairs are ``NaN``.  The default order returns the
        profile's own read-only array; any other order is one gather of it.

        Raises:
            MeasurementError: if ``order`` names a VM outside the profile.
        """
        if order is None:
            return self._rates
        index = self._index
        try:
            at = np.array([index[vm] for vm in order], dtype=np.intp)
        except KeyError as exc:
            raise MeasurementError(
                f"rate_matrix order references unknown VM {exc.args[0]!r}"
            ) from None
        return self._rates.take(at, axis=0).take(at, axis=1)
