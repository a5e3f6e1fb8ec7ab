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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import MeasurementError

#: How per-pair values are spelled to the constructor: an ``(n, n)`` array in
#: ``vms`` order (``NaN`` = no value, diagonal ignored) or a
#: ``(src, dst) -> value`` mapping.
PairValues = Union[np.ndarray, Mapping]


class _PairView(Mapping):
    """Read-only ``(src, dst) -> value`` view of one of a profile's arrays.

    The off-diagonal, non-``NaN`` entries, iterated in row-major order.
    Nothing is built per pair until someone iterates or takes the length.
    """

    def __init__(self, profile: "NetworkProfile", matrix: np.ndarray) -> None:
        self._profile = profile
        self._matrix = matrix
        self._where: Optional[Tuple[List[int], List[int]]] = None

    def _present(self) -> Tuple[List[int], List[int]]:
        if self._where is None:
            present = ~np.isnan(self._matrix)
            np.fill_diagonal(present, False)
            rows, cols = np.nonzero(present)
            self._where = (rows.tolist(), cols.tolist())
        return self._where

    def __getitem__(self, pair: Tuple[str, str]) -> float:
        try:
            src, dst = pair
        except (TypeError, ValueError):
            raise KeyError(pair) from None
        value = math.nan if src == dst else self._profile._entry(self._matrix, src, dst)
        if value != value:
            raise KeyError(pair)
        return value

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        vms = self._profile.vms
        return ((vms[i], vms[j]) for i, j in zip(*self._present()))

    def __len__(self) -> int:
        return len(self._present()[0])


class NetworkProfile:
    """Pairwise network measurements for a set of VMs.

    Attributes:
        vms: the VM names covered by this profile.
        rates_bps: estimated single-connection throughput per ordered pair,
            as a read-only mapping view of the measured pairs.
        intra_vm_rate_bps: rate used for two tasks placed on the same VM;
            the paper models intra-machine paths as essentially infinite.
        measured_at: provider time at which the measurement was taken.
        measurement_duration_s: wall-clock cost of the measurement campaign.
        pair_measured_at: provider time each ordered pair was probed, as a
            read-only mapping view; pairs measured in later campaign rounds
            carry later timestamps, which is what lets a TTL cache
            invalidate stale pairs selectively instead of re-meshing the
            full N² campaign.  Pairs without one fall back to
            ``measured_at``.
        degraded_pairs: pairs the campaign could not measure (probes failed
            even after retries, see ``MeasurementPlan.max_retries``), mapped
            to a human-readable reason.  Degraded pairs carry no rate —
            consumers fall back to a forecast or a floor instead of trusting
            a number that was never observed.

    ``rates_bps`` and ``pair_measured_at`` are each given
    as an ``(n, n)`` array in ``vms`` order (copied; ``NaN`` = no value, the
    diagonal is ignored) or as a ``(src, dst) -> value`` mapping (scattered
    once into the same array; a ``NaN`` *value* there is an error).  Hot
    paths read :meth:`rate` / :meth:`rate_matrix`; the mapping views make
    tuples only when iterated.
    """

    def __init__(
        self,
        vms: Sequence[str],
        rates_bps: PairValues,
        intra_vm_rate_bps: float = math.inf,
        measured_at: float = 0.0,
        measurement_duration_s: float = 0.0,
        pair_measured_at: Optional[PairValues] = None,
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
        if pair_measured_at is not None and len(pair_measured_at):
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
        np.fill_diagonal(rates, intra_vm_rate_bps)
        rates.flags.writeable = False
        self._rates = rates

    def _pair_matrix(self, values: PairValues, what: str) -> np.ndarray:
        """``values`` as this profile's own ``(n, n)`` array, diagonal ``NaN``."""
        n = len(self.vms)
        if not isinstance(values, Mapping):
            matrix = np.array(values, dtype=np.float64)  # always our own copy
            if matrix.shape != (n, n):
                raise MeasurementError(
                    f"{what} matrix shape {matrix.shape} does not match "
                    f"{n} VMs (expected ({n}, {n}))"
                )
            np.fill_diagonal(matrix, math.nan)
            return matrix
        matrix = np.full((n, n), math.nan)
        if values:
            index = self._index
            try:
                rows = [index[src] for src, _ in values]
                cols = [index[dst] for _, dst in values]
            except KeyError as exc:
                raise MeasurementError(
                    f"profile {what} references unknown VM {exc.args[0]!r}"
                ) from None
            data = np.fromiter(values.values(), np.float64, len(values))
            if np.isnan(data).any():
                # In an array NaN means "no value"; in a mapping the pair is
                # named, so a NaN there can only be a bug upstream.
                raise MeasurementError(f"{what} mapping holds a NaN value")
            matrix[rows, cols] = data
            if not np.isnan(matrix.diagonal()).all():
                raise MeasurementError(f"{what} must not contain self pairs")
        return matrix

    def _first_pair(self, mask: np.ndarray) -> Tuple[str, str]:
        """The first (row-major) pair ``mask`` flags, for an error message."""
        i, j = np.argwhere(mask)[0]
        return self.vms[i], self.vms[j]

    def _entry(self, matrix: np.ndarray, src_vm: str, dst_vm: str) -> float:
        """``matrix[src_vm, dst_vm]`` as a float; ``NaN`` for an unknown VM."""
        try:
            return matrix.item(self._index[src_vm], self._index[dst_vm])
        except KeyError:
            return math.nan

    def _view(self, matrix: Optional[np.ndarray]) -> Mapping:
        if matrix is None:
            matrix = np.full(self._rates.shape, math.nan)
        return _PairView(self, matrix)

    @property
    def rates_bps(self) -> Mapping:
        """The measured pairs, as a read-only mapping over the rate matrix."""
        return self._view(self._rates)

    @property
    def pair_measured_at(self) -> Mapping:
        """The pairs with their own probe time, as a read-only mapping."""
        return self._view(self._times)

    # ------------------------------------------------------------- accessors
    def rate(self, src_vm: str, dst_vm: str) -> float:
        """Estimated single-connection throughput from ``src_vm`` to ``dst_vm``."""
        if src_vm == dst_vm:
            return self.intra_vm_rate_bps
        value = self._entry(self._rates, src_vm, dst_vm)
        if value != value:
            raise MeasurementError(
                f"profile has no measurement for ({src_vm!r}, {dst_vm!r})"
            )
        return value

    def has_pair(self, src_vm: str, dst_vm: str) -> bool:
        """True if the ordered pair was measured (self pairs always count)."""
        return src_vm == dst_vm or not math.isnan(
            self._entry(self._rates, src_vm, dst_vm)
        )

    def measured_at_pair(self, src_vm: str, dst_vm: str) -> float:
        """When an ordered pair was last probed (campaign start as fallback)."""
        if not self.has_pair(src_vm, dst_vm):
            raise MeasurementError(
                f"profile has no measurement for ({src_vm!r}, {dst_vm!r})"
            )
        if self._times is not None and src_vm != dst_vm:
            probed_at = self._entry(self._times, src_vm, dst_vm)
            if probed_at == probed_at:
                return probed_at
        return self.measured_at

    def measured_at_matrix(self) -> np.ndarray:
        """:meth:`measured_at_pair` for every ordered pair, in ``vms`` order.

        ``NaN`` where the pair was not measured, and on the diagonal — so
        ``~isnan`` of it is the mask of the pairs this profile measured.
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
        return self._rates if order is None else self._gather(self._rates, order)

    def _gather(self, matrix: np.ndarray, order: Sequence[str]) -> np.ndarray:
        index = self._index
        try:
            at = np.array([index[vm] for vm in order], dtype=np.intp)
        except KeyError as exc:
            raise MeasurementError(
                f"rate_matrix order references unknown VM {exc.args[0]!r}"
            ) from None
        return matrix[np.ix_(at, at)]

    def pairs(self) -> List[Tuple[str, str]]:
        """All measured ordered pairs."""
        return list(self.rates_bps)

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_uniform_rate(
        cls,
        vms: Sequence[str],
        rate_bps: float,
        intra_vm_rate_bps: float = math.inf,
    ) -> "NetworkProfile":
        """A profile where every pair has the same rate (Rackspace-like)."""
        if rate_bps <= 0:
            raise MeasurementError("rate must be positive")
        return cls(
            vms=vms,
            rates_bps=np.full((len(vms), len(vms)), float(rate_bps)),
            intra_vm_rate_bps=intra_vm_rate_bps,
        )

    @classmethod
    def from_rate_function(
        cls,
        vms: Sequence[str],
        rate_fn,
        intra_vm_rate_bps: float = math.inf,
    ) -> "NetworkProfile":
        """A profile built by calling ``rate_fn(src, dst)`` for every pair."""
        rates = [
            [math.nan if a == b else float(rate_fn(a, b)) for b in vms] for a in vms
        ]
        return cls(
            vms=vms,
            rates_bps=np.array(rates, dtype=np.float64),
            intra_vm_rate_bps=intra_vm_rate_bps,
        )
