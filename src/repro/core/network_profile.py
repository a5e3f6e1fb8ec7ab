"""The measured view of the cloud network (output of Choreo's measurement).

A :class:`NetworkProfile` is what Choreo's placement algorithms consume: the
estimated single-connection TCP throughput for every ordered VM pair
(``R`` in the Appendix), optional per-path cross-traffic estimates (``c``
from §3.2), optional per-VM hose-rate estimates, and which sharing model the
measurements support ("hose" on EC2/Rackspace, §4.4).
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError


@dataclass
class NetworkProfile:
    """Pairwise network measurements for a set of VMs.

    Attributes:
        vms: the VM names covered by this profile.
        rates_bps: estimated single-connection throughput per ordered pair.
        intra_vm_rate_bps: rate used for two tasks placed on the same VM;
            the paper models intra-machine paths as essentially infinite.
        cross_traffic: per-ordered-pair equivalent number of background bulk
            connections (``c`` from §3.2), defaulting to zero.
        hose_rates_bps: per-VM estimated egress cap; when missing, the
            maximum measured rate out of the VM is used.
        sharing_model: ``"hose"`` (connections out of one VM share its
            egress cap) or ``"pipe"`` (connections on the same path share
            that path's rate) — §4.4 finds "hose" on EC2 and Rackspace.
        measured_at: provider time at which the measurement was taken.
        measurement_duration_s: wall-clock cost of the measurement campaign.
        pair_measured_at: provider time each ordered pair was probed; pairs
            measured in later campaign rounds carry later timestamps, which
            is what lets a TTL cache invalidate stale pairs selectively
            instead of re-meshing the full N² campaign.  Pairs missing from
            the map fall back to ``measured_at``.
        degraded_pairs: pairs the campaign could not measure (probes failed
            even after retries, see ``MeasurementPlan.max_retries``), mapped
            to a human-readable reason.  Degraded pairs carry no rate —
            consumers fall back to a forecast or a floor instead of trusting
            a number that was never observed.
    """

    vms: List[str]
    rates_bps: Dict[Tuple[str, str], float]
    intra_vm_rate_bps: float = math.inf
    cross_traffic: Dict[Tuple[str, str], float] = field(default_factory=dict)
    hose_rates_bps: Dict[str, float] = field(default_factory=dict)
    sharing_model: str = "hose"
    measured_at: float = 0.0
    measurement_duration_s: float = 0.0
    pair_measured_at: Dict[Tuple[str, str], float] = field(default_factory=dict)
    degraded_pairs: Dict[Tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate_header()
        known = set(self.vms)
        for (src, dst), rate in self.rates_bps.items():
            if src not in known or dst not in known:
                raise MeasurementError(
                    f"profile rate references unknown VM {src!r} or {dst!r}"
                )
            if rate <= 0:
                raise MeasurementError(f"rate for ({src!r}, {dst!r}) must be positive")
            if src == dst:
                raise MeasurementError("rates_bps must not contain self pairs")
        for c in self.cross_traffic.values():
            if c < 0:
                raise MeasurementError("cross traffic estimates must be >= 0")
        for pair in self.pair_measured_at:
            if pair not in self.rates_bps:
                raise MeasurementError(
                    f"pair_measured_at references unmeasured pair {pair!r}"
                )
        for (src, dst) in self.degraded_pairs:
            if src not in known or dst not in known:
                raise MeasurementError(
                    f"degraded pair references unknown VM {src!r} or {dst!r}"
                )
            if src == dst:
                raise MeasurementError("degraded_pairs must not contain self pairs")
            if (src, dst) in self.rates_bps:
                raise MeasurementError(
                    f"pair ({src!r}, {dst!r}) is both measured and degraded"
                )
        # Lazily built by rate_matrix(); invalidated when the number of
        # measured pairs changes (profiles are otherwise treated as
        # immutable once placement starts consuming them).
        self._matrix_cache: Optional[np.ndarray] = None
        self._matrix_cache_pairs: int = -1

    def _validate_header(self) -> None:
        """The checks that do not look at individual pairs."""
        if len(set(self.vms)) != len(self.vms):
            raise MeasurementError("duplicate VM names in profile")
        if self.sharing_model not in ("hose", "pipe"):
            raise MeasurementError(
                f"sharing_model must be 'hose' or 'pipe', got {self.sharing_model!r}"
            )

    # ------------------------------------------------------------- accessors
    def rate(self, src_vm: str, dst_vm: str) -> float:
        """Estimated single-connection throughput from ``src_vm`` to ``dst_vm``."""
        if src_vm == dst_vm:
            return self.intra_vm_rate_bps
        try:
            return self.rates_bps[(src_vm, dst_vm)]
        except KeyError as exc:
            raise MeasurementError(
                f"profile has no measurement for ({src_vm!r}, {dst_vm!r})"
            ) from exc

    def has_pair(self, src_vm: str, dst_vm: str) -> bool:
        """True if the ordered pair was measured (self pairs always count)."""
        return src_vm == dst_vm or (src_vm, dst_vm) in self.rates_bps

    def measured_at_pair(self, src_vm: str, dst_vm: str) -> float:
        """When an ordered pair was last probed (campaign start as fallback)."""
        if not self.has_pair(src_vm, dst_vm):
            raise MeasurementError(
                f"profile has no measurement for ({src_vm!r}, {dst_vm!r})"
            )
        return self.pair_measured_at.get((src_vm, dst_vm), self.measured_at)

    def cross(self, src_vm: str, dst_vm: str) -> float:
        """Cross-traffic estimate ``c`` for a pair (0 when not measured)."""
        if src_vm == dst_vm:
            return 0.0
        return self.cross_traffic.get((src_vm, dst_vm), 0.0)

    def hose_rate(self, vm: str) -> float:
        """Estimated egress cap of a VM.

        Falls back to the maximum measured rate out of the VM, which is the
        natural hose estimate when the provider does not advertise one.
        """
        if vm in self.hose_rates_bps:
            return self.hose_rates_bps[vm]
        outgoing = [rate for (src, _), rate in self.rates_bps.items() if src == vm]
        if not outgoing:
            raise MeasurementError(f"profile has no measurements out of {vm!r}")
        return max(outgoing)

    def rate_matrix(self, order: Optional[Sequence[str]] = None) -> np.ndarray:
        """Dense pairwise-rate array aligned with ``order`` (default: ``vms``).

        Entry ``[i, j]`` is the measured rate from ``order[i]`` to
        ``order[j]``; the diagonal carries ``intra_vm_rate_bps`` and
        unmeasured pairs are ``NaN``.  Built in one pass over the measured
        pairs and cached for the default order, so hierarchical placement
        can cluster a large mesh without N² dictionary lookups.  Callers
        must treat the returned array as read-only.

        Raises:
            MeasurementError: if ``order`` names a VM outside the profile.
        """
        if order is None:
            if (
                self._matrix_cache is not None
                and self._matrix_cache_pairs == len(self.rates_bps)
            ):
                return self._matrix_cache
            names = self.vms
        else:
            names = list(order)
            known = set(self.vms)
            for vm in names:
                if vm not in known:
                    raise MeasurementError(
                        f"rate_matrix order references unknown VM {vm!r}"
                    )
        index = {vm: i for i, vm in enumerate(names)}
        matrix = np.full((len(names), len(names)), math.nan)
        np.fill_diagonal(matrix, self.intra_vm_rate_bps)
        for (src, dst), rate in self.rates_bps.items():
            i = index.get(src)
            j = index.get(dst)
            if i is not None and j is not None:
                matrix[i, j] = rate
        if order is None:
            self._matrix_cache = matrix
            self._matrix_cache_pairs = len(self.rates_bps)
        return matrix

    def pairs(self) -> List[Tuple[str, str]]:
        """All measured ordered pairs."""
        return list(self.rates_bps.keys())

    def fastest_pairs(self, n: Optional[int] = None) -> List[Tuple[str, str, float]]:
        """Measured pairs sorted by descending rate (ties broken by name)."""
        ranked = sorted(
            ((src, dst, rate) for (src, dst), rate in self.rates_bps.items()),
            key=lambda item: (-item[2], item[0], item[1]),
        )
        return ranked if n is None else ranked[:n]

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_uniform_rate(
        cls,
        vms: Sequence[str],
        rate_bps: float,
        intra_vm_rate_bps: float = math.inf,
        sharing_model: str = "hose",
    ) -> "NetworkProfile":
        """A profile where every pair has the same rate (Rackspace-like)."""
        if rate_bps <= 0:
            raise MeasurementError("rate must be positive")
        rates = {
            (a, b): rate_bps for a in vms for b in vms if a != b
        }
        return cls(
            vms=list(vms),
            rates_bps=rates,
            intra_vm_rate_bps=intra_vm_rate_bps,
            sharing_model=sharing_model,
        )

    @classmethod
    def from_rate_function(
        cls,
        vms: Sequence[str],
        rate_fn,
        intra_vm_rate_bps: float = math.inf,
        sharing_model: str = "hose",
    ) -> "NetworkProfile":
        """A profile built by calling ``rate_fn(src, dst)`` for every pair."""
        rates = {}
        for a in vms:
            for b in vms:
                if a != b:
                    rates[(a, b)] = float(rate_fn(a, b))
        return cls(
            vms=list(vms),
            rates_bps=rates,
            intra_vm_rate_bps=intra_vm_rate_bps,
            sharing_model=sharing_model,
        )


class _MatrixRates(MappingABC):
    """Read-only ``(src, dst) -> rate`` view of a rate matrix's measured pairs.

    What :attr:`NetworkProfile.rates_bps` is on a matrix-backed profile: the
    off-diagonal, non-``NaN`` entries, iterated in row-major order — the
    order a full-mesh campaign inserts pairs into the dict form.  Nothing
    is built per pair until someone iterates or takes the length.
    """

    def __init__(
        self, vms: List[str], index: Dict[str, int], matrix: np.ndarray
    ) -> None:
        self._vms = vms
        self._index = index
        self._matrix = matrix
        self._where: Optional[Tuple[List[int], List[int]]] = None

    def _measured(self) -> Tuple[List[int], List[int]]:
        if self._where is None:
            measured = ~np.isnan(self._matrix)
            np.fill_diagonal(measured, False)
            rows, cols = np.nonzero(measured)
            self._where = (rows.tolist(), cols.tolist())
        return self._where

    def __getitem__(self, pair: Tuple[str, str]) -> float:
        try:
            src, dst = pair
            i, j = self._index[src], self._index[dst]
        except (TypeError, ValueError, KeyError):
            raise KeyError(pair) from None
        value = self._matrix[i, j]
        if i == j or math.isnan(value):
            raise KeyError(pair)
        return float(value)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        vms = self._vms
        rows, cols = self._measured()
        return ((vms[i], vms[j]) for i, j in zip(rows, cols))

    def __len__(self) -> int:
        return len(self._measured()[0])


class MatrixNetworkProfile(NetworkProfile):
    """A :class:`NetworkProfile` whose rates live in a dense NumPy matrix.

    A dict keyed by ordered VM pairs costs hundreds of bytes per entry — a
    4096-VM mesh is ~16.7M pairs, far past what the tuple-keyed
    representation can hold — and a service that rebuilds a 40-VM mesh's
    dict at every admission spends its time making tuples.  This subclass
    stores the same measurements as one float64 ``(n, n)`` array (``NaN``
    marks unmeasured pairs, the diagonal is the intra-VM rate; the profile
    keeps its own read-only copy) and overrides the per-pair accessors to
    index into it, so the online service's admission path, datacenter-scale
    synthetic meshes and hierarchical placement
    stay in array land end to end.

    :attr:`rates_bps` is a read-only mapping *view* of the matrix (see
    :class:`_MatrixRates`): pair-dict consumers — :meth:`pairs`,
    :meth:`fastest_pairs`, tests — see exactly the measured pairs, but
    tuples are only made when they iterate it.  Hot paths go through
    :meth:`rate` / :meth:`rate_matrix`.
    """

    def __init__(
        self,
        vms: Sequence[str],
        matrix: "np.ndarray",
        intra_vm_rate_bps: float = math.inf,
        hose_rates_bps: Optional[Mapping[str, float]] = None,
        sharing_model: str = "hose",
        measured_at: float = 0.0,
        measurement_duration_s: float = 0.0,
    ) -> None:
        matrix = np.array(matrix, dtype=np.float64)  # always our own copy
        n = len(vms)
        if matrix.shape != (n, n):
            raise MeasurementError(
                f"rate matrix shape {matrix.shape} does not match "
                f"{n} VMs (expected ({n}, {n}))"
            )
        np.fill_diagonal(matrix, math.nan)
        if np.any(matrix <= 0):
            raise MeasurementError("matrix rates must be positive")
        np.fill_diagonal(matrix, intra_vm_rate_bps)
        matrix.flags.writeable = False
        self._matrix = matrix
        # The dataclass fields, set directly: ``rates_bps`` is a view here,
        # so the generated ``__init__`` (which assigns it) does not apply.
        self.vms = list(vms)
        self.intra_vm_rate_bps = intra_vm_rate_bps
        self.cross_traffic = {}
        self.hose_rates_bps = dict(hose_rates_bps or {})
        self.sharing_model = sharing_model
        self.measured_at = measured_at
        self.measurement_duration_s = measurement_duration_s
        self.pair_measured_at = {}
        self.degraded_pairs = {}
        self._validate_header()
        self._index: Dict[str, int] = {vm: i for i, vm in enumerate(self.vms)}
        self._rates_view = _MatrixRates(self.vms, self._index, matrix)

    @property
    def rates_bps(self) -> Mapping[Tuple[str, str], float]:
        """The measured pairs, as a read-only mapping over the matrix."""
        return self._rates_view

    # ------------------------------------------------------------- accessors
    def rate(self, src_vm: str, dst_vm: str) -> float:
        if src_vm == dst_vm:
            return self.intra_vm_rate_bps
        try:
            value = self._matrix[self._index[src_vm], self._index[dst_vm]]
        except KeyError:
            raise MeasurementError(
                f"profile has no measurement for ({src_vm!r}, {dst_vm!r})"
            ) from None
        if math.isnan(value):
            raise MeasurementError(
                f"profile has no measurement for ({src_vm!r}, {dst_vm!r})"
            )
        return float(value)

    def has_pair(self, src_vm: str, dst_vm: str) -> bool:
        if src_vm == dst_vm:
            return True
        i = self._index.get(src_vm)
        j = self._index.get(dst_vm)
        if i is None or j is None:
            return False
        return not math.isnan(self._matrix[i, j])

    def measured_at_pair(self, src_vm: str, dst_vm: str) -> float:
        if not self.has_pair(src_vm, dst_vm):
            raise MeasurementError(
                f"profile has no measurement for ({src_vm!r}, {dst_vm!r})"
            )
        return self.measured_at

    def hose_rate(self, vm: str) -> float:
        if vm in self.hose_rates_bps:
            return self.hose_rates_bps[vm]
        i = self._index.get(vm)
        if i is None:
            raise MeasurementError(f"profile has no measurements out of {vm!r}")
        row = self._matrix[i].copy()
        row[i] = math.nan
        if np.all(np.isnan(row)):
            raise MeasurementError(f"profile has no measurements out of {vm!r}")
        return float(np.nanmax(row))

    def rate_matrix(self, order: Optional[Sequence[str]] = None) -> np.ndarray:
        if order is None:
            return self._matrix
        rows = []
        for vm in order:
            i = self._index.get(vm)
            if i is None:
                raise MeasurementError(
                    f"rate_matrix order references unknown VM {vm!r}"
                )
            rows.append(i)
        idx = np.asarray(rows, dtype=np.intp)
        return self._matrix[np.ix_(idx, idx)]
