"""Measurement cache with per-pair TTL (the service's view of the mesh).

A long-running service cannot afford a full N² campaign at every admission
and every epoch tick.  :class:`MeasurementCache` keeps the last measured
rate and probe time of every ordered pair (the times come from
:attr:`~repro.core.network_profile.NetworkProfile.pair_measured_at`) and,
on refresh, asks the measurer to re-probe only the pairs whose age exceeds
the TTL — the rest of the mesh is served from cache.

The store is two dense ``(M, M)`` float arrays in :attr:`MeasurementCache.vms`
order — last rate and last probe time, ``NaN`` for "never measured" or
"invalidated".  Staleness is one comparison over the time array, and
``np.argwhere`` hands the campaign the stale pairs as an ``(m, 2)`` array of
positions in row-major order, which *is* the order of
:meth:`MeasurementCache.mesh_pairs`: that order fixes the campaign
schedule, and through it the probe RNG stream.  The view handed to the
forecaster and the placer is a profile over a copy of the rate array, so an
admission makes no per-pair Python objects for the pairs it re-probes.

The cache also absorbs measurement *failure*: pairs the campaign reports as
degraded (probes failed even after retries) coast on their last cached rate
or fall back to a caller-supplied predictor, and are deliberately left
stale so the next refresh re-probes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cloud.provider import VMFlow
from repro.core.measurement.orchestrator import NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.errors import ServiceError

#: Rate used for a degraded pair with no cached value and no fallback:
#: effectively "assume the worst", matching the measurer's 1 bps floor.
DEGRADED_FLOOR_BPS = 1.0


@dataclass
class CacheStats:
    """Counters describing how much mesh work the TTL cache avoided.

    Built on demand by :attr:`MeasurementCache.stats` as a thin view over
    the cache's :class:`repro.obs.Counter` instruments (process-wide
    aggregates live in ``obs.metrics.snapshot()`` under
    ``repro.measure.*``).
    """

    campaigns: int = 0
    pairs_measured: int = 0
    pairs_reused: int = 0
    pairs_degraded: int = 0
    measurement_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "campaigns": self.campaigns,
            "pairs_measured": self.pairs_measured,
            "pairs_reused": self.pairs_reused,
            "pairs_degraded": self.pairs_degraded,
            "measurement_time_s": round(self.measurement_time_s, 3),
        }


class MeasurementCache:
    """Keeps per-pair rates fresh within a TTL, re-probing selectively.

    Args:
        measurer: the campaign runner (its plan sets the train, the retries
            and the probe budget; the service uses ``advance_clock=False``
            plans and accounts measurement time explicitly).
        vms: the ordered mesh to cover.
        ttl_s: maximum age before a pair is considered stale.  The default
            of one hour matches the paper's hourly predictability grain.
    """

    def __init__(
        self,
        measurer: NetworkMeasurer,
        vms: Sequence[str],
        ttl_s: float = 3600.0,
    ):
        if ttl_s <= 0:
            raise ServiceError("ttl_s must be positive")
        if len(vms) < 2:
            raise ServiceError("the measurement cache needs at least two VMs")
        self.measurer = measurer
        self.vms = list(vms)
        self.ttl_s = ttl_s
        self._index: Dict[str, int] = {vm: i for i, vm in enumerate(self.vms)}
        n = len(self.vms)
        #: Last rate / probe time per ordered pair; NaN = none (the
        #: diagonal always is).  An invalidated pair keeps its rate.
        self._rates = np.full((n, n), math.nan)
        self._measured_at = np.full((n, n), math.nan)
        self._campaigns = obs.Counter("repro.measure.campaigns")
        self._pairs_measured = obs.Counter("repro.measure.pairs_measured")
        self._pairs_reused = obs.Counter("repro.measure.pairs_reused")
        self._pairs_degraded = obs.Counter("repro.measure.pairs_degraded")
        self._measurement_time = obs.Counter("repro.measure.time_s")

    @property
    def stats(self) -> CacheStats:
        """This cache's counters as a :class:`CacheStats` view."""
        return CacheStats(
            campaigns=self._campaigns.count,
            pairs_measured=self._pairs_measured.count,
            pairs_reused=self._pairs_reused.count,
            pairs_degraded=self._pairs_degraded.count,
            measurement_time_s=self._measurement_time.value,
        )

    # -------------------------------------------------------------- queries
    def mesh_pairs(self) -> List[Tuple[str, str]]:
        """Every ordered pair of the covered mesh."""
        return [(s, d) for s in self.vms for d in self.vms if s != d]

    def stale_pairs(self, now: float) -> List[Tuple[str, str]]:
        """Pairs never measured or older than the TTL at ``now``.

        The comparison is strict: a pair stamped *exactly* ``ttl_s`` ago is
        still fresh — it goes stale the instant after.  The list is in
        :meth:`mesh_pairs` order (row-major over the time array).
        """
        rows, cols = np.nonzero(self._stale(now))
        vms = self.vms
        return [(vms[i], vms[j]) for i, j in zip(rows.tolist(), cols.tolist())]

    def _stale(self, now: float) -> np.ndarray:
        """The ``(M, M)`` mask of :meth:`stale_pairs`."""
        fresh = now - self._measured_at <= self.ttl_s  # NaN compares False
        np.fill_diagonal(fresh, True)
        return ~fresh

    def age_of(self, pair: Tuple[str, str], now: float) -> Optional[float]:
        """Age of a pair's measurement, ``None`` when never measured."""
        i, j = self._index.get(pair[0]), self._index.get(pair[1])
        if i is None or j is None or math.isnan(self._measured_at[i, j]):
            return None
        return now - float(self._measured_at[i, j])

    # ------------------------------------------------------------- topology
    def remove_vm(self, vm: str) -> None:
        """Drop a VM (e.g. preempted) and every pair touching it.

        Raises:
            ServiceError: unknown VM, or fewer than two VMs would remain.
        """
        if vm not in self._index:
            raise ServiceError(f"measurement cache does not cover VM {vm!r}")
        if len(self.vms) <= 2:
            raise ServiceError(
                f"cannot remove {vm!r}: the measurement cache needs at "
                "least two VMs"
            )
        gone = self._index[vm]
        self.vms.remove(vm)
        self._index = {name: i for i, name in enumerate(self.vms)}
        for axis in (0, 1):
            self._rates = np.delete(self._rates, gone, axis=axis)
            self._measured_at = np.delete(self._measured_at, gone, axis=axis)

    def invalidate_pairs(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Force pairs stale (their cached rate survives as a fallback).

        Used for targeted re-measurement: when a fault event degrades a
        VM's link, the service invalidates every pair touching it so the
        next refresh re-probes exactly those.  Returns how many covered
        pairs were actually invalidated.
        """
        invalidated = 0
        for src, dst in pairs:
            i, j = self._index.get(src), self._index.get(dst)
            if i is None or j is None:
                continue
            if not math.isnan(self._measured_at[i, j]):
                self._measured_at[i, j] = math.nan
                invalidated += 1
        return invalidated

    # -------------------------------------------------------------- refresh
    def refresh(
        self,
        now: float,
        background: Sequence[VMFlow] = (),
        force: bool = False,
        fallback: Optional[Callable[[Tuple[str, str]], Optional[float]]] = None,
    ) -> NetworkProfile:
        """Re-probe stale pairs and return the merged full-mesh profile.

        Args:
            now: current provider time (ages are computed against it).
            background: flows the campaign should see as cross traffic.
            force: re-probe the full mesh regardless of age.
            fallback: called with a pair the campaign reported as degraded
                and that has no cached rate; may return a predicted rate
                (the service passes the forecaster here).  Degraded pairs
                with a cached rate coast on it.  Either way the pair's
                timestamp is *not* advanced, so it stays stale and is
                re-probed on the next refresh.
        """
        n = len(self.vms)
        # The campaign's pairs as positions in ``vms``, in mesh_pairs order.
        stale = np.argwhere(~np.eye(n, dtype=bool) if force else self._stale(now))
        with obs.span(
            "service.cache_refresh", stale=len(stale), force=bool(force)
        ):
            if len(stale):
                fresh = self.measurer.measure(
                    self.vms, background=background, pairs=stale
                )
                probed_at = fresh.measured_at_matrix()
                probed = ~np.isnan(probed_at)
                self._rates[probed] = fresh.rate_matrix()[probed]
                self._measured_at[probed] = probed_at[probed]
                index = self._index
                for pair in fresh.degraded_pairs:
                    at = index[pair[0]], index[pair[1]]
                    if math.isnan(self._rates[at]):
                        predicted = (
                            fallback(pair) if fallback is not None else None
                        )
                        self._rates[at] = (
                            predicted if predicted is not None and predicted > 0
                            else DEGRADED_FLOOR_BPS
                        )
                self._campaigns.inc()
                self._pairs_measured.inc(len(stale) - len(fresh.degraded_pairs))
                self._pairs_degraded.inc(len(fresh.degraded_pairs))
                self._measurement_time.inc(fresh.measurement_duration_s)
            self._pairs_reused.inc(n * (n - 1) - len(stale))
            return self.profile(now)

    def profile(self, now: float) -> NetworkProfile:
        """The cache's current view as a full-mesh profile.

        The profile owns a copy of the rate array: later refreshes do not
        change a profile already handed out.
        """
        missing = np.count_nonzero(np.isnan(self._rates)) - len(self.vms)
        if missing:
            raise ServiceError(
                f"measurement cache has never measured {missing} pair(s); "
                "call refresh() first"
            )
        return NetworkProfile(
            self.vms,
            self._rates,
            measured_at=now,
            measurement_duration_s=0.0,
        )
