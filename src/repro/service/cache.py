"""Measurement cache with per-pair TTL (the service's view of the mesh).

A long-running service cannot afford a full N² campaign at every admission
and every epoch tick.  :class:`MeasurementCache` keeps the last measured
rate and probe time of every ordered pair (the times come from
:meth:`~repro.core.network_profile.NetworkProfile.measured_at_matrix`) and,
on refresh, asks the measurer to re-probe only the pairs whose age exceeds
the TTL — the rest of the mesh is served from cache.

The store is two dense ``(M, M)`` float arrays in :attr:`MeasurementCache.vms`
order — last rate and last probe time, ``NaN`` for "never measured" or
"invalidated".  Staleness is one comparison over the time array, and
``np.argwhere`` hands the campaign the stale pairs as an ``(m, 2)`` array of
positions in row-major order: that order fixes the campaign schedule, and
through it the probe RNG stream.  The view handed to the
forecaster and the placer is a profile over a copy of the rate array, so an
admission makes no per-pair Python objects for the pairs it re-probes.

The cache also absorbs measurement *failure*: pairs the campaign reports as
degraded (probes failed even after retries) coast on their last cached rate
or fall back to a caller-supplied predicted rate matrix, and are
deliberately left stale so the next refresh re-probes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

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
        if not ttl_s > 0:
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
    def _stale(self, now: float) -> np.ndarray:
        """The ``(M, M)`` mask of the pairs never measured or older than
        the TTL at ``now``.  The comparison is strict: a pair stamped
        *exactly* ``ttl_s`` ago is still fresh."""
        fresh = now - self._measured_at <= self.ttl_s  # NaN compares False
        np.fill_diagonal(fresh, True)
        return ~fresh

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

    def invalidate_vm(self, vm: str) -> int:
        """Force every pair touching ``vm`` stale (cached rates survive as a
        fallback).

        Used for targeted re-measurement: when a fault event degrades a
        VM's link, the service invalidates its row and column so the next
        refresh re-probes exactly those pairs.  Returns how many pairs were
        invalidated (a pair already stale does not count).

        Raises:
            ServiceError: unknown VM.
        """
        i = self._index.get(vm)
        if i is None:
            raise ServiceError(f"measurement cache does not cover VM {vm!r}")
        row, column = self._measured_at[i], self._measured_at[:, i]
        invalidated = np.count_nonzero(~np.isnan(row)) + np.count_nonzero(
            ~np.isnan(column)
        )
        row[:] = column[:] = math.nan  # views: the diagonal is NaN already
        return int(invalidated)

    # -------------------------------------------------------------- refresh
    def refresh(
        self,
        now: float,
        background: Sequence[VMFlow] = (),
        force: bool = False,
        fallback: Optional[Callable[[Sequence[str]], Optional[np.ndarray]]] = None,
    ) -> NetworkProfile:
        """Re-probe stale pairs and return the merged full-mesh profile.

        Args:
            now: current provider time (ages are computed against it).
            background: flows the campaign should see as cross traffic.
            force: re-probe the full mesh regardless of age.
            fallback: called with :attr:`vms`, at most once per refresh and
                only if a pair the campaign reported as degraded has no
                cached rate; may return a predicted ``(M, M)`` rate matrix
                in that order (the service passes the forecaster here).  A
                degraded pair without a positive prediction gets
                :data:`DEGRADED_FLOOR_BPS`; one with a cached rate coasts
                on it.  Either way the pair's timestamp is *not* advanced,
                so it stays stale and is re-probed on the next refresh.
        """
        n = len(self.vms)
        # The campaign's pairs as positions in ``vms``, in row-major order.
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
                predicted: Optional[np.ndarray] = None
                asked = fallback is None
                for src, dst in fresh.degraded_pairs:
                    at = index[src], index[dst]
                    if math.isnan(self._rates[at]):
                        if not asked:
                            predicted, asked = fallback(self.vms), True
                        value = math.nan if predicted is None else predicted[at]
                        self._rates[at] = value if value > 0 else DEGRADED_FLOOR_BPS
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
