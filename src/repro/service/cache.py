"""Measurement cache with per-pair TTL (the service's view of the mesh).

A long-running service cannot afford a full N² campaign at every admission
and every epoch tick.  :class:`MeasurementCache` keeps the last measured
rate and probe time of every ordered pair (the times come from
:meth:`~repro.core.network_profile.NetworkProfile.measured_at_matrix`) and,
on refresh, asks the measurer to re-probe only the pairs whose age exceeds
the TTL — the rest of the mesh is served from cache.  The bootstrap is the
refresh at t = 0, when every pair is never-measured and therefore stale.

The store is two dense ``(M, M)`` float arrays in :attr:`MeasurementCache.vms`
order — last rate and last probe time, ``NaN`` for "never measured" or
"invalidated".  Staleness is one comparison over the time array.  When
every pair is stale the campaign gets ``pairs=None``, the full mesh;
otherwise ``np.argwhere`` hands it the stale pairs as an ``(m, 2)`` array
of positions in row-major order.  The full mesh's schedule is that same
row-major order, so either way the order fixes the campaign schedule, and
through it the probe RNG stream.  The view handed to the placer is a
profile over a copy of the rate array, so an admission makes no per-pair
Python objects for the pairs it re-probes.

The cache also absorbs measurement *failure*: a pair the campaign reports
as degraded (probes failed even after retries) coasts on its last cached
rate, or takes :data:`DEGRADED_FLOOR_BPS` when it has none, and is
deliberately left stale so the next refresh re-probes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro import obs
from repro.cloud.provider import VMFlow
from repro.core.measurement.orchestrator import NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.errors import ServiceError

#: Rate used for a degraded pair with no cached value: effectively "assume
#: the worst", matching the measurer's 1 bps floor.
DEGRADED_FLOOR_BPS = 1.0


@dataclass
class CacheStats:
    """How much mesh work one cache did and avoided.

    :attr:`MeasurementCache.stats` is updated in place by every refresh;
    a session's report carries it.  (Process-wide campaign counts live in
    ``obs.metrics.snapshot()`` under ``repro.measure.*``.)
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
        self.stats = CacheStats()

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
        """Make every pair touching ``vm`` stale (cached rates survive, for
        a pair the next campaign cannot measure to coast on).

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
        self, now: float, background: Sequence[VMFlow] = ()
    ) -> NetworkProfile:
        """Re-probe stale pairs and return the merged full-mesh profile.

        Args:
            now: current provider time (ages are computed against it).
            background: flows the campaign should see as cross traffic.

        A degraded pair coasts on its cached rate, or takes
        :data:`DEGRADED_FLOOR_BPS` without one (only a bootstrap campaign
        can leave a pair so).  Either way its timestamp is *not* advanced,
        so it stays stale and is re-probed on the next refresh.
        """
        n = len(self.vms)
        stale = self._stale(now)
        n_stale = int(np.count_nonzero(stale))
        stats = self.stats
        with obs.span("service.cache_refresh", stale=n_stale):
            if n_stale:
                # The campaign's pairs as positions in ``vms``, in row-major
                # order; the full mesh is the campaign's own schedule.
                fresh = self.measurer.measure(
                    self.vms, background=background,
                    pairs=None if n_stale == n * (n - 1) else np.argwhere(stale),
                )
                probed_at = fresh.measured_at_matrix()
                probed = ~np.isnan(probed_at)
                self._rates[probed] = fresh.rate_matrix()[probed]
                self._measured_at[probed] = probed_at[probed]
                for src, dst in fresh.degraded_pairs:
                    at = self._index[src], self._index[dst]
                    if math.isnan(self._rates[at]):
                        self._rates[at] = DEGRADED_FLOOR_BPS
                degraded = len(fresh.degraded_pairs)
                stats.campaigns += 1
                stats.pairs_measured += n_stale - degraded
                stats.pairs_degraded += degraded
                stats.measurement_time_s += fresh.measurement_duration_s
            stats.pairs_reused += n * (n - 1) - n_stale
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
