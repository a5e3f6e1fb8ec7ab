"""Full-mesh measurement orchestration (paper §2.2, §4.1).

Choreo measures every ordered VM pair before placing an application.  With
packet trains, a ten-VM topology (90 pairs) takes under three minutes,
including the overhead of collecting results at a central server — versus
ten seconds of netperf per pair.  :class:`NetworkMeasurer` runs that
campaign against a synthetic provider and returns a
:class:`~repro.core.network_profile.NetworkProfile` the placement algorithms
consume; it also tracks how long the campaign would have taken and advances
the provider clock accordingly, so temporal drift is honoured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.measurement.packet_train import UNMEASURABLE, estimate_throughputs
from repro.core.network_profile import NetworkProfile
from repro.errors import MeasurementError
from repro.net.packets import PacketTrainSpec
from repro.cloud.provider import ROUTE_TABLE_ROWS, SNAPSHOT_ROUNDS, CloudProvider, VMFlow
from repro.net.topology import index_pairs


#: Campaign counters (``obs.metrics.snapshot()`` under ``repro.measure.*``):
#: campaigns run, pairs probed, probe retries, pairs degraded after
#: exhausting their retries.  (The provider owns ``snapshot_probes`` and
#: ``snapshot_rounds``, the cost of probing against a background.)
_CAMPAIGNS = obs.Counter("repro.measure.campaigns_run")
_PROBES = obs.Counter("repro.measure.probes")
_RETRIES = obs.Counter("repro.measure.probe_retries")
_DEGRADED = obs.Counter("repro.measure.probes_degraded")


#: Approximate per-pair overhead of collecting train results at a central
#: server (scheduling, ssh, copying timestamps), in seconds.  Chosen so a
#: 90-pair mesh lands a little under three minutes, as reported in §4.1.
PER_PAIR_OVERHEAD_S = 1.0


@dataclass(frozen=True)
class MeasurementPlan:
    """What a measurement campaign should do.

    A campaign probes its ordered pairs one at a time, in nested
    source/destination order, and estimates each pair's single-connection
    rate ``R``.

    Attributes:
        train_spec: packet-train parameters (after §4.1 calibration).
        advance_clock: advance the provider clock by the campaign duration.
        max_retries: how many times a failed probe of one pair is retried
            (with exponential backoff) before the pair is declared degraded.
        retry_backoff_s: base backoff before the first retry; each further
            retry doubles it.  Backoff and re-probe time are charged to the
            campaign duration so resilience has an honest wall-clock cost.
        probe_budget: campaign-wide cap on *extra* (retry) probes; ``None``
            is unlimited.  Every pair always gets its initial probe.
    """

    train_spec: PacketTrainSpec = field(default_factory=PacketTrainSpec)
    advance_clock: bool = True
    max_retries: int = 2
    retry_backoff_s: float = 2.0
    probe_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise MeasurementError("max_retries must be >= 0")
        backoff = self.retry_backoff_s
        if not (math.isfinite(backoff) and backoff >= 0):
            raise MeasurementError(
                f"retry_backoff_s must be finite and >= 0, got {backoff!r}"
            )
        if self.probe_budget is not None and self.probe_budget < 0:
            raise MeasurementError("probe_budget must be >= 0 (or None)")


class _RetryLedger:
    """A campaign's retry accounting: budget left, time charged, who degraded."""

    def __init__(self, plan: MeasurementPlan, pair_time_s: float):
        self._plan = plan
        self._pair_time_s = pair_time_s
        self._retries_left = plan.probe_budget  # None == unlimited
        self.retries = 0
        self.time_s = 0.0
        self.degraded: Dict[Tuple[str, str], str] = {}

    def failed(self, pair: Tuple[str, str], attempt: int, error: str) -> bool:
        """Account for the failure of ``pair``'s probe number ``attempt``.

        True when the pair gets another probe (its backoff and re-probe time
        charged); False when it is out of retries or budget and degrades.
        """
        out_of_budget = self._retries_left is not None and self._retries_left <= 0
        if attempt >= self._plan.max_retries or out_of_budget:
            reason = "probe budget exhausted" if out_of_budget else error
            self.degraded[pair] = f"{attempt + 1} probe(s) failed: {reason}"
            return False
        self.time_s += (
            self._plan.retry_backoff_s * (2.0 ** attempt) + self._pair_time_s
        )
        if self._retries_left is not None:
            self._retries_left -= 1
        self.retries += 1
        return True


#: A campaign's ordered pairs: ``(src, dst)`` VM names, or an ``(m, 2)``
#: integer array of positions in the campaign's VM list.
Pairs = Union[Sequence[Tuple[str, str]], np.ndarray]


def _distinct(vm_names: Sequence[str]) -> List[str]:
    names = list(vm_names)
    if len(set(names)) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise MeasurementError(f"duplicate VM names {repeated!r} in {names!r}")
    return names


def _pair_positions(names: Sequence[str], pairs: Pairs) -> np.ndarray:
    """``pairs`` as an ``(m, 2)`` array of positions in ``names``, each row
    checked to be two distinct VMs of ``names``."""
    if isinstance(pairs, np.ndarray):
        at = index_pairs(pairs, len(names), "pair positions", MeasurementError)
        at = at.astype(np.intp, copy=False)
    else:
        pairs = list(pairs)
        index = {vm: i for i, vm in enumerate(names)}
        flat = [index.get(name, -1) for pair in pairs for name in pair]
        if len(flat) != 2 * len(pairs):
            raise MeasurementError("every scheduled pair must be a (src, dst) pair")
        at = np.array(flat, dtype=np.intp).reshape(-1, 2)
    bad = (at[:, 0] == at[:, 1]) | (at < 0).any(axis=1)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        src, dst = at[first].tolist() if isinstance(pairs, np.ndarray) else pairs[first]
        raise MeasurementError(f"cannot schedule pair ({src!r}, {dst!r})")
    return at


class NetworkMeasurer:
    """Runs measurement campaigns against a provider."""

    def __init__(self, provider: CloudProvider, plan: MeasurementPlan = MeasurementPlan()):
        self.provider = provider
        self.plan = plan

    # ------------------------------------------------------------- timings
    def per_pair_time_s(self) -> float:
        """Wall-clock cost of measuring one ordered pair."""
        spec = self.plan.train_spec
        # One train: bursts plus inter-burst gaps, rounded up to a second of
        # sending/receiving overhead.
        active = max(1.0, spec.n_bursts * spec.inter_burst_gap_s)
        return active + PER_PAIR_OVERHEAD_S

    @staticmethod
    def _schedule(
        names: Sequence[str], pairs: Optional[Pairs]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The campaign's probes in the order they are sent, one at a time:
        each probe's source and destination (positions in ``names``)."""
        n = len(names)
        if pairs is None:
            # Probe k of the full mesh: source k // (n - 1), and the
            # (k % (n - 1))-th of the other VMs.
            src, dst = np.divmod(np.arange(n * (n - 1)), n - 1)
            dst += dst >= src
            return src, dst
        at = _pair_positions(names, pairs)
        # Dedupe, keeping each pair where it first appears.
        first = np.unique(at[:, 0] * n + at[:, 1], return_index=True)[1]
        first.sort()
        return at[first, 0], at[first, 1]

    # ------------------------------------------------------------ campaign
    def measure(
        self,
        vm_names: Optional[Sequence[str]] = None,
        background: Sequence[VMFlow] = (),
        pairs: Optional[Pairs] = None,
    ) -> NetworkProfile:
        """Measure the (full or partial) mesh and return a :class:`NetworkProfile`.

        Args:
            vm_names: VMs to include; defaults to every VM on the provider.
            background: flows currently running on the tenant's VMs (e.g.
                previously placed applications, §2.4) that the measurement
                should see as cross traffic.
            pairs: restrict the campaign to these ordered pairs (the stale
                subset of a TTL cache) — ``(src, dst)`` names, or an
                ``(m, 2)`` integer array of positions in ``vm_names``; the
                returned profile covers only them.  ``None`` probes the
                full ordered mesh.

        Every probed pair carries its own timestamp in
        :meth:`NetworkProfile.measured_at_matrix` — a pair probed later in the
        campaign is measured later, which is what per-pair TTL invalidation
        keys on.

        A failed probe (an injected probe fault, a train with no measurable
        packet) is retried up to ``plan.max_retries`` times with
        exponential backoff, drawing on the shared ``plan.probe_budget``;
        a pair whose retries are exhausted lands in
        :attr:`NetworkProfile.degraded_pairs` instead of crashing the
        campaign.

        Raises:
            MeasurementError, CloudError: fewer than two VMs, a repeated or
                unknown VM, a pair that is not two distinct VMs of
                ``vm_names`` — all before the first probe draws anything.
        """
        names = _distinct(
            vm_names
            if vm_names is not None
            else [vm.name for vm in self.provider.vms()]
        )
        if len(names) < 2:
            raise MeasurementError("need at least two VMs to measure")

        # The campaign runs on positions from here on: ``src``/``dst`` index
        # ``names`` (the profile's order), ``on_provider`` turns them into
        # the provider's.  A name is looked up again only for a pair that
        # fails a probe.
        on_provider = self.provider.vm_positions(names)
        src, dst = self._schedule(names, pairs)
        n_probes = src.shape[0]
        started_at = self.provider.now
        pair_time = self.per_pair_time_s()
        retry = _RetryLedger(self.plan, pair_time)
        campaign = obs.span("measure.campaign", vms=len(names), pairs=n_probes)
        rounds_before = SNAPSHOT_ROUNDS.count
        routed_before = ROUTE_TABLE_ROWS.count
        with campaign:
            estimates = self._probe(names, src, dst, on_provider, background, retry)
            campaign.set(
                retries=retry.retries,
                degraded=len(retry.degraded),
                routed=ROUTE_TABLE_ROWS.count - routed_before,
            )
            if background:
                campaign.set(
                    background=len(background),
                    snapshot_rounds=SNAPSHOT_ROUNDS.count - rounds_before,
                )

        # One scatter per field, into ``names`` x ``names`` row-major order;
        # a pair whose retries ran out has no estimate and stays NaN (which
        # ``maximum`` propagates).  Probe ``i`` is sent ``i`` pair times
        # after the campaign starts.
        n = len(names)
        at = src * n + dst
        rates = np.full((n, n), np.nan)
        rates.ravel()[at] = np.maximum(estimates, 1.0)
        sent_at = started_at + np.arange(n_probes) * pair_time
        sent_at[np.isnan(estimates)] = np.nan
        pair_times = np.full((n, n), np.nan)
        pair_times.ravel()[at] = sent_at

        _CAMPAIGNS.inc()
        _PROBES.inc(n_probes)
        _RETRIES.inc(retry.retries)
        _DEGRADED.inc(len(retry.degraded))
        duration = n_probes * pair_time + retry.time_s
        if self.plan.advance_clock:
            self.provider.advance_time(duration)
        return NetworkProfile(
            vms=names,
            rates_bps=rates,
            measured_at=started_at,
            measurement_duration_s=duration,
            pair_measured_at=pair_times,
            degraded_pairs=retry.degraded,
        )

    def _probe(
        self,
        names: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        on_provider: np.ndarray,
        background: Sequence[VMFlow],
        retry: "_RetryLedger",
    ) -> np.ndarray:
        """Send the trains of the schedule ``names[src[i]] -> names[dst[i]]``.

        Returns each pair's estimate, NaN where the pair's retries ran out.
        Each pass sends the pending trains as one array program and
        estimates them.  A probe an injected fault loses is lost again on
        every retry — the clock stands still during a campaign — and its
        retries draw nothing, so the ledger settles it at once.  A train
        with no measurable packets is a failed attempt too; the trains the
        ledger grants a retry are sent again, with fresh draws, in the next
        pass.  Failures are settled in schedule order within a pass.
        """
        estimates = np.full(src.shape[0], np.nan)
        attempts: Dict[int, int] = {}
        # The provider's positions of every probe; the first pass sends
        # them all, a later one the rows ``pending`` names.
        probes = on_provider[np.array((src, dst))].T
        schedule, pending = probes, np.arange(src.shape[0])
        while pending.shape[0]:
            batch = self.provider.send_packet_trains(
                schedule, self.plan.train_spec, background=background
            )
            rates = estimate_throughputs(self.plan.train_spec, batch)
            sent = pending[batch.sent]
            estimates[sent] = rates
            lost = {int(pending[i]): error for i, error in batch.lost.items()}
            resend = []
            for position in sorted([*lost, *sent[np.isnan(rates)].tolist()]):
                pair = (names[src[position]], names[dst[position]])
                if position in lost:
                    attempt = 0
                    while retry.failed(pair, attempt, lost[position]):
                        attempt += 1
                    continue
                attempt = attempts.get(position, 0)
                if retry.failed(pair, attempt, UNMEASURABLE):
                    attempts[position] = attempt + 1
                    resend.append(position)
            pending = np.array(resend, dtype=np.intp)
            schedule = probes[pending]
        return estimates
