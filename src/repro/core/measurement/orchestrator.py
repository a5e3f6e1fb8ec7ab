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
from repro.cloud.provider import SNAPSHOT_ROUNDS, CloudProvider
from repro.net.flows import Flow
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

#: Most trains a campaign sends as one array program.  A pass goes out in
#: blocks of this many, each reduced to its estimates before the next is
#: drawn, so a campaign holds one block's train arrays (at the default
#: train, 0.7 MB of normals and 0.3 MB per ``(bursts, trains)`` array)
#: however large its mesh.  Policy, not semantics: every block size gives
#: the same profile and the same random stream.  Sized by measurement: a
#: 256-VM campaign takes the same time in blocks of 2 048 to 16 384 trains,
#: less than as one program.
_TRAIN_BLOCK = 4096


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
        background: Sequence[Flow] = (),
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

        # The campaign runs on positions from here on: the schedule holds
        # each probe's provider positions, and ``names`` order is that of
        # the profile.  A name is looked up again only for a pair that
        # fails a probe.
        on_provider = self.provider.vm_positions(names)
        src, dst = self._schedule(names, pairs)
        n_probes = src.shape[0]
        schedule = np.empty((n_probes, 2), dtype=np.intp)
        schedule[:, 0] = on_provider[src]
        schedule[:, 1] = on_provider[dst]
        del src, dst
        started_at = self.provider.now
        pair_time = self.per_pair_time_s()
        retry = _RetryLedger(self.plan, pair_time)
        # Each block scatters its estimates and send times into ``names`` x
        # ``names`` row-major order; a pair whose retries ran out has no
        # estimate and stays NaN.
        n = len(names)
        rates = np.full((n, n), np.nan)
        pair_times = np.full((n, n), np.nan)
        campaign = obs.span("measure.campaign", vms=n, pairs=n_probes)
        rounds_before = SNAPSHOT_ROUNDS.count
        with campaign:
            blocks = self._probe(
                names, on_provider, schedule, background, retry,
                rates.ravel(), pair_times.ravel(), started_at,
            )
            campaign.set(
                blocks=blocks, retries=retry.retries, degraded=len(retry.degraded)
            )
            if background:
                campaign.set(
                    background=len(background),
                    snapshot_rounds=SNAPSHOT_ROUNDS.count - rounds_before,
                )
        del schedule  # before the profile copies the two matrices

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
        on_provider: np.ndarray,
        schedule: np.ndarray,
        background: Sequence[Flow],
        retry: "_RetryLedger",
        rates: np.ndarray,
        pair_times: np.ndarray,
        started_at: float,
    ) -> int:
        """Send the trains of the schedule (provider positions of
        ``names[i] -> names[j]``), writing each measured pair's estimate
        (at least 1 bit/s; NaN where the train was unmeasurable) and send
        time into ``rates`` / ``pair_times``, cell ``i * len(names) + j``.

        Returns the number of blocks sent.  Each pass sends the pending
        trains in schedule order, in blocks of at most :data:`_TRAIN_BLOCK`,
        and writes each block's estimates before it sends the next; probe
        ``k`` of the schedule is sent ``k`` pair times after the campaign
        starts.  A probe an injected fault loses is lost again on every
        retry — the clock stands still during a campaign — and its retries
        draw nothing, so the ledger settles it at once.  A train with no
        measurable packets is a failed attempt too; the trains the ledger
        grants a retry are sent again, with fresh draws, in the next pass.
        Failures are settled in schedule order after their pass.
        """
        spec = self.plan.train_spec
        pair_time = self.per_pair_time_s()
        n = len(names)
        # Each provider position's place in ``names``.
        index = np.zeros(len(self.provider.vms()), dtype=np.intp)
        index[on_provider] = np.arange(n)
        attempts: Dict[int, int] = {}
        blocks = 0
        # The first pass sends the whole schedule; a later one the
        # positions ``pending`` names.
        pending: Optional[np.ndarray] = None
        trains = self.provider.train_pass(schedule, spec, background=background)
        while trains is not None:
            unmeasurable: List[int] = []
            while trains.remaining:
                batch = trains.send(_TRAIN_BLOCK)
                estimates = estimate_throughputs(spec, batch)
                sent = batch.sent if pending is None else pending[batch.sent]
                cells = index[np.take(schedule, sent, axis=0)]
                cells = cells[:, 0] * n + cells[:, 1]
                rates[cells] = np.maximum(estimates, 1.0)
                failed = np.isnan(estimates)
                sent_at = started_at + sent * pair_time
                sent_at[failed] = np.nan
                pair_times[cells] = sent_at
                unmeasurable += sent[failed].tolist()
                blocks += 1
            lost = {
                i if pending is None else int(pending[i]): error
                for i, error in trains.lost.items()
            }
            resend = []
            for position in sorted([*lost, *unmeasurable]):
                src, dst = index[schedule[position]].tolist()
                pair = (names[src], names[dst])
                if position in lost:
                    attempt = 0
                    while retry.failed(pair, attempt, lost[position]):
                        attempt += 1
                    continue
                attempt = attempts.get(position, 0)
                if retry.failed(pair, attempt, UNMEASURABLE):
                    attempts[position] = attempt + 1
                    resend.append(position)
            trains = None
            if resend:
                pending = np.array(resend, dtype=np.intp)
                trains = self.provider.train_pass(
                    schedule[pending], spec, background=background
                )
        return blocks
