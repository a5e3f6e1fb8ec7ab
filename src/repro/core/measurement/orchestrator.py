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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.measurement.packet_train import (
    estimate_throughput,
    estimate_throughputs,
)
from repro.core.network_profile import NetworkProfile
from repro.errors import MeasurementError
from repro.net.packets import PacketTrainSpec
from repro.cloud.provider import SNAPSHOT_ROUNDS, CloudProvider, VMFlow
from repro.net.topology import ECMP_HASHED, index_pairs


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
DEFAULT_PER_PAIR_OVERHEAD_S = 1.0


@dataclass(frozen=True)
class MeasurementPlan:
    """What a measurement campaign should do.

    Attributes:
        method: ``"packet_train"`` (fast, the Choreo default) or
            ``"netperf"`` (slow 10-second bulk transfers, the baseline).
        train_spec: packet-train parameters (after §4.1 calibration).
        netperf_duration_s: bulk-transfer duration for the netperf method.
        estimate_cross_traffic: also estimate the equivalent number of
            background connections per path from the measured rate and the
            advertised path capacity.
        per_pair_overhead_s: fixed per-pair orchestration overhead.
        advance_clock: advance the provider clock by the campaign duration.
        parallelism: how many VM-disjoint pairs the central coordinator
            probes simultaneously per round (the paper's coordinator model);
            ``1`` reproduces the serial mesh exactly.
        max_retries: how many times a failed probe of one pair is retried
            (with exponential backoff) before the pair is declared degraded.
        retry_backoff_s: base backoff before the first retry; each further
            retry doubles it.  Backoff and re-probe time are charged to the
            campaign duration so resilience has an honest wall-clock cost.
        probe_budget: campaign-wide cap on *extra* (retry) probes; ``None``
            is unlimited.  Every pair always gets its initial probe.
    """

    method: str = "packet_train"
    train_spec: PacketTrainSpec = field(default_factory=PacketTrainSpec)
    netperf_duration_s: float = 10.0
    estimate_cross_traffic: bool = False
    per_pair_overhead_s: float = DEFAULT_PER_PAIR_OVERHEAD_S
    advance_clock: bool = True
    parallelism: int = 1
    max_retries: int = 2
    retry_backoff_s: float = 2.0
    probe_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in ("packet_train", "netperf"):
            raise MeasurementError(f"unknown measurement method {self.method!r}")
        if self.netperf_duration_s <= 0 or self.per_pair_overhead_s < 0:
            raise MeasurementError("invalid measurement plan timings")
        if self.parallelism < 1:
            raise MeasurementError("parallelism must be >= 1")
        if self.max_retries < 0:
            raise MeasurementError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise MeasurementError("retry_backoff_s must be >= 0")
        if self.probe_budget is not None and self.probe_budget < 0:
            raise MeasurementError("probe_budget must be >= 0 (or None)")


class _RetryLedger:
    """A campaign's retry accounting: budget left, time charged, who degraded."""

    def __init__(self, plan: MeasurementPlan, round_time_s: float):
        self._plan = plan
        self._round_time_s = round_time_s
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
            self._plan.retry_backoff_s * (2.0 ** attempt) + self._round_time_s
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


def _greedy_rounds(src: List[int], dst: List[int], limit: int) -> np.ndarray:
    """The round of each pair: every round takes, in order, the earliest
    pending pairs that share no VM with it, up to ``limit`` of them."""
    round_of = np.zeros(len(src), dtype=np.intp)
    pending = list(range(len(src)))
    current = 0
    while pending:
        busy: set = set()
        rest: List[int] = []
        for at, i in enumerate(pending):
            if src[i] in busy or dst[i] in busy:
                rest.append(i)
                continue
            round_of[i] = current
            busy.add(src[i])
            busy.add(dst[i])
            if len(busy) == 2 * limit:
                rest.extend(pending[at + 1:])
                break
        pending = rest
        current += 1
    return round_of


def _round_count(round_of: np.ndarray) -> int:
    """Rounds of a schedule whose probes' rounds (ascending) are ``round_of``."""
    return int(round_of[-1]) + 1 if round_of.shape[0] else 0


class NetworkMeasurer:
    """Runs measurement campaigns against a provider."""

    def __init__(self, provider: CloudProvider, plan: MeasurementPlan = MeasurementPlan()):
        self.provider = provider
        self.plan = plan

    # ------------------------------------------------------------- timings
    def per_pair_time_s(self) -> float:
        """Wall-clock cost of measuring one ordered pair."""
        if self.plan.method == "netperf":
            active = self.plan.netperf_duration_s
        else:
            spec = self.plan.train_spec
            # One train: bursts plus inter-burst gaps, rounded up to a second
            # of sending/receiving overhead.
            active = max(1.0, spec.n_bursts * self.plan.train_spec.inter_burst_gap_s)
        return active + self.plan.per_pair_overhead_s

    def campaign_time_s(self, n_vms: int) -> float:
        """Wall-clock cost of a full mesh over ``n_vms`` VMs.

        With ``plan.parallelism > 1`` the mesh is probed in rounds of
        VM-disjoint pairs, so the campaign costs one
        :meth:`per_pair_time_s` per *round* rather than per pair.
        """
        if n_vms < 2:
            raise MeasurementError("need at least two VMs")
        if self.plan.parallelism == 1:
            rounds = n_vms * (n_vms - 1)
        else:
            rounds = len(self.schedule_rounds([f"vm{i}" for i in range(n_vms)]))
        return rounds * self.per_pair_time_s()

    def schedule_rounds(
        self,
        vm_names: Sequence[str],
        pairs: Optional[Pairs] = None,
    ) -> List[List[Tuple[str, str]]]:
        """Batch ordered pairs into rounds of non-interfering probes.

        Two probes interfere when they share a VM (they would contend for
        the endpoint's NIC and hose cap), so each round holds at most
        ``plan.parallelism`` pairs with pairwise-disjoint VM sets.  The
        greedy schedule is deterministic: pairs are considered in nested
        source/destination order and each round takes the earliest pairs
        that still fit.  With ``parallelism == 1`` every round holds exactly
        one pair, in the same order the serial mesh used.

        ``pairs`` restricts the schedule to a subset of the mesh (the TTL
        cache's stale pairs), as :meth:`measure` takes it; by default the
        full ordered mesh is probed.  This is the campaign's schedule by
        name; :meth:`measure` itself runs on positions.
        """
        names = _distinct(vm_names)
        src, dst, round_of = self._schedule(names, pairs)
        rounds: List[List[Tuple[str, str]]] = [
            [] for _ in range(_round_count(round_of))
        ]
        for s, d, r in zip(src.tolist(), dst.tolist(), round_of.tolist()):
            rounds[r].append((names[s], names[d]))
        return rounds

    def _schedule(
        self, names: Sequence[str], pairs: Optional[Pairs]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The campaign's probes in the order they are sent: each probe's
        source and destination (positions in ``names``) and its round."""
        n = len(names)
        if pairs is None:
            src = np.repeat(np.arange(n), n - 1)
            dst = np.tile(np.arange(n - 1), n)
            dst += dst >= src
        else:
            at = _pair_positions(names, pairs)
            # Dedupe, keeping each pair where it first appears.
            first = np.unique(at[:, 0] * n + at[:, 1], return_index=True)[1]
            first.sort()
            src, dst = at[first, 0], at[first, 1]
        limit = self.plan.parallelism
        if limit == 1:
            return src, dst, np.arange(src.shape[0])
        round_of = _greedy_rounds(src.tolist(), dst.tolist(), limit)
        order = np.argsort(round_of, kind="stable")
        return src[order], dst[order], round_of[order]

    # ------------------------------------------------------------ campaign
    def measure_pair(
        self,
        src_vm: str,
        dst_vm: str,
        background: Sequence[VMFlow] = (),
    ) -> float:
        """Measure one ordered pair with the configured method."""
        if self.plan.method == "netperf":
            return self.provider.run_netperf(
                src_vm, dst_vm,
                duration=self.plan.netperf_duration_s,
                background=background,
            )
        observation = self.provider.send_packet_train(
            src_vm, dst_vm, spec=self.plan.train_spec, background=background
        )
        return estimate_throughput(observation).rate_bps

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
        :attr:`NetworkProfile.pair_measured_at` — pairs from later campaign
        rounds are measured later, which is what per-pair TTL invalidation
        keys on.

        A probe that raises :class:`MeasurementError` (lost trains, injected
        probe faults) is retried up to ``plan.max_retries`` times with
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
        # the provider's.  A name is looked up again only for the probe
        # being sent one by one, and for a pair that degrades.
        on_provider = self.provider.vm_positions(names)
        src, dst, round_of = self._schedule(names, pairs)
        n_rounds = _round_count(round_of)
        started_at = self.provider.now
        round_time = self.per_pair_time_s()
        retry = _RetryLedger(self.plan, round_time)
        campaign = obs.span(
            "measure.campaign",
            vms=len(names),
            pairs=src.shape[0],
            rounds=n_rounds,
            method=self.plan.method,
        )
        rounds_before = SNAPSHOT_ROUNDS.count
        hashed_before = ECMP_HASHED.count
        with campaign:
            # One array program over the whole schedule when the probes'
            # RNG consumption is fixed up front; pair by pair otherwise.
            reason = (
                "netperf" if self.plan.method == "netperf"
                else self.provider.train_replay_blocker()
            )
            probed = None
            if reason is None:
                probed = self._probe_all(
                    names, src, dst, on_provider, background, retry
                )
                if probed is None:
                    reason = "replay aborted"
            if probed is None:
                probed = self._probe_each(names, src, dst, background, retry)
            if reason is None:
                campaign.set(path="array")
            else:
                campaign.set(path="per-probe", reason=reason)
            campaign.set(
                retries=retry.retries,
                degraded=len(retry.degraded),
                ecmp_hashed=ECMP_HASHED.count - hashed_before,
            )
            if background:
                campaign.set(
                    background=len(background),
                    snapshot_rounds=SNAPSHOT_ROUNDS.count - rounds_before,
                )

        # One scatter per field, into ``names`` x ``names`` row-major order.
        # A pair whose retries ran out is dropped by ``measured``, not by a
        # NaN estimate: a NaN that did get through keeps its probe time, and
        # the profile rejects a probe time without a rate.
        estimates, measured = probed
        n = len(names)
        at = (src * n + dst)[measured]
        rates = np.full((n, n), np.nan)
        np.put(rates, at, np.maximum(estimates, 1.0))
        pair_times = np.full((n, n), np.nan)
        np.put(pair_times, at, started_at + round_of[measured] * round_time)
        cross = None
        if self.plan.estimate_cross_traffic:
            advertised = self.provider.params.instance_type.advertised_egress_bps
            positive = estimates > 0
            rate = estimates[positive]
            cross = np.full((n, n), np.nan)
            # estimate_cross_traffic(rate, max(advertised, rate)), elementwise.
            np.put(
                cross,
                at[positive],
                np.maximum(np.maximum(advertised, rate) / rate - 1.0, 0.0),
            )

        _CAMPAIGNS.inc()
        _PROBES.inc(src.shape[0])
        _RETRIES.inc(retry.retries)
        _DEGRADED.inc(len(retry.degraded))
        duration = n_rounds * round_time + retry.time_s
        if self.plan.advance_clock:
            self.provider.advance_time(duration)
        return NetworkProfile(
            vms=names,
            rates_bps=rates,
            cross_traffic=cross,
            sharing_model="hose",
            measured_at=started_at,
            measurement_duration_s=duration,
            pair_measured_at=pair_times,
            degraded_pairs=retry.degraded,
        )

    def _probe_each(
        self,
        names: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        background: Sequence[VMFlow],
        retry: "_RetryLedger",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe the schedule ``names[src[i]] -> names[dst[i]]`` pair by pair.

        Returns the estimates of the pairs that got one, in schedule order,
        and the mask over the schedule of which pairs those are (``False`` =
        the pair's retries ran out).
        """
        estimates: List[float] = []
        measured = np.zeros(src.shape[0], dtype=bool)
        for position, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            pair = (names[s], names[d])
            attempt = 0
            while True:
                try:
                    estimates.append(self.measure_pair(*pair, background=background))
                    measured[position] = True
                    break
                except MeasurementError as exc:
                    if not retry.failed(pair, attempt, f"{exc}"):
                        break
                    attempt += 1
        return np.array(estimates, dtype=np.float64), measured

    def _probe_all(
        self,
        names: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        on_provider: np.ndarray,
        background: Sequence[VMFlow],
        retry: "_RetryLedger",
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`_probe_each` as one array program over the schedule.

        The clock stands still during a campaign, so a probe an injected
        fault loses is lost again on every retry, and the retries consume no
        randomness: only the ledger sees them.  ``None`` (RNG and ledger
        untouched) when the batch cannot replay the pair-by-pair probes
        exactly.
        """
        batch = self.provider.send_packet_trains(
            on_provider[np.column_stack((src, dst))],
            self.plan.train_spec,
            background=background,
        )
        if batch is None:
            return None
        rates = estimate_throughputs(
            self.plan.train_spec, batch.first_rx_s, batch.last_rx_s
        )
        if not np.isfinite(rates).all():
            # A train without measurable packets fails after its draws and
            # is retried with fresh ones.
            batch.rewind()
            return None
        measured = np.zeros(src.shape[0], dtype=bool)
        measured[batch.sent] = True  # ``sent`` ascends: ``rates`` is in order
        for position, error in batch.lost.items():
            pair = (names[src[position]], names[dst[position]])
            attempt = 0
            while retry.failed(pair, attempt, error):
                attempt += 1
        return rates, measured
