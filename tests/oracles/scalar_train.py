"""The packet train one probe at a time — the oracle the array program is held to.

Until the campaign became one array program for lossy providers too, the
package carried a second, scalar implementation of §3.1's packet train in
three layers, and ``NetworkMeasurer`` fell back to it pair by pair.  This
module keeps that code, moved in verbatim:

* from ``repro.net.packets``: :class:`TokenBucket`,
  :class:`PathTransmissionModel`, :class:`BurstObservation`,
  :class:`TrainObservation` and :func:`send_packet_train`;
* from ``repro.core.measurement.packet_train``: :func:`mathis_throughput`,
  :class:`ThroughputEstimate`, :func:`_corrected_span` and
  :func:`estimate_throughput`;
* from ``repro.cloud.provider.CloudProvider``: ``path_hop_count``, ``rtt``,
  ``packet_train_model`` and ``send_packet_train`` — methods there,
  functions of the provider here (``self`` is ``provider``; the provider's
  ``LatencyModel()`` without noise is :func:`repro.net.latency.rtt_s`);
* from ``repro.core.measurement.orchestrator.NetworkMeasurer``: the
  packet-train branch of ``measure_pair``, as :func:`measure_pair`.

On a lossless provider a train consumes one rate-noise normal and
``2 * n_bursts`` jitter normals, the same stream the array program draws in
one block, so ``tests/test_campaign_batch.py`` holds every lossless campaign
to this module bit for bit.  A lossy train interleaves a binomial (and a
``choice``) per burst with its jitter draws; the array program draws its
losses after the block instead, so ``tests/test_lossy_trains.py`` compares
the two statistically, and compares the estimators exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.provider import CloudProvider, VMFlow
from repro.core.measurement.packet_train import MATHIS_C
from repro.errors import CloudError, MeasurementError
from repro.net.latency import rtt_s
from repro.net.packets import PacketTrainSpec
from repro.units import BITS_PER_BYTE, GBITPS


# ------------------------------------------------------ repro.net.packets
@dataclass
class TokenBucket:
    """A classic token bucket rate limiter.

    Attributes:
        rate_bps: long-term token refill rate (the enforced rate).
        depth_bytes: bucket depth; bursts shorter than this pass at line
            rate before the limiter bites.
        tokens_bytes: current fill level (defaults to a full bucket).
    """

    rate_bps: float
    depth_bytes: float
    tokens_bytes: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise MeasurementError("token bucket rate must be positive")
        if self.depth_bytes < 0:
            raise MeasurementError("token bucket depth must be >= 0")
        if self.tokens_bytes is None:
            self.tokens_bytes = self.depth_bytes
        self.tokens_bytes = min(self.tokens_bytes, self.depth_bytes)

    def refill(self, elapsed_s: float) -> None:
        """Add ``elapsed_s`` seconds worth of tokens (capped at the depth)."""
        if elapsed_s < 0:
            raise MeasurementError("cannot refill for negative time")
        self.tokens_bytes = min(
            self.depth_bytes,
            self.tokens_bytes + self.rate_bps * elapsed_s / BITS_PER_BYTE,
        )

    def drain_time(self, burst_bytes: float, fast_rate_bps: float) -> float:
        """Seconds to push ``burst_bytes`` through the limiter, consuming tokens.

        While tokens remain the burst is served at ``fast_rate_bps`` (tokens
        drain at the difference between service and refill); once the bucket
        empties the remainder is served at the refill rate.  The bucket's
        fill level is updated in place.
        """
        if burst_bytes <= 0:
            return 0.0
        fast_rate = max(fast_rate_bps, self.rate_bps)
        if fast_rate <= self.rate_bps or self.depth_bytes == 0:
            # The limiter is never the binding constraint beyond its rate.
            self.tokens_bytes = min(self.depth_bytes, self.tokens_bytes)
            return burst_bytes * BITS_PER_BYTE / self.rate_bps

        # Phase 1: tokens available, serve at the fast rate.
        token_drain_rate = (fast_rate - self.rate_bps) / BITS_PER_BYTE  # bytes/s
        time_to_empty = self.tokens_bytes / token_drain_rate if token_drain_rate > 0 else math.inf
        fast_phase_bytes = fast_rate * time_to_empty / BITS_PER_BYTE

        if burst_bytes <= fast_phase_bytes:
            duration = burst_bytes * BITS_PER_BYTE / fast_rate
            self.tokens_bytes -= token_drain_rate * duration
            self.tokens_bytes = max(0.0, self.tokens_bytes)
            return duration

        # Phase 2: bucket empty, serve the remainder at the refill rate.
        remainder = burst_bytes - fast_phase_bytes
        self.tokens_bytes = 0.0
        return time_to_empty + remainder * BITS_PER_BYTE / self.rate_bps


@dataclass
class PathTransmissionModel:
    """Everything the burst model needs to know about one VM-to-VM path.

    Attributes:
        line_rate_bps: rate at which the sender's NIC emits packets.
        unlimited_rate_bps: rate the path would deliver absent provider rate
            limiting (physical bottleneck share given current cross traffic).
        limiter: optional provider rate limiter (hose enforcement).
        base_delay_s: one-way propagation plus forwarding delay.
        jitter_std_s: standard deviation of the timestamp noise added to the
            first/last packet receive times of each burst.
        loss_rate: independent per-packet loss probability.
    """

    line_rate_bps: float
    unlimited_rate_bps: float
    limiter: Optional[TokenBucket] = None
    base_delay_s: float = 100e-6
    jitter_std_s: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.line_rate_bps <= 0 or self.unlimited_rate_bps <= 0:
            raise MeasurementError("line and unlimited rates must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise MeasurementError("loss_rate must be in [0, 1)")
        if self.jitter_std_s < 0 or self.base_delay_s < 0:
            raise MeasurementError("delays must be non-negative")


@dataclass(frozen=True)
class BurstObservation:
    """What the receiver records for one burst.

    ``first_index`` / ``last_index`` are the sequence numbers (within the
    burst) of the first and last packets actually received; the estimator
    uses them to correct the time span when edge packets were lost, as
    described in §3.1.
    """

    n_sent: int
    n_received: int
    first_rx_time: float
    last_rx_time: float
    first_index: int
    last_index: int

    @property
    def span(self) -> float:
        """Receive-time difference between the last and first packets."""
        return self.last_rx_time - self.first_rx_time


@dataclass
class TrainObservation:
    """All burst observations of one packet train on one path."""

    spec: PacketTrainSpec
    bursts: List[BurstObservation] = field(default_factory=list)
    send_duration_s: float = 0.0
    rtt_s: float = 1e-3

    @property
    def packets_sent(self) -> int:
        return sum(burst.n_sent for burst in self.bursts)

    @property
    def packets_received(self) -> int:
        return sum(burst.n_received for burst in self.bursts)

    @property
    def loss_rate(self) -> float:
        """Overall fraction of train packets that were lost."""
        sent = self.packets_sent
        if sent == 0:
            return 0.0
        return 1.0 - self.packets_received / sent


def send_packet_train(
    model: PathTransmissionModel,
    spec: PacketTrainSpec,
    rng: Optional[np.random.Generator] = None,
    rtt_s: float = 1e-3,
) -> TrainObservation:
    """Simulate sending one packet train over a path.

    Returns the per-burst receiver observations that
    :func:`estimate_throughput` consumes.
    """
    rng = rng if rng is not None else np.random.default_rng()
    observation = TrainObservation(spec=spec, rtt_s=rtt_s)

    fast_rate = min(model.line_rate_bps, model.unlimited_rate_bps)
    send_clock = 0.0
    limiter = model.limiter
    burst_bytes = spec.burst_bytes
    burst_length = spec.burst_length
    packet_bits = spec.packet_size_bytes * BITS_PER_BYTE
    base_delay = model.base_delay_s
    jitter_std = model.jitter_std_s
    loss_rate = model.loss_rate
    emit_time = burst_bytes * BITS_PER_BYTE / model.line_rate_bps
    step = emit_time + spec.inter_burst_gap_s
    if limiter is None:
        # Lossless paths without a limiter (the common EC2-style mesh) serve
        # every burst identically, so hoist the per-burst drain.
        fixed_drain = burst_bytes * BITS_PER_BYTE / fast_rate
    # Draw the per-burst jitter in one vectorised call when no other RNG
    # consumer interleaves (loss draws happen between jitter draws); numpy
    # Generators fill arrays from the same stream as repeated scalar draws,
    # so the observations are bit-identical either way.
    jitter_draws = None
    if jitter_std > 0 and loss_rate == 0:
        jitter_draws = np.abs(rng.normal(0.0, jitter_std, size=2 * spec.n_bursts))
    bursts = observation.bursts

    for burst_no in range(spec.n_bursts):
        # Time for the whole burst to drain through the path.
        if limiter is not None:
            drain = limiter.drain_time(burst_bytes, fast_rate)
        else:
            drain = fixed_drain

        # The first packet arrives after its own serialisation at the rate
        # it was served with (fast if tokens were available).
        initial_rate = fast_rate
        if limiter is not None and limiter.depth_bytes < spec.packet_size_bytes:
            initial_rate = min(fast_rate, limiter.rate_bps)
        first_rx = send_clock + base_delay + packet_bits / initial_rate
        last_rx = send_clock + base_delay + drain

        # Packet loss: drop each packet independently.
        lost = int(rng.binomial(burst_length, loss_rate)) if loss_rate > 0 else 0
        n_received = burst_length - lost
        first_index, last_index = 0, burst_length - 1
        if lost > 0 and n_received > 0:
            # Choose which positions were lost to know whether the edges moved.
            lost_positions = set(
                rng.choice(burst_length, size=lost, replace=False).tolist()
            )
            received_positions = [
                i for i in range(burst_length) if i not in lost_positions
            ]
            first_index, last_index = received_positions[0], received_positions[-1]
            per_packet = (last_rx - first_rx) / max(burst_length - 1, 1)
            first_rx += per_packet * first_index
            last_rx -= per_packet * (burst_length - 1 - last_index)

        # Kernel timestamping / VM scheduling jitter.
        if jitter_draws is not None:
            first_rx += float(jitter_draws[2 * burst_no]) * 0.1
            last_rx += float(jitter_draws[2 * burst_no + 1])
        elif jitter_std > 0:
            first_rx += abs(float(rng.normal(0.0, jitter_std))) * 0.1
            last_rx += abs(float(rng.normal(0.0, jitter_std)))
        if last_rx <= first_rx:
            last_rx = first_rx + packet_bits / fast_rate

        if n_received > 0:
            bursts.append(
                BurstObservation(
                    n_sent=burst_length,
                    n_received=n_received,
                    first_rx_time=first_rx,
                    last_rx_time=last_rx,
                    first_index=first_index,
                    last_index=last_index,
                )
            )

        # Advance the sender clock: the burst is emitted at line rate, then
        # the inter-burst gap elapses (during which the limiter refills).
        send_clock += step
        if limiter is not None:
            limiter.refill(step)

    observation.send_duration_s = send_clock
    return observation


# ---------------------------------- repro.core.measurement.packet_train
def mathis_throughput(
    mss_bytes: float, rtt_s: float, loss_rate: float, constant: float = MATHIS_C
) -> float:
    """The Mathis upper bound ``MSS * C / (RTT * sqrt(loss))`` in bits/second.

    Returns infinity when the loss rate is zero (the bound is vacuous).
    """
    if mss_bytes <= 0 or rtt_s <= 0:
        raise MeasurementError("MSS and RTT must be positive")
    if loss_rate < 0 or loss_rate >= 1:
        raise MeasurementError("loss rate must be in [0, 1)")
    if loss_rate == 0:
        return math.inf
    return mss_bytes * BITS_PER_BYTE * constant / (rtt_s * math.sqrt(loss_rate))


@dataclass(frozen=True)
class ThroughputEstimate:
    """Result of estimating TCP throughput from one packet train."""

    rate_bps: float
    train_estimate_bps: float
    mathis_bound_bps: float
    loss_rate: float
    packets_received: int
    packets_sent: int

    @property
    def used_mathis_bound(self) -> bool:
        """True when the Mathis bound was the binding term."""
        return self.mathis_bound_bps < self.train_estimate_bps


def _corrected_span(observation_span: float, first_index: int, last_index: int,
                    n_sent: int) -> float:
    """Scale a burst's receive span to what it would have been without edge loss.

    If the first or last packets of a burst were lost, the observed span
    covers fewer inter-packet gaps than the full burst; the paper adjusts the
    time difference by the average per-packet time (§3.1).
    """
    observed_gaps = last_index - first_index
    total_gaps = n_sent - 1
    if observed_gaps <= 0 or total_gaps <= 0:
        return observation_span
    return observation_span * total_gaps / observed_gaps


def estimate_throughput(
    observation: TrainObservation,
    mss_bytes: float = 1460.0,
    rtt_s: Optional[float] = None,
) -> ThroughputEstimate:
    """Estimate TCP throughput from a packet-train observation.

    Args:
        observation: receiver-side burst observations.
        mss_bytes: TCP maximum segment size used in the Mathis bound.
        rtt_s: round-trip time for the Mathis bound; defaults to the RTT
            recorded in the observation.

    Raises:
        MeasurementError: if the observation contains no usable bursts.
    """
    if not observation.bursts:
        raise MeasurementError("packet train observation contains no bursts")
    packet_size = observation.spec.packet_size_bytes
    rtt = observation.rtt_s if rtt_s is None else rtt_s

    total_received = 0
    total_span = 0.0
    for burst in observation.bursts:
        if burst.n_received <= 0:
            continue
        span = _corrected_span(
            burst.span, burst.first_index, burst.last_index, burst.n_sent
        )
        if span <= 0:
            continue
        total_received += burst.n_received
        total_span += span
    if total_received == 0 or total_span <= 0:
        raise MeasurementError("packet train delivered no measurable packets")

    train_estimate = packet_size * BITS_PER_BYTE * total_received / total_span
    loss = observation.loss_rate
    mathis_bound = mathis_throughput(mss_bytes, rtt, loss) if loss > 0 else math.inf
    rate = min(train_estimate, mathis_bound)
    return ThroughputEstimate(
        rate_bps=rate,
        train_estimate_bps=train_estimate,
        mathis_bound_bps=mathis_bound,
        loss_rate=loss,
        packets_received=observation.packets_received,
        packets_sent=observation.packets_sent,
    )


# ------------------------------------------- repro.cloud.provider (methods)
def path_hop_count(provider: CloudProvider, src_vm: str, dst_vm: str) -> int:
    """True hop count between two VMs (same host counts as one hop)."""
    src, dst = provider.vm(src_vm), provider.vm(dst_vm)
    if src.host == dst.host:
        return 1
    return provider.topology.hop_count(src.host, dst.host)


def rtt(provider: CloudProvider, src_vm: str, dst_vm: str) -> float:
    """Round-trip time between two VMs in seconds."""
    return rtt_s(path_hop_count(provider, src_vm, dst_vm))


def packet_train_model(
    provider: CloudProvider,
    src_vm: str,
    dst_vm: str,
    background: Sequence[VMFlow] = (),
) -> PathTransmissionModel:
    """The burst transmission model a packet train sees on this path."""
    src, dst = provider.vm(src_vm), provider.vm(dst_vm)
    wild_factor = provider._probe_fault_factor(src_vm, dst_vm, "packet train")
    rate_noise = 1.0 + float(provider._rng.normal(0.0, provider.params.train_rate_noise))
    rate_noise = max(rate_noise, 0.2) * wild_factor
    if src.host == dst.host:
        return PathTransmissionModel(
            line_rate_bps=10 * GBITPS,
            unlimited_rate_bps=provider.params.intra_host_rate_bps * rate_noise,
            limiter=None,
            base_delay_s=20e-6,
            jitter_std_s=provider.params.train_jitter_std_s,
            loss_rate=provider.params.loss_rate,
        )
    physical = min(
        link.capacity_bps for link in provider.topology.path_links(src.host, dst.host)
    )
    if background:
        available = float(snapshot_rates(provider, [(src_vm, dst_vm)], background)[0])
    else:
        available = provider.hose_rate(src_vm)
    available *= rate_noise
    if provider.params.train_limiter_depth_bytes is None:
        # Hose enforcement is smooth: the burst drains at the available rate.
        return PathTransmissionModel(
            line_rate_bps=10 * GBITPS,
            unlimited_rate_bps=min(available, physical),
            limiter=None,
            base_delay_s=100e-6,
            jitter_std_s=provider.params.train_jitter_std_s,
            loss_rate=provider.params.loss_rate,
        )
    limiter = TokenBucket(
        rate_bps=available,
        depth_bytes=provider.params.train_limiter_depth_bytes,
    )
    return PathTransmissionModel(
        line_rate_bps=10 * GBITPS,
        unlimited_rate_bps=physical,
        limiter=limiter,
        base_delay_s=100e-6,
        jitter_std_s=provider.params.train_jitter_std_s,
        loss_rate=provider.params.loss_rate,
    )


def provider_send_packet_train(
    provider: CloudProvider,
    src_vm: str,
    dst_vm: str,
    spec: PacketTrainSpec = PacketTrainSpec(),
    background: Sequence[VMFlow] = (),
) -> TrainObservation:
    """Send one packet train between two VMs and return the observations."""
    model = packet_train_model(provider, src_vm, dst_vm, background=background)
    return send_packet_train(
        model, spec, rng=provider._rng, rtt_s=rtt(provider, src_vm, dst_vm)
    )


# ------------------------------- repro.core.measurement.orchestrator
def measure_pair(
    provider: CloudProvider,
    src_vm: str,
    dst_vm: str,
    spec: PacketTrainSpec = PacketTrainSpec(),
    background: Sequence[VMFlow] = (),
) -> float:
    """Measure one ordered pair with one packet train."""
    observation = provider_send_packet_train(
        provider, src_vm, dst_vm, spec=spec, background=background
    )
    return estimate_throughput(observation).rate_bps


def snapshot_rates(
    provider: CloudProvider,
    pairs: Sequence[Tuple[str, str]],
    background: Sequence[VMFlow],
    window_s: float = 0.1,
) -> np.ndarray:
    """Instantaneous rate a new bulk connection would get on each named
    pair, each alone with the ``background`` flows (treated as backlogged
    for the short snapshot window): the campaign's loaded probes, by name."""
    if not window_s > 0:
        raise CloudError(f"window_s must be positive, got {window_s!r}")
    at = provider._pair_positions(pairs)
    return provider._loaded_rates(at[:, 0], at[:, 1], background, window_s)
