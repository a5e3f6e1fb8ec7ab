"""Burst-level packet-train transmission model (paper §3.1).

Choreo estimates pairwise TCP throughput by sending *packet trains*: ``K``
bursts of ``B`` back-to-back ``P``-byte UDP packets, with a gap of ``delta``
between bursts.  The receiver records the kernel timestamps of the first and
last packet of each burst plus the number of packets delivered.

This module is the network side of that experiment.  Because we do not have
real NICs, the burst is pushed through a small analytical model of the path:

* the *unlimited* path rate (what a burst would see absent any rate
  limiting) — in practice the physical bottleneck divided among the cross
  traffic present during the burst;
* an optional provider rate limiter modelled as a :class:`TokenBucket`.
  EC2-style enforcement uses a shallow bucket (the burst is served at the
  hose rate almost immediately); Rackspace-style enforcement uses a deep
  bucket, so short bursts ride the line rate and over-estimate the
  sustainable throughput — which is exactly why the paper needs 2000-packet
  bursts on Rackspace (Figure 6b);
* timestamp jitter (kernel timestamping and VM scheduling noise) and random
  packet loss.

The measurement-side estimator that consumes these observations lives in
:mod:`repro.core.measurement.packet_train`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import MeasurementError
from repro.units import BITS_PER_BYTE


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
class PacketTrainSpec:
    """Parameters of a packet train (paper §3.1 and §4.1).

    Defaults follow the paper: 1472-byte packets, 10 bursts, 1 ms between
    bursts.  The burst length is the knob Figure 6 sweeps (200 packets works
    on EC2, 2000 on Rackspace).
    """

    packet_size_bytes: int = 1472
    n_bursts: int = 10
    burst_length: int = 200
    inter_burst_gap_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.packet_size_bytes <= 0:
            raise MeasurementError("packet size must be positive")
        if self.n_bursts < 1 or self.burst_length < 2:
            raise MeasurementError("need >= 1 burst of >= 2 packets")
        if self.inter_burst_gap_s < 0:
            raise MeasurementError("inter-burst gap must be >= 0")

    @property
    def burst_bytes(self) -> float:
        """Bytes in one burst."""
        return float(self.packet_size_bytes * self.burst_length)

    @property
    def total_packets(self) -> int:
        """Packets in the whole train."""
        return self.n_bursts * self.burst_length


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
    :func:`repro.core.measurement.packet_train.estimate_throughput` consumes.
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


def _bucket_drain_times(
    tokens_bytes: np.ndarray,
    rate_bps: np.ndarray,
    depth_bytes: float,
    burst_bytes: float,
    fast_rate_bps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`TokenBucket.drain_time` over many buckets: ``(drain, tokens)``.

    Every branch of the scalar method is evaluated for every bucket with
    the scalar's own expressions and the result selected per bucket, so
    each element is the float the scalar method returns.
    """
    fast_rate = np.maximum(fast_rate_bps, rate_bps)
    at_rate = (fast_rate <= rate_bps) | (depth_bytes == 0)
    token_drain_rate = (fast_rate - rate_bps) / BITS_PER_BYTE
    with np.errstate(divide="ignore", invalid="ignore"):
        time_to_empty = tokens_bytes / token_drain_rate
        fast_phase_bytes = fast_rate * time_to_empty / BITS_PER_BYTE
        in_fast_phase = burst_bytes <= fast_phase_bytes
        fast_duration = burst_bytes * BITS_PER_BYTE / fast_rate
        remainder = burst_bytes - fast_phase_bytes
        two_phase = time_to_empty + remainder * BITS_PER_BYTE / rate_bps
    drain = np.where(
        at_rate,
        burst_bytes * BITS_PER_BYTE / rate_bps,
        np.where(in_fast_phase, fast_duration, two_phase),
    )
    tokens = np.where(
        at_rate,
        np.minimum(depth_bytes, tokens_bytes),
        np.where(
            in_fast_phase,
            np.maximum(0.0, tokens_bytes - token_drain_rate * fast_duration),
            0.0,
        ),
    )
    return drain, tokens


def send_packet_trains(
    spec: PacketTrainSpec,
    line_rate_bps: float,
    unlimited_rate_bps: np.ndarray,
    base_delay_s: Union[float, np.ndarray],
    jitter_std_s: float,
    normals: np.ndarray,
    limiter_rate_bps: Optional[np.ndarray] = None,
    limiter_depth_bytes: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`send_packet_train` over many lossless paths at once.

    The arguments are the fields of a :class:`PathTransmissionModel` with
    ``loss_rate == 0``, the per-path ones as arrays with one element per
    path: the unlimited rate, the base delay (or one for all) and, with
    ``limiter_rate_bps``, the rate of a full token bucket of
    ``limiter_depth_bytes``.  ``normals`` stands in for the generator: row
    ``i`` holds the ``2 * n_bursts`` standard normals path ``i``'s jitter
    draw consumes (unused without jitter).

    Returns the first- and last-packet receive times of every burst, shape
    ``(n_bursts, n_paths)`` — every packet arrives, so that is the whole
    observation.  Each step applies the scalar function's expression to all
    paths, which makes every element the float the scalar function records.
    """
    fast_rate = np.minimum(line_rate_bps, unlimited_rate_bps)
    burst_bytes = spec.burst_bytes
    packet_bits = spec.packet_size_bytes * BITS_PER_BYTE
    step = burst_bytes * BITS_PER_BYTE / line_rate_bps + spec.inter_burst_gap_s
    initial_rate = fast_rate
    if limiter_rate_bps is None:
        drain = burst_bytes * BITS_PER_BYTE / fast_rate
    else:
        tokens = np.full(fast_rate.shape, float(limiter_depth_bytes))
        if limiter_depth_bytes < spec.packet_size_bytes:
            initial_rate = np.minimum(fast_rate, limiter_rate_bps)
    first_packet = packet_bits / initial_rate
    repair = packet_bits / fast_rate
    if jitter_std_s > 0:
        # |0.0 + std * z| burst-major, so each burst reads contiguous rows.
        jitter = np.multiply(normals.T, jitter_std_s, order="C")
        np.abs(jitter, out=jitter)
    first_rx = np.empty((spec.n_bursts,) + fast_rate.shape)
    last_rx = np.empty_like(first_rx)
    send_clock = 0.0
    for burst_no in range(spec.n_bursts):
        if limiter_rate_bps is not None:
            drain, tokens = _bucket_drain_times(
                tokens, limiter_rate_bps, limiter_depth_bytes, burst_bytes, fast_rate
            )
        first = send_clock + base_delay_s + first_packet
        last = send_clock + base_delay_s + drain
        if jitter_std_s > 0:
            first += jitter[2 * burst_no] * 0.1
            last += jitter[2 * burst_no + 1]
        first_rx[burst_no] = first
        last_rx[burst_no] = np.where(last <= first, first + repair, last)
        send_clock += step
        if limiter_rate_bps is not None:
            tokens = np.minimum(
                limiter_depth_bytes,
                tokens + limiter_rate_bps * step / BITS_PER_BYTE,
            )
    return first_rx, last_rx
