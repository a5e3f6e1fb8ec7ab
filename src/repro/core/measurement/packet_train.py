"""Packet-train throughput estimation (paper §3.1, §4.1).

The estimator consumes the receiver-side observations of one packet train
(:class:`~repro.net.packets.TrainObservation`) and produces a TCP throughput
estimate:

* the *train estimate* ``P * sum(n_i) / sum(t_i)``, where ``n_i`` is the
  number of packets of burst ``i`` that arrived and ``t_i`` the receive-time
  difference between its first and last packets, corrected when edge packets
  were lost;
* the *Mathis bound* ``MSS * C / (RTT * sqrt(loss))`` with ``C ≈ sqrt(3/2)``,
  which upper-bounds TCP throughput when loss is present;
* the combined estimate ``min(train, mathis)`` the paper uses.

:func:`calibrate_train_parameters` reproduces the §4.1 calibration sweep
(Figure 6): it compares train estimates against netperf "ground truth" for a
grid of burst lengths and burst counts and reports the mean relative error
of each configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.net.packets import PacketTrainSpec, TrainObservation
from repro.units import BITS_PER_BYTE

#: Mathis constant of proportionality, roughly sqrt(3/2) [Mathis et al. 1997].
MATHIS_C = math.sqrt(3.0 / 2.0)


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


def estimate_throughputs(
    spec: PacketTrainSpec, first_rx_s: np.ndarray, last_rx_s: np.ndarray
) -> np.ndarray:
    """:func:`estimate_throughput` for many lossless trains at once.

    ``first_rx_s``/``last_rx_s`` hold the first- and last-packet receive
    times of every burst, shape ``(n_bursts, n_trains)``, as
    :func:`repro.net.packets.send_packet_trains` returns them.  No packet
    was lost, so the Mathis bound is vacuous and the estimate is the train
    estimate; the spans are corrected and summed burst by burst, as the
    scalar estimator does, so each rate is the float it returns.  A train
    with no measurable packets (the scalar estimator raises) reads NaN.
    """
    gaps = spec.burst_length - 1
    total_span = np.zeros(first_rx_s.shape[1:])
    usable_bursts = np.zeros(first_rx_s.shape[1:], dtype=np.int64)
    for first, last in zip(first_rx_s, last_rx_s):
        span = (last - first) * gaps / gaps
        usable = span > 0
        total_span += np.where(usable, span, 0.0)
        usable_bursts += usable
    received = usable_bursts * spec.burst_length
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = spec.packet_size_bytes * BITS_PER_BYTE * received / total_span
    return np.where((received > 0) & (total_span > 0), rates, np.nan)


@dataclass(frozen=True)
class CalibrationPoint:
    """Mean relative error of one packet-train configuration (Figure 6)."""

    burst_length: int
    n_bursts: int
    mean_relative_error: float
    n_paths: int


def calibrate_train_parameters(
    provider,
    pairs: Sequence[Tuple[str, str]],
    burst_lengths: Sequence[int] = (200, 500, 1000, 2000, 3500),
    n_bursts_options: Sequence[int] = (10, 20, 50),
    packet_size_bytes: int = 1472,
    reference_duration_s: float = 10.0,
    reference_rates: Optional[Dict[Tuple[str, str], float]] = None,
) -> List[CalibrationPoint]:
    """Sweep packet-train parameters against netperf ground truth (§4.1).

    Args:
        provider: a :class:`~repro.cloud.provider.CloudProvider`.
        pairs: ordered VM pairs to measure (the paper uses 90).
        burst_lengths, n_bursts_options: the grid to sweep.
        packet_size_bytes: train packet size (1472 bytes in the paper).
        reference_duration_s: netperf run length for the ground truth.
        reference_rates: pre-measured ground-truth rates; measured on the fly
            when omitted.

    Returns:
        One :class:`CalibrationPoint` per configuration, in sweep order.
    """
    if not pairs:
        raise MeasurementError("calibration needs at least one VM pair")
    if reference_rates is None:
        reference_rates = {
            pair: provider.run_netperf(pair[0], pair[1], duration=reference_duration_s)
            for pair in pairs
        }
    points: List[CalibrationPoint] = []
    for n_bursts in n_bursts_options:
        for burst_length in burst_lengths:
            spec = PacketTrainSpec(
                packet_size_bytes=packet_size_bytes,
                n_bursts=n_bursts,
                burst_length=burst_length,
            )
            errors = []
            for src, dst in pairs:
                truth = reference_rates[(src, dst)]
                if truth <= 0:
                    continue
                observation = provider.send_packet_train(src, dst, spec)
                estimate = estimate_throughput(observation)
                errors.append(abs(estimate.rate_bps - truth) / truth)
            if not errors:
                raise MeasurementError("calibration produced no valid estimates")
            points.append(
                CalibrationPoint(
                    burst_length=burst_length,
                    n_bursts=n_bursts,
                    mean_relative_error=float(np.mean(errors)),
                    n_paths=len(errors),
                )
            )
    return points
