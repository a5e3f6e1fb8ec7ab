"""Packet-train throughput estimation (paper §3.1, §4.1).

The estimator consumes the receiver-side observations of packet trains
(:class:`~repro.cloud.provider.TrainBatch`) and produces one TCP throughput
estimate per train:

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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.net.packets import PacketTrainSpec
from repro.units import BITS_PER_BYTE

if TYPE_CHECKING:
    from repro.cloud.provider import TrainBatch

#: Mathis constant of proportionality, roughly sqrt(3/2) [Mathis et al. 1997].
MATHIS_C = math.sqrt(3.0 / 2.0)

#: TCP maximum segment size of the Mathis bound, in bytes.
MSS_BYTES = 1460.0

#: Why a train whose estimate is NaN failed.
UNMEASURABLE = "packet train delivered no measurable packets"


def estimate_throughputs(spec: PacketTrainSpec, batch: TrainBatch) -> np.ndarray:
    """TCP throughput of every train of ``batch``, in bits/second.

    Per train, over the bursts of which a packet arrived:

    * each burst's receive span, when edge packets were lost, is scaled to
      the whole burst's ``burst_length - 1`` gaps from the gaps between its
      first and last arrivals (left as is when one packet arrived);
    * the train estimate is ``P * sum(n_i) / sum(t_i)`` over those bursts
      whose span is positive;
    * the loss rate counts the packets of those bursts alone — a burst of
      which nothing arrived counts in neither the sent nor the received
      total — and, when positive, the Mathis bound at the train's RTT
      caps the estimate.

    A train with no measurable packets reads NaN.  Without loss (``batch``
    has no ``received``) every burst arrived whole and no bound applies.
    """
    length = spec.burst_length
    gaps = length - 1
    lossy = batch.received is not None
    span = np.subtract(batch.last_rx_s, batch.first_rx_s)
    if not lossy:
        # The scalar estimator's scaling to all gaps and back: not always
        # the span itself, to the last bit.
        span *= gaps
        span /= gaps
        usable = span > 0
        received = length * usable.sum(axis=0)
    else:
        observed = batch.last_index - batch.first_index
        np.divide(span * gaps, observed, out=span, where=observed > 0)
        usable = span > 0
        usable &= batch.received > 0
        received = np.where(usable, batch.received, 0).sum(axis=0)
    # Unusable bursts add nothing.  The bursts are added in order, one row
    # at a time, for any number of trains: an axis-0 ``sum`` of one train
    # pairs them, and an axis-0 ``accumulate`` (the same additions) took
    # eight times as long on a block of trains.
    span[~usable] = 0.0
    total_span = span[0].copy()
    for burst in span[1:]:
        total_span += burst
    rates = np.full(total_span.shape, np.nan)
    np.divide(
        spec.packet_size_bytes * BITS_PER_BYTE * received, total_span,
        out=rates, where=(received > 0) & (total_span > 0),
    )
    if lossy:
        sent = length * (batch.received > 0).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            loss = 1.0 - batch.received.sum(axis=0) / sent
            bound = MSS_BYTES * BITS_PER_BYTE * MATHIS_C / (batch.rtt_s * np.sqrt(loss))
        rates = np.where(loss > 0, np.minimum(rates, bound), rates)
    return rates


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
    if not 0 < reference_duration_s < math.inf:
        raise MeasurementError(
            "reference_duration_s must be finite and positive, "
            f"got {reference_duration_s!r}"
        )
    if reference_rates is None:
        reference_rates = {
            pair: provider.run_netperf(pair[0], pair[1], duration=reference_duration_s)
            for pair in pairs
        }
    truths = np.array([reference_rates[pair] for pair in pairs], dtype=float)
    valid = np.flatnonzero(truths > 0)
    if not valid.shape[0]:
        raise MeasurementError("calibration produced no valid estimates")
    probed = [pairs[i] for i in valid.tolist()]
    truths = truths[valid]
    points: List[CalibrationPoint] = []
    for n_bursts in n_bursts_options:
        for burst_length in burst_lengths:
            spec = PacketTrainSpec(
                packet_size_bytes=packet_size_bytes,
                n_bursts=n_bursts,
                burst_length=burst_length,
            )
            trains = provider.train_pass(probed, spec)
            if trains.lost:
                raise MeasurementError(next(iter(trains.lost.values())))
            rates = estimate_throughputs(spec, trains.send(trains.remaining))
            if np.isnan(rates).any():
                raise MeasurementError(UNMEASURABLE)
            points.append(
                CalibrationPoint(
                    burst_length=burst_length,
                    n_bursts=n_bursts,
                    mean_relative_error=float(np.mean(np.abs(rates - truths) / truths)),
                    n_paths=valid.shape[0],
                )
            )
    return points
