"""Burst-level packet-train transmission model (paper §3.1).

Choreo estimates pairwise TCP throughput by sending *packet trains*: ``K``
bursts of ``B`` back-to-back ``P``-byte UDP packets, with a gap of ``delta``
between bursts.  The receiver records the kernel timestamps of the first and
last packet of each burst plus the number of packets delivered.

This module is the network side of that experiment, for many paths at once.
Because we do not have real NICs, each burst is pushed through a small
analytical model of its path:

* the *unlimited* path rate (what a burst would see absent any rate
  limiting) — in practice the physical bottleneck divided among the cross
  traffic present during the burst;
* an optional provider rate limiter modelled as a token bucket.
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
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import MeasurementError
from repro.units import BITS_PER_BYTE


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
        if not self.packet_size_bytes > 0:
            raise MeasurementError("packet size must be positive")
        if not (self.n_bursts >= 1 and self.burst_length >= 2):
            raise MeasurementError("need >= 1 burst of >= 2 packets")
        gap = self.inter_burst_gap_s
        if not (math.isfinite(gap) and gap >= 0):
            raise MeasurementError(
                f"inter_burst_gap_s must be finite and >= 0, got {gap!r}"
            )

    @property
    def burst_bytes(self) -> float:
        """Bytes in one burst."""
        return float(self.packet_size_bytes * self.burst_length)


def _bucket_drain_times(
    tokens_bytes: np.ndarray,
    rate_bps: np.ndarray,
    depth_bytes: float,
    burst_bytes: float,
    fast_rate_bps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Seconds to push one burst through each token bucket: ``(drain, tokens)``.

    While tokens remain a burst is served at the fast rate (tokens drain at
    the difference between service and refill); once a bucket empties the
    remainder is served at its refill rate ``rate_bps``.  A bucket whose
    fast rate does not exceed its refill rate, or of depth 0, serves the
    whole burst at the refill rate.  Every branch is evaluated for every
    bucket and the result selected per bucket; ``tokens`` is each bucket's
    fill level afterwards.
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


def _bucket_drains(
    spec: PacketTrainSpec,
    rate_bps: np.ndarray,
    depth_bytes: float,
    fast_rate_bps: np.ndarray,
    step_s: float,
) -> np.ndarray:
    """Drain time of every burst through each path's token bucket, shape
    ``(n_bursts, n_paths)``: the one recurrence of the train.  Each bucket
    starts full and refills at its rate for ``step_s`` after every burst."""
    drains = np.empty((spec.n_bursts,) + fast_rate_bps.shape)
    tokens = np.full(fast_rate_bps.shape, float(depth_bytes))
    refill = rate_bps * step_s / BITS_PER_BYTE
    for burst_no in range(spec.n_bursts):
        drains[burst_no], tokens = _bucket_drain_times(
            tokens, rate_bps, depth_bytes, spec.burst_bytes, fast_rate_bps
        )
        tokens = np.minimum(depth_bytes, tokens + refill)
    return drains


def send_packet_trains(
    spec: PacketTrainSpec,
    line_rate_bps: float,
    unlimited_rate_bps: np.ndarray,
    base_delay_s: Union[float, np.ndarray],
    jitter_std_s: float,
    normals: np.ndarray,
    limiter_rate_bps: Optional[np.ndarray] = None,
    limiter_depth_bytes: Optional[float] = None,
    first_index: Optional[np.ndarray] = None,
    last_index: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Send one packet train over each of many paths.

    Per path (arrays with one element per path): the rate the path would
    deliver absent rate limiting, the one-way base delay (or one for all)
    and, with ``limiter_rate_bps``, the refill rate of a full token bucket
    of ``limiter_depth_bytes``; the sender's NIC emits at
    ``line_rate_bps``.  ``normals`` stands in for the generator: row ``i``
    holds path ``i``'s train's draws, a first one this program does not
    read (the train's rate noise, which the caller has spent) and then the
    ``2 * n_bursts`` standard normals of its timestamp jitter of std
    ``jitter_std_s`` (unused without jitter).  It is consumed: with
    jitter, every entry is overwritten, so the caller must not read it
    again.  On lossy
    paths, ``first_index``/``last_index`` (shape ``(n_bursts, n_paths)``,
    from :func:`draw_losses`) are the positions of the first and last
    packet of each burst that arrived, and the receive times are theirs.

    Returns the first- and last-packet receive times of every burst, shape
    ``(n_bursts, n_paths)``.  Every burst of every path is computed at
    once, each value by the per-burst expression in its order; the
    arithmetic runs in place, so besides ``normals`` and the loss positions
    the program holds two such arrays (the results), three with a token
    bucket (its drains, spent once the results are set) and four on a lossy
    path (the drains or a scratch, and one more scratch).
    """
    fast_rate = np.minimum(line_rate_bps, unlimited_rate_bps)
    burst_bytes = spec.burst_bytes
    packet_bits = spec.packet_size_bytes * BITS_PER_BYTE
    step = burst_bytes * BITS_PER_BYTE / line_rate_bps + spec.inter_burst_gap_s
    initial_rate = fast_rate
    if limiter_rate_bps is None:
        drain = burst_bytes * BITS_PER_BYTE / fast_rate
    else:
        drain = _bucket_drains(spec, limiter_rate_bps, limiter_depth_bytes, fast_rate, step)
        if limiter_depth_bytes < spec.packet_size_bytes:
            initial_rate = np.minimum(fast_rate, limiter_rate_bps)
    # The sender's clock at each burst, accumulated as the sender keeps it
    # (a 1-D ``accumulate`` adds left to right: 0.0, step, step + step, ...).
    clocks = np.full(spec.n_bursts, step)
    clocks[0] = 0.0
    first_rx = np.empty((spec.n_bursts,) + fast_rate.shape)
    np.add(np.add.accumulate(clocks)[:, None], base_delay_s, out=first_rx)
    last_rx = first_rx + drain
    first_rx += packet_bits / initial_rate
    # A bucket's drains are spent: their array is the scratch.
    scratch = None if limiter_rate_bps is None else drain
    if first_index is not None:
        # Lost edge packets move the first and last arrivals inward by
        # the average per-packet time.
        per_packet = np.subtract(last_rx, first_rx, out=scratch)
        per_packet /= spec.burst_length - 1
        scratch = np.multiply(per_packet, first_index)
        first_rx += scratch
        np.multiply(per_packet, spec.burst_length - 1 - last_index, out=scratch)
        last_rx -= scratch
        del per_packet
    if jitter_std_s > 0:
        # |0.0 + std * z|, in the normals' own columns: a burst's first
        # packet reads jitter normal 2b, its last 2b + 1.  The whole row is
        # scaled, the spent first column with it: one contiguous pass, where
        # the jitter columns alone are a strided view that took 2.5 times as
        # long.  Each sum is written in the receive times' own order,
        # reading the train-major normals through a transposed view (a + b
        # is b + a): in the normals' order it took 2.7 times as long.
        np.multiply(normals, jitter_std_s, out=normals)
        np.abs(normals, out=normals)
        first_rx += normals[:, 1::2].T * 0.1
        last_rx += normals[:, 2::2].T
    np.add(first_rx, packet_bits / fast_rate, out=last_rx, where=last_rx <= first_rx)
    return first_rx, last_rx


def draw_losses(
    rng: np.random.Generator, spec: PacketTrainSpec, loss_rate: float, n_trains: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which packets of ``n_trains`` trains arrive, each dropped independently
    with probability ``loss_rate``.

    Two draws: one binomial per burst (shape ``(n_trains, n_bursts)``)
    counts the lost packets; then each burst that lost some but not all of
    them draws one uniform per packet, in that order, and its ``lost``
    smallest mark the lost positions.

    Returns ``(received, first, last)``, each of shape ``(n_bursts,
    n_trains)``: the packets of each burst that arrived, and the positions
    of the first and last of them (``0`` and ``burst_length - 1`` for a
    burst that lost nothing or everything).
    """
    length = spec.burst_length
    lost = rng.binomial(length, loss_rate, size=(n_trains, spec.n_bursts))
    first = np.zeros(lost.shape, dtype=np.intp)
    last = np.full(lost.shape, length - 1, dtype=np.intp)
    partial = np.flatnonzero((lost > 0) & (lost < length))
    if partial.shape[0]:
        rows = np.arange(partial.shape[0])[:, None]
        rank = np.empty((partial.shape[0], length), dtype=np.intp)
        rank[rows, np.argsort(rng.random(rank.shape), axis=1)] = np.arange(length)
        arrived = rank >= lost.ravel()[partial][:, None]
        first.ravel()[partial] = arrived.argmax(axis=1)
        last.ravel()[partial] = length - 1 - arrived[:, ::-1].argmax(axis=1)
    return (length - lost).T, first.T, last.T
