"""Lossy packet trains: the array program against §3.1 and the scalar train.

A lossy train draws its losses after the jitter block (one binomial per
burst, then one uniform row per partly lost burst), where the scalar train
of ``tests/oracles/scalar_train.py`` drew them between its jitter draws, so
the two are not bit-identical and the campaign tests cannot hold lossy
providers to the oracle.  This module checks lossy trains instead:

* statistically, against the scalar oracle (``ec2-legacy`` as registered);
* with loss raised to 1 %, the observed loss rate and the Mathis bound, and
  every estimate against the scalar estimator fed the same observations;
* the span correction and the Mathis term on hand-built receive arrays;
* trains with no measurable packet: retried with fresh draws, then degraded.
"""

import dataclasses
import math

import numpy as np
import pytest
from oracles import scalar_train

from repro.cloud.provider import TrainBatch
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.core.measurement.packet_train import MATHIS_C, MSS_BYTES, estimate_throughputs
from repro.errors import MeasurementError
from repro.net.packets import PacketTrainSpec
from repro.units import BITS_PER_BYTE

SPEC = PacketTrainSpec()


def legacy(seed, n_vms=8, **overrides):
    provider = make_provider("ec2-legacy", seed=seed)
    if overrides:
        provider = make_provider(
            "ec2-legacy", seed=seed,
            params=dataclasses.replace(provider.params, **overrides),
        )
    provider.request_vms(n_vms)
    names = [vm.name for vm in provider.vms()]
    return provider, names, [(s, d) for s in names for d in names if s != d]


# ------------------------------------------------- (i) against the oracle
#: The two five-seed means of the relative error against the true path rate
#: read 0.0846 (array) and 0.0894 (scalar oracle); over 280 pairs the
#: standard error of their difference is ≈ 0.006.
MEAN_ERROR_TOLERANCE = 0.015


def test_lossy_campaign_is_as_accurate_as_the_scalar_train():
    array_errors, scalar_errors = [], []
    for seed in range(5):
        provider, names, pairs = legacy(seed)
        # ``pairs`` are the off-diagonal pairs in row-major order.
        truth = provider.true_path_rates(names)[~np.eye(len(names), dtype=bool)]
        profile = NetworkMeasurer(
            provider, MeasurementPlan(advance_clock=False)
        ).measure(names)
        assert not profile.degraded_pairs
        measured = profile.rate_matrix()[~np.eye(len(names), dtype=bool)]
        oracle, _, _ = legacy(seed)
        scalar = np.array([scalar_train.measure_pair(oracle, *pair) for pair in pairs])
        array_errors.append(np.mean(np.abs(measured - truth) / truth))
        scalar_errors.append(np.mean(np.abs(scalar - truth) / truth))
    assert abs(np.mean(array_errors) - np.mean(scalar_errors)) < MEAN_ERROR_TOLERANCE
    assert max(array_errors) < 0.15


# --------------------------------------------- (ii) one percent of packets
def scalar_estimates(spec, batch):
    """Every train of ``batch`` through the scalar estimator (NaN where it
    raises): the bursts of which a packet arrived, as observations."""
    rates = []
    for k in range(batch.sent.shape[0]):
        bursts = [
            scalar_train.BurstObservation(
                n_sent=spec.burst_length,
                n_received=int(batch.received[b, k]),
                first_rx_time=float(batch.first_rx_s[b, k]),
                last_rx_time=float(batch.last_rx_s[b, k]),
                first_index=int(batch.first_index[b, k]),
                last_index=int(batch.last_index[b, k]),
            )
            for b in range(spec.n_bursts)
            if batch.received[b, k] > 0
        ]
        observation = scalar_train.TrainObservation(
            spec=spec, bursts=bursts, rtt_s=float(batch.rtt_s[k])
        )
        try:
            rates.append(scalar_train.estimate_throughput(observation).rate_bps)
        except MeasurementError:
            rates.append(math.nan)
    return np.array(rates)


@pytest.mark.parametrize("seed", range(3))
def test_one_percent_loss_is_observed_and_the_mathis_bound_binds(seed):
    provider, _, pairs = legacy(seed, loss_rate=0.01)
    batch = provider.send_packet_trains(pairs, SPEC)
    observed = 1.0 - batch.received.sum() / (SPEC.n_bursts * SPEC.burst_length * len(pairs))
    assert abs(observed - 0.01) < 0.001  # 112 000 packets: σ ≈ 0.0003
    rates = estimate_throughputs(SPEC, batch)
    np.testing.assert_array_equal(rates, scalar_estimates(SPEC, batch))
    # The Mathis bound at each train's own loss and RTT, and the train
    # estimate with the bound left out (an RTT of 0 makes it infinite): the
    # bound binds on some trains.
    loss = 1.0 - batch.received.sum(axis=0) / (SPEC.n_bursts * SPEC.burst_length)
    bound = MSS_BYTES * BITS_PER_BYTE * MATHIS_C / (batch.rtt_s * np.sqrt(loss))
    unbounded = estimate_throughputs(
        SPEC, dataclasses.replace(batch, rtt_s=np.zeros(len(pairs)))
    )
    binds = bound < unbounded
    assert binds.any() and not binds.all()
    assert (rates[binds] == bound[binds]).all()
    assert (rates[~binds] == unbounded[~binds]).all()
    # Some bursts lost an edge packet, so their spans were corrected.
    lost_edge = (batch.first_index > 0) | (batch.last_index < SPEC.burst_length - 1)
    assert lost_edge.any()


def test_a_corrected_span_is_the_span_of_the_whole_burst():
    """Without jitter or rate noise, every burst of a path drains in the
    same time; a burst that lost edge packets has its first and last
    arrivals moved inward, and the estimator's correction gives the whole
    burst's span back."""
    provider, _, pairs = legacy(
        4, loss_rate=0.05, train_jitter_std_s=0.0, train_rate_noise=0.0
    )
    batch = provider.send_packet_trains(pairs, SPEC)
    gaps = SPEC.burst_length - 1
    observed = batch.last_index - batch.first_index
    span = batch.last_rx_s - batch.first_rx_s
    corrected = span * gaps / np.where(observed > 0, observed, gaps)
    whole = (batch.first_index == 0) & (batch.last_index == gaps)
    partial = (observed > 0) & ~whole
    assert partial.sum() > 50 and whole.sum() > 50
    full = np.where(whole, span, np.nan)
    per_path = np.nanmax(full, axis=0)
    assert np.allclose(full[whole], np.broadcast_to(per_path, span.shape)[whole], rtol=1e-12)
    assert np.allclose(
        corrected[partial], np.broadcast_to(per_path, span.shape)[partial], rtol=1e-9
    )


# ------------------------------------------------ (iii) hand-built arrays
def hand_built():
    """Four trains of three 5-packet bursts, 1000-byte packets."""
    spec = PacketTrainSpec(packet_size_bytes=1000, n_bursts=3, burst_length=5)
    first = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [1e-3, 0.0, 0.0, 0.0],
        [0.0, 5e-4, 0.0, 0.0],
    ])
    last = np.array([
        [4e-3, 3e-4, 1.0, 4e-3],
        [4e-3, 4e-4, 1.0, 4e-3],
        [1.0, 6e-4, 1.0, 4e-3],
    ])
    received = np.array([[5, 4, 0, 5], [4, 4, 0, 5], [0, 1, 0, 5]])
    first_index = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0]])
    last_index = np.array([[4, 3, 4, 4], [4, 4, 4, 4], [4, 2, 4, 4]])
    batch = TrainBatch(
        first_rx_s=first, last_rx_s=last, sent=np.arange(4), lost={},
        received=received, first_index=first_index, last_index=last_index,
        rtt_s=np.array([1e-3, 1e-3, 1e-3, np.nan]),
    )
    return spec, batch


def mathis(rtt, loss):
    return MSS_BYTES * BITS_PER_BYTE * MATHIS_C / (rtt * math.sqrt(loss))


def test_the_span_correction_and_the_mathis_term_on_hand_built_trains():
    spec, batch = hand_built()
    rates = estimate_throughputs(spec, batch)
    # Train 0: a whole burst (4 ms), one that lost its first packet (3 ms
    # over 3 gaps: 4 ms over the burst's 4), one of which nothing arrived
    # (in neither total).  Loss 1/10: the bound (≈45 Mbit/s) does not bind.
    assert rates[0] == pytest.approx(1000 * 8 * 9 / 8e-3, rel=1e-12)
    assert mathis(1e-3, 0.1) > rates[0]
    # Train 1: lost its last packet (0.3 ms over 3 gaps -> 0.4 ms), lost a
    # middle one (no correction), one packet arrived (a 0.1 ms span, not
    # scaled).  Train estimate 9 packets / 0.9 ms = 80 Mbit/s; loss 6/15
    # makes the bound (≈22.6 Mbit/s) bind.
    assert 1000 * 8 * 9 / 9e-4 > mathis(1e-3, 6 / 15)
    assert rates[1] == pytest.approx(mathis(1e-3, 6 / 15), rel=1e-12)
    # Train 2: nothing arrived — not measurable.  Train 3: nothing lost.
    assert math.isnan(rates[2])
    assert rates[3] == pytest.approx(1000 * 8 * 15 / 12e-3, rel=1e-12)
    np.testing.assert_array_equal(rates, scalar_estimates(spec, batch))


def test_a_lossless_batch_reads_the_same_without_loss_arrays():
    spec, batch = hand_built()
    whole = dataclasses.replace(
        batch, first_rx_s=batch.first_rx_s[:, 3:], last_rx_s=batch.last_rx_s[:, 3:],
        sent=np.arange(1), received=None, first_index=None, last_index=None,
        rtt_s=None,
    )
    assert estimate_throughputs(spec, whole)[0] == estimate_throughputs(spec, batch)[3]


# ------------------------------------- (iv) trains with no measurable packet
@pytest.mark.parametrize("probe_budget", [None, 5])
def test_unmeasurable_trains_are_retried_with_fresh_draws_then_degraded(probe_budget):
    """Two-packet bursts at 80 % loss: a train is unmeasurable whenever
    both its packets are lost (p = 0.64).  Each pass re-sends only the
    trains that failed the one before, until the ledger stops granting
    retries (after two, or when the budget runs out)."""
    provider, names, pairs = legacy(1, loss_rate=0.8)
    spec = PacketTrainSpec(n_bursts=1, burst_length=2)
    plan = MeasurementPlan(train_spec=spec, probe_budget=probe_budget)
    sent = []
    send = provider.send_packet_trains

    def counted(schedule, train_spec, background=()):
        batch = send(schedule, train_spec, background)
        sent.append(batch.sent.shape[0])
        return batch

    provider.send_packet_trains = counted
    profile = NetworkMeasurer(provider, plan).measure(names)
    degraded = profile.degraded_pairs
    rated = np.count_nonzero(~np.isnan(profile.measured_at_matrix()))
    assert sent[0] == len(pairs) and rated + len(degraded) == len(pairs)
    retries = sum(sent[1:])
    if probe_budget is None:
        assert len(sent) == 3 and sent[0] > sent[1] > sent[2] > len(degraded) > 0
        assert set(degraded.values()) == {
            "3 probe(s) failed: packet train delivered no measurable packets"
        }
        # More pairs have a rate than the first pass measured: the fresh
        # draws of a retry can deliver.
        assert rated > sent[0] - sent[1]
    else:
        assert retries == probe_budget
        assert any("budget exhausted" in reason for reason in degraded.values())
    assert profile.measurement_duration_s > len(pairs) * NetworkMeasurer(
        provider, plan
    ).per_pair_time_s()


#: A train setting a NaN used to pass (``<= 0`` and ``< 1`` are False for
#: NaN), by its field, with the message its guard gives.
NAN_TRAIN_SETTINGS = {
    "packet_size_bytes": "packet size must be positive",
    "n_bursts": "need >= 1 burst of >= 2 packets",
    "burst_length": "need >= 1 burst of >= 2 packets",
}


@pytest.mark.parametrize("field", NAN_TRAIN_SETTINGS)
def test_a_nan_train_setting_is_refused(field):
    with pytest.raises(MeasurementError, match=f"^{NAN_TRAIN_SETTINGS[field]}$"):
        PacketTrainSpec(**{field: math.nan})
