"""§4.1 / Figure 6: calibrating the packet train against netperf.

``calibrate_train_parameters`` sends one array batch of trains per
configuration and compares each estimate with a 10-second netperf run on
the same path.  The paper's finding: 200-packet bursts already track
netperf on EC2, whose rate limiter bites at once, while Rackspace's deep
token bucket lets short bursts ride the line rate, so it needs 2000-packet
bursts.
"""

import numpy as np
import pytest
from oracles import scalar_train

from repro.cloud.registry import make_provider
from repro.core.measurement import calibrate_train_parameters
from repro.net.packets import PacketTrainSpec


def twenty_pairs(name, seed):
    """A provider with 5 VMs: its 20 ordered pairs."""
    provider = make_provider(name, seed=seed)
    provider.request_vms(5)
    names = [vm.name for vm in provider.vms()]
    return provider, [(s, d) for s in names for d in names if s != d]


def errors_by_burst_length(name, seed):
    provider, pairs = twenty_pairs(name, seed)
    points = calibrate_train_parameters(
        provider, pairs, burst_lengths=(200, 2000), n_bursts_options=(10,)
    )
    assert [point.n_paths for point in points] == [20, 20]
    return {point.burst_length: point.mean_relative_error for point in points}


@pytest.mark.parametrize("seed", range(3))
def test_rackspace_needs_long_bursts(seed):
    errors = errors_by_burst_length("rackspace", seed)
    assert errors[2000] <= errors[200] / 3


@pytest.mark.parametrize("seed", range(3))
def test_ec2_is_calibrated_at_200_packets(seed):
    assert errors_by_burst_length("ec2", seed)[200] < 0.10


@pytest.mark.parametrize("name", ["ec2", "rackspace"])
def test_one_batch_per_configuration_is_the_scalar_sweep(name):
    """On a lossless provider a batch draws what the trains sent one by one
    drew, so the sweep's errors are the scalar train's, bit for bit."""
    provider, pairs = twenty_pairs(name, seed=1)
    oracle, _ = twenty_pairs(name, seed=1)
    truth = {pair: oracle.run_netperf(*pair, duration=10.0) for pair in pairs}
    grid = [(n_bursts, length) for n_bursts in (10, 20) for length in (200, 2000)]
    want = []
    for n_bursts, length in grid:
        spec = PacketTrainSpec(n_bursts=n_bursts, burst_length=length)
        errors = [
            abs(scalar_train.measure_pair(oracle, *pair, spec) - truth[pair]) / truth[pair]
            for pair in pairs
        ]
        want.append(float(np.mean(errors)))
    got = calibrate_train_parameters(
        provider, pairs, burst_lengths=(200, 2000), n_bursts_options=(10, 20)
    )
    assert [(p.n_bursts, p.burst_length) for p in got] == grid
    assert [p.mean_relative_error for p in got] == want
    assert provider._rng.bit_generator.state == oracle._rng.bit_generator.state
