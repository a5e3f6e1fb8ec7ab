"""netperf on the fluid engine: the §3.3 locator and §4.1 calibration.

A netperf run is a bulk flow too big to finish inside its window, cut off
at ``until``.  Its rate is its max-min share, which does not depend on the
flow's size, so the locator's rates and classifications and calibration's
errors are pinned here by digest.
"""

import hashlib
import math

import pytest

from repro.cloud.registry import make_provider, provider_names
from repro.core.measurement import calibrate_train_parameters
from repro.core.measurement.bottleneck import BottleneckLocator
from repro.errors import CloudError, MeasurementError

SEEDS = (0, 1, 2)

# SHA-256 over the repr of every locator rate pair and classification, then
# every calibration error, for every registered provider and seed.
_NETPERF_DIGEST = "6b3dd4744372e92c33058c39893b7ad0408b0b8757cc46f8ce577ef6364c34bf"


def _netperf_numbers():
    numbers = []
    for name in provider_names():
        for seed in SEEDS:
            provider = make_provider(name, seed=seed)
            provider.request_vms(10)
            names = [vm.name for vm in provider.vms()]
            report = BottleneckLocator(provider, seed=seed).locate(
                names, n_same_source=10, n_distinct=10
            )
            for result in (
                report.distinct_endpoint_results + report.same_source_results
            ):
                numbers.append(
                    (result.solo_rate_a_bps, result.concurrent_rate_a_bps)
                )
            numbers.append(report.rate_limiting)
    for name in provider_names():
        for seed in SEEDS:
            provider = make_provider(name, seed=seed)
            provider.request_vms(5)
            names = [vm.name for vm in provider.vms()]
            pairs = [(s, d) for s in names for d in names if s != d]
            points = calibrate_train_parameters(
                provider, pairs, burst_lengths=(200, 2000), n_bursts_options=(10,)
            )
            numbers.extend(point.mean_relative_error for point in points)
    return numbers


def test_netperf_numbers_are_pinned():
    digest = hashlib.sha256(repr(_netperf_numbers()).encode()).hexdigest()
    assert digest == _NETPERF_DIGEST, digest


def _one_provider():
    provider = make_provider("ec2", seed=0)
    provider.request_vms(4)
    return provider, [vm.name for vm in provider.vms()]


@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda p, vms, d: p.run_netperf(vms[0], vms[1], duration=d), CloudError),
        (
            lambda p, vms, d: p.concurrent_netperf(
                [(vms[0], vms[1]), (vms[2], vms[3])], duration=d
            ),
            CloudError,
        ),
        (lambda p, vms, d: BottleneckLocator(p, duration_s=d), MeasurementError),
        (
            lambda p, vms, d: calibrate_train_parameters(
                p, [(vms[0], vms[1])], reference_duration_s=d
            ),
            MeasurementError,
        ),
    ],
    ids=["run_netperf", "concurrent_netperf", "locator", "calibration"],
)
def test_netperf_durations_must_be_finite_and_positive(call, error, duration):
    provider, vms = _one_provider()
    with pytest.raises(error, match=repr(duration)):
        call(provider, vms, duration)
