"""Every VM's hose, read as one vector, against the per-VM read it replaced.

``CloudProvider`` reads all its VMs' egress caps at once — the OU-drifted
bases, then an attached timeline's drift-table row and fault factors —
reads every pair's true rate as one matrix, and draws one OU innovation
per VM in a single ``normal(size=n)`` call.  Held here, with ``==``, to the
per-VM ``hose_rate``, per-pair ``true_path_rate`` and OU step of
``tests/oracles/scalar_hose.py``: under a drift table that covers some of
the VMs, overlapping degradations, preemptions, 200 drift steps of mixed
lengths and a VM set that changes in the middle.  CI runs this file with
NumPy's floating-point warnings as errors.
"""

import dataclasses
import math

import numpy as np
import pytest
from oracles import scalar_hose

from repro.cloud.registry import make_provider
from repro.errors import CloudError
from repro.net.links import hose_link_id
from repro.service.timeline import (
    LinkDegradation, ProbeLoss, Timeline, VmPreemption, attach_timeline,
)

EPOCH_S = 600.0


def _timeline(names, kind, seed):
    """A drift table over the first five VMs only, and fault events:
    two overlapping degradations on one VM, one on a VM the table does not
    cover, a degradation that never ends, two preemptions and a probe loss
    (which no hose reads)."""
    rng = np.random.default_rng(seed)
    epochs = ()
    if kind in ("drift", "both"):
        epochs = tuple(
            {vm: float(rng.uniform(2e8, 2e9)) for vm in names[:5]} for _ in range(6)
        )
    events = ()
    if kind in ("faults", "both"):
        events = (
            LinkDegradation(names[1], 100.0, 2_000.0, 0.5),
            LinkDegradation(names[1], 900.0, 4_000.0, 0.7),
            LinkDegradation(names[6], 0.0, math.inf, 0.3),
            LinkDegradation(names[3], 3_000.0, 3_600.0, 0.9),
            VmPreemption(names[2], 1_500.0),
            VmPreemption(names[7], 50.0),
            ProbeLoss(names[0], names[4], 0.0, 5_000.0, mode="wild", factor=2.0),
        )
    return Timeline(epoch_s=EPOCH_S, hose_epochs=epochs, events=events)


def _assert_same_hoses(provider, twin):
    names = [vm.name for vm in provider.vms()]
    assert names == [vm.name for vm in twin.vms()]
    want = [scalar_hose.hose_rate(twin, vm) for vm in names]
    assert [provider.hose_rate(vm) for vm in names] == want
    assert provider.hose_capacities() == {
        hose_link_id(vm): rate for vm, rate in zip(names, want)
    }
    some = names[::-2]
    assert provider.hose_capacities(some) == {
        hose_link_id(vm): scalar_hose.hose_rate(twin, vm) for vm in some
    }


def _assert_same_true_rates(provider, twin):
    """Every ordered pair's true rate (the diagonal and shared hosts read
    the intra-host rate), in a shuffled VM order."""
    names = [vm.name for vm in provider.vms()][::-1]
    names = names[1::2] + names[::2]
    rates = provider.true_path_rates(names)
    assert rates.tolist() == [
        [scalar_hose.true_path_rate(twin, a, b) for b in names] for a in names
    ]


@pytest.mark.parametrize("kind", ["none", "drift", "faults", "both"])
@pytest.mark.parametrize("name", ["ec2", "rackspace"])
def test_the_hose_vector_is_the_per_vm_read(name, kind):
    """200 drift steps (zero, short and epoch-long) on a provider with
    colocated VMs and on a copy stepped by the oracle: the same deviations,
    the same random stream, every hose read ``==`` the per-VM one, and
    every fiftieth step every true path rate ``==`` the per-pair one.  Half
    way, each releases a VM the timeline names and requests two more."""
    params = dataclasses.replace(make_provider(name).params, colocation_probability=0.4)
    provider = make_provider(name, seed=11, params=params)
    provider.request_vms(8)
    names = [vm.name for vm in provider.vms()]
    assert len({vm.host for vm in provider.vms()}) < len(names)  # some share a host
    if kind != "none":
        attach_timeline(provider, _timeline(names, kind, seed=5))
    twin = provider.copy()
    steps = np.random.default_rng(2).choice([0.0, 1.0, 37.5, 250.0, EPOCH_S], 200)
    for step, seconds in enumerate(steps.tolist()):
        if step == 100:
            for each in (provider, twin):
                each.release_vm(names[1])
                each.request_vms(2)
        provider.advance_time(seconds)
        scalar_hose.advance_time(twin, seconds)
        assert provider.now == twin.now
        assert provider._hose_deviation == twin._hose_deviation
        assert provider._rng.bit_generator.state == twin._rng.bit_generator.state
        _assert_same_hoses(provider, twin)
        if step % 50 == 49:
            _assert_same_true_rates(provider, twin)
    if kind in ("faults", "both"):
        assert provider.hose_rate(names[7]) == 1.0  # preempted at 50 s


def test_the_vector_draw_is_the_per_vm_draws():
    """One ``normal(0, s, size=n)`` call is ``n`` calls of ``normal(0, s)``
    on the same stream, for every width the provider draws."""
    for std in (0.0, 1e-3, 0.05):
        for n in (0, 1, 7, 40):
            one, many = np.random.default_rng(9), np.random.default_rng(9)
            block = one.normal(0.0, std, size=n)
            assert block.tolist() == [float(many.normal(0.0, std)) for _ in range(n)]
            assert one.bit_generator.state == many.bit_generator.state


def test_an_unknown_vm_is_refused_by_name():
    provider = make_provider("ec2", seed=3)
    first, second = provider.request_vms(2)
    provider.release_vm(first.name)
    for ghost in ("ghost", first.name):
        with pytest.raises(CloudError, match=f"unknown VM '{ghost}'"):
            provider.hose_rate(ghost)
        with pytest.raises(CloudError, match=f"unknown VM '{ghost}'"):
            provider.hose_capacities([second.name, ghost])
        with pytest.raises(CloudError, match=f"unknown VM '{ghost}'"):
            provider.true_path_rates([second.name, ghost])
    assert provider.hose_rate(second.name) == scalar_hose.hose_rate(provider, second.name)


def test_a_timeline_leaves_the_provider_caps_it_was_given_alone():
    """``Timeline.hose_rates`` returns a new array: the caps it was handed
    are not written, whatever it replaces or scales."""
    timeline = Timeline(
        epoch_s=EPOCH_S, hose_epochs=({"a": 5e8},),
        events=(VmPreemption("b", 0.0), LinkDegradation("c", 0.0, 10.0, 0.5)),
    )
    own = np.array([1e9, 1e9, 1e9, 1e9])
    rates = timeline.hose_rates(["a", "b", "c", "d"], 5.0, own)
    assert rates.tolist() == [5e8, 1.0, 0.5e9, 1e9]
    assert own.tolist() == [1e9] * 4
