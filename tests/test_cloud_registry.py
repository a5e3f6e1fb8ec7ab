"""Provider registry tests: a provider is a ``ProviderParams`` record made
by name, and the error contract must hold."""

import dataclasses
import math

import numpy as np
import pytest
from oracles.parent_request_vms import parent_release_vm, parent_request_vms

from repro.cloud.ec2 import ec2_params
from repro.cloud.ec2_legacy import ec2_legacy_params
from repro.cloud.instances import InstanceType
from repro.cloud.provider import CloudProvider
from repro.cloud.registry import make_provider, provider_names
from repro.errors import CloudError, ReproError, TopologyError
from repro.net.topology import TreeSpec


def test_all_builtin_providers_are_registered():
    names = provider_names()
    assert {"ec2", "ec2-legacy", "rackspace"} <= set(names)
    assert names == sorted(names)


def test_make_provider_builds_ec2_and_legacy_side_by_side():
    modern = make_provider("ec2", seed=1)
    legacy = make_provider("ec2-legacy", seed=1, zone="us-east-1c")
    assert type(modern) is type(legacy) is CloudProvider
    assert modern.params == ec2_params()
    assert legacy.params.name == "ec2-2012-us-east-1c"
    assert modern.params.name != legacy.params.name


def test_a_record_is_taken_whole_and_takes_no_knobs():
    record = dataclasses.replace(ec2_legacy_params("us-east-1d"), name="mine")
    assert make_provider("ec2-legacy", seed=3, params=record).params is record
    # A knob beside a record used to be dropped without a word.
    with pytest.raises(CloudError, match=r"knobs \['colocation_probability'\]"):
        make_provider("ec2", params=ec2_params(), colocation_probability=0.0)


def test_unknown_provider_raises_cloud_error():
    with pytest.raises(CloudError):
        make_provider("no-such-cloud")


@pytest.mark.parametrize(
    "field, value",
    [
        ("temporal_sigma", math.nan),
        ("temporal_tau_s", math.nan),
        ("temporal_tau_s", math.inf),
        ("measurement_noise", math.nan),
        ("train_rate_noise", math.nan),
        ("intra_host_rate_bps", math.inf),
        ("train_jitter_std_s", math.inf),
        ("train_limiter_depth_bytes", math.inf),
        ("colocation_probability", math.nan),
        ("loss_rate", math.nan),
        ("hose_sampler", lambda rng: math.nan),
        ("hose_sampler", lambda rng: math.inf),
        ("hose_sampler", lambda rng: 0.0),
    ],
)
def test_non_finite_provider_values_are_refused_by_name(field, value):
    """A NaN or infinite parameter is refused where it is set, naming its
    field, and a sampled egress cap that is not finite and positive where
    it is drawn, naming the provider — not later, in a simulation."""
    if field != "hose_sampler":
        with pytest.raises(CloudError, match=rf"ProviderParams\.{field} must be"):
            dataclasses.replace(ec2_params(), **{field: value})
        return
    provider = make_provider(
        "ec2", params=dataclasses.replace(ec2_params(), hose_sampler=value)
    )
    with pytest.raises(CloudError, match="provider 'ec2': hose_sampler drew"):
        provider.request_vms(2)
    assert provider.vms() == []


def test_a_bad_cap_mid_request_hands_back_the_call_s_vms():
    """When the second of three sampled caps is bad, the call raises and
    leaves the provider as it found it: the VM drawn before the bad cap is
    handed back, its host is free again and the next VM reuses its name."""
    caps = iter([1e9, 2e9, math.nan, 3e9, 4e9])
    provider = make_provider(
        "ec2",
        params=dataclasses.replace(
            ec2_params(), hose_sampler=lambda rng: next(caps), colocation_probability=0.0
        ),
    )
    (kept,) = provider.request_vms(1)
    free = list(provider._free_hosts)
    with pytest.raises(CloudError, match="provider 'ec2': hose_sampler drew nan for 'vm3'"):
        provider.request_vms(3)
    assert provider.vms() == [kept]
    assert provider._free_hosts == free
    assert provider._used_hosts == [kept.host]
    assert provider._host_vms == {kept.host: 1}
    assert provider.vm_positions(["vm1"]).tolist() == [0]
    assert [vm.name for vm in provider.request_vms(2)] == ["vm2", "vm3"]
    assert provider.hose_rate("vm2") == 3e9


def test_link_capacity_violation_raises_library_error():
    # Regression: this used to raise a bare ValueError; the library contract
    # is that every failure derives from ReproError.
    with pytest.raises(TopologyError):
        TreeSpec(host_link_bps=0.0)
    assert issubclass(TopologyError, ReproError)


# ------------------------------------------- request_vms: same draws, no rescans
@pytest.mark.parametrize("colocation", [None, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_request_vms_draws_what_the_rescanning_loop_drew(seed, colocation):
    """The free / used host sequences kept VM by VM are, at every draw, the
    ones the parent rebuilt from scratch: same hosts, same hose rates, same
    RNG afterwards — through overflow (20 VMs on 16 hosts: every host used,
    the rest colocate) and releases that hand hosts back."""

    def build():
        params = make_provider("ec2").params
        changes = {"tree_spec": TreeSpec(hosts_per_rack=4, racks_per_pod=2, pods=2)}
        if colocation is not None:
            changes["colocation_probability"] = colocation
        return make_provider(
            "ec2", seed=seed, params=dataclasses.replace(params, **changes)
        )

    ours, parent = build(), build()
    script = np.random.default_rng(seed)
    for n, released in ((20, 7), (8, 5), (6, 0)):
        got = ours.request_vms(n)
        want = parent_request_vms(parent, n)
        assert got == want
        if colocation == 0.0 and n == 20:
            assert len({vm.host for vm in got}) == 16  # it did overflow
        for name in script.choice([vm.name for vm in ours.vms()], released, replace=False):
            ours.release_vm(str(name))
            parent_release_vm(parent, str(name))
    assert ours.vms() == parent.vms()
    assert ours.base_hose_rates() == parent.base_hose_rates()
    assert ours._rng.bit_generator.state == parent._rng.bit_generator.state
    # What the lists say is what a rescan says.
    used = sorted({vm.host for vm in ours.vms()})
    assert ours._used_hosts == used
    assert ours._free_hosts == [h for h in ours.topology.hosts() if h not in used]
    with pytest.raises(CloudError, match="unknown VM 'ghost'"):
        ours.release_vm("ghost")


@pytest.mark.parametrize("field", ["cores", "advertised_egress_bps"])
def test_a_nan_instance_type_is_refused(field):
    with pytest.raises(CloudError, match="positive"):
        InstanceType("nan", **{field: math.nan})
