"""Provider registry tests: ec2 and ec2_legacy must coexist without
duplicate registration, and the error contract must hold."""

import dataclasses

import numpy as np
import pytest
from oracles.parent_request_vms import parent_release_vm, parent_request_vms

# Importing both modules side by side must not raise (idempotent registry).
import repro.cloud.ec2  # noqa: F401
import repro.cloud.ec2_legacy  # noqa: F401
from repro.cloud.ec2 import EC2Provider
from repro.cloud.ec2_legacy import EC2LegacyProvider
from repro.cloud.registry import make_provider, provider_names, register_provider
from repro.errors import CloudError, ReproError, TopologyError
from repro.net.links import Link
from repro.net.topology import TreeSpec


def test_all_builtin_providers_are_registered():
    names = provider_names()
    assert {"ec2", "ec2-legacy", "rackspace"} <= set(names)
    assert names == sorted(names)


def test_make_provider_builds_ec2_and_legacy_side_by_side():
    modern = make_provider("ec2", seed=1)
    legacy = make_provider("ec2-legacy", seed=1, zone="us-east-1c")
    assert isinstance(modern, EC2Provider)
    assert isinstance(legacy, EC2LegacyProvider)
    assert legacy.zone == "us-east-1c"
    assert modern.params.name != legacy.params.name


def test_reregistering_same_factory_is_idempotent():
    register_provider("ec2", EC2Provider)  # same factory: no-op
    assert provider_names().count("ec2") == 1


def test_conflicting_registration_raises_cloud_error():
    with pytest.raises(CloudError):
        register_provider("ec2", EC2LegacyProvider)


def test_unknown_provider_raises_cloud_error():
    with pytest.raises(CloudError):
        make_provider("no-such-cloud")


def test_link_capacity_violation_raises_library_error():
    # Regression: this used to raise a bare ValueError; the library contract
    # is that every failure derives from ReproError.
    with pytest.raises(TopologyError):
        Link(link_id="bad", src="a", dst="b", capacity_bps=0.0)
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
