"""``CloudProvider.request_vms`` of commit ``958efb1`` — the oracle.

Until PR 22 every requested VM rebuilt the tenant's used hosts (a list, one
entry per VM) and the free hosts (``h not in`` that list, per host): O(n² ·
hosts) for n VMs.  The provider now keeps both sequences up to date VM by
VM; this module keeps the old loop, moved in verbatim, as the reference
``tests/test_campaign_batch.py`` holds it to — same hosts, same hose rates,
same next draw.  What was ``self.`` is ``provider.``.
"""

from __future__ import annotations

from typing import List

from repro.cloud.instances import VirtualMachine
from repro.errors import CloudError


def parent_request_vms(provider, n: int, name_prefix: str = "vm") -> List[VirtualMachine]:
    if n < 1:
        raise CloudError("must request at least one VM")
    all_hosts = provider.topology.hosts()
    new_vms: List[VirtualMachine] = []
    for _ in range(n):
        provider._vm_counter += 1
        name = f"{name_prefix}{provider._vm_counter}"
        used_hosts = [vm.host for vm in provider._vms.values()]
        free_hosts = [h for h in all_hosts if h not in used_hosts]
        colocate = (
            used_hosts
            and provider._rng.random() < provider.params.colocation_probability
        )
        if colocate or not free_hosts:
            host = str(provider._rng.choice(sorted(set(used_hosts))))
        else:
            host = str(provider._rng.choice(free_hosts))
        vm = VirtualMachine(name=name, host=host, instance_type=provider.params.instance_type)
        provider._vms[name] = vm
        provider._base_hose[name] = float(provider.params.hose_sampler(provider._rng))
        provider._hose_deviation[name] = 0.0
        new_vms.append(vm)
    return new_vms


def parent_release_vm(provider, name: str) -> None:
    if name not in provider._vms:
        raise CloudError(f"unknown VM {name!r}")
    del provider._vms[name]
    del provider._base_hose[name]
    del provider._hose_deviation[name]
