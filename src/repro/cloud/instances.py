"""Instance types and virtual machine handles.

A :class:`VirtualMachine` is what the tenant gets back from
``request_vms``: a named handle pinned to a physical host of the provider's
internal topology.  The tenant never sees the host; Choreo has to infer
locality from measurements, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CloudError
from repro.units import GBITPS, MBITPS


@dataclass(frozen=True)
class InstanceType:
    """A provider instance type.

    Attributes:
        name: e.g. ``"m1.medium"`` or ``"rackspace-8gb"``.
        cores: CPU cores available to the tenant on this instance (the
            evaluation models four cores per machine).
        advertised_egress_bps: the egress rate the provider advertises (or
            that tenants commonly observe) for this instance type.
    """

    name: str
    cores: float = 4.0
    advertised_egress_bps: float = 1 * GBITPS

    def __post_init__(self) -> None:
        if not self.cores > 0:
            raise CloudError("instance type must have positive cores")
        if not self.advertised_egress_bps > 0:
            raise CloudError("advertised egress rate must be positive")


EC2_MEDIUM = InstanceType("ec2-medium", cores=4.0, advertised_egress_bps=1 * GBITPS)
RACKSPACE_8GB = InstanceType(
    "rackspace-8gb", cores=4.0, advertised_egress_bps=300 * MBITPS
)


@dataclass(frozen=True)
class VirtualMachine:
    """A VM handle returned to the tenant.

    Attributes:
        name: tenant-visible identifier.
        host: physical machine the VM was scheduled on (internal detail the
            tenant cannot see directly).
        instance_type: the VM's instance type.
    """

    name: str
    host: str
    instance_type: InstanceType = EC2_MEDIUM

    def __post_init__(self) -> None:
        if not self.name or not self.host:
            raise CloudError("VM name and host must be non-empty")

    @property
    def cores(self) -> float:
        """CPU cores available on this VM."""
        return self.instance_type.cores
