"""Synthetic cloud provider substrate.

The paper measures Amazon EC2 and Rackspace (May 2012 and May 2013) and runs
its evaluation by transferring real traffic on EC2.  We cannot use those
networks, so this package provides synthetic providers whose *generative*
models encode the paper's measurement findings: hose-model egress rate
limiting, ~1 Gbit/s EC2 paths with ~20% spatial variation and colocated
~4 Gbit/s outliers, uniform 300 Mbit/s Rackspace paths, strong temporal
stability, and multi-rooted-tree hop counts.

Every provider exposes the measurement API Choreo needs (netperf-style bulk
transfers, packet trains, traceroute, probe time series) plus an execution
API used by :mod:`repro.runtime` to "run" placed applications.
"""

from repro.cloud.instances import InstanceType, VirtualMachine
from repro.cloud.provider import CloudProvider, ProviderParams, VMFlow
from repro.cloud.registry import make_provider, provider_names, register_provider
from repro.cloud.ec2 import EC2Provider, ec2_params
from repro.cloud.ec2_legacy import EC2LegacyProvider, ec2_legacy_params, EC2_LEGACY_ZONES
from repro.cloud.rackspace import RackspaceProvider, rackspace_params

__all__ = [
    "InstanceType",
    "VirtualMachine",
    "CloudProvider",
    "ProviderParams",
    "VMFlow",
    "EC2Provider",
    "ec2_params",
    "EC2LegacyProvider",
    "ec2_legacy_params",
    "EC2_LEGACY_ZONES",
    "RackspaceProvider",
    "rackspace_params",
    "make_provider",
    "provider_names",
    "register_provider",
]
