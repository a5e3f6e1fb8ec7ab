"""Switch the library between optimised and reference hot paths.

Each optimisation in this PR kept its pre-optimisation implementation
reachable behind a switch:

* :func:`repro.net.fluid.set_default_allocator` — incremental vs reference
  max-min allocation inside :class:`~repro.net.fluid.FluidSimulation`;
* :func:`repro.net.topology.set_route_cache_enabled` — the process-wide
  structural routing cache;
* :func:`repro.net.topology.set_structured_routing_enabled` — the
  arithmetic tree-topology routing fast path.

:func:`reference_mode` flips all three at once so the benchmarks can time
"the code as it was" against "the code as it is" inside one process.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.net.fluid import ALLOCATOR_REFERENCE, set_default_allocator
from repro.net.topology import (
    clear_route_cache,
    set_route_cache_enabled,
    set_structured_routing_enabled,
)


@contextmanager
def reference_mode():
    """Run the enclosed block on the pre-optimisation code paths."""
    previous_allocator = set_default_allocator(ALLOCATOR_REFERENCE)
    previous_routes = set_route_cache_enabled(False)
    previous_structured = set_structured_routing_enabled(False)
    clear_route_cache()
    try:
        yield
    finally:
        set_default_allocator(previous_allocator)
        set_route_cache_enabled(previous_routes)
        set_structured_routing_enabled(previous_structured)
