"""Reproduction of "Choreo: Network-Aware Task Placement for Cloud Applications".

Sub-packages:

* :mod:`repro.net` — topologies, max-min fluid simulator, packet trains;
* :mod:`repro.cloud` — synthetic EC2/Rackspace-like providers;
* :mod:`repro.workloads` — applications, patterns, the HP-Cloud generator;
* :mod:`repro.core` — Choreo itself: profiling, measurement, placement;
* :mod:`repro.runtime` — executing placed applications on a provider;
* :mod:`repro.experiments` — the §6 evaluation: scenarios, sweeps, CLI;
* :mod:`repro.service` — the online placement service over drifting networks.

``repro`` itself re-exports the stable API surface below lazily (PEP 562),
so ``import repro`` stays cheap and scripts can write::

    from repro import resolve_placer, ExperimentConfig, run_churn_session

``python -m repro`` is the unified CLI dispatcher over the
``experiments``/``service`` subcommands.
"""

from typing import TYPE_CHECKING

__version__ = "0.1.0"

#: The stable public surface.  Names map to ``module_attribute`` pairs and
#: resolve on first attribute access, keeping ``import repro`` dependency-free.
_EXPORTS = {
    # Placement registry facade (alias canonicalisation lives behind it).
    "resolve_placer": ("repro.experiments.placers", "resolve_placer"),
    "list_placers": ("repro.experiments.placers", "list_placers"),
    "PlacerSpec": ("repro.experiments.placers", "PlacerSpec"),
    # Measured network view and placement algorithms.
    "NetworkProfile": ("repro.core.network_profile", "NetworkProfile"),
    "GreedyPlacer": ("repro.core.placement.greedy", "GreedyPlacer"),
    "Placement": ("repro.core.placement.base", "Placement"),
    "ClusterState": ("repro.core.placement.base", "ClusterState"),
    # Network simulation.
    "FluidSimulation": ("repro.net.fluid", "FluidSimulation"),
    "IncrementalAllocator": ("repro.net.alloc", "IncrementalAllocator"),
    "Topology": ("repro.net.topology", "Topology"),
    # Evaluation sweeps.
    "ExperimentConfig": ("repro.experiments.runner", "ExperimentConfig"),
    "ExperimentRunner": ("repro.experiments.runner", "ExperimentRunner"),
    # Online placement service.
    "run_churn_session": ("repro.service.session", "run_churn_session"),
    "build_churn_session": ("repro.service.session", "build_churn_session"),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover — static-analysis view of the lazy names
    from repro.core.network_profile import NetworkProfile  # noqa: F401
    from repro.core.placement.base import ClusterState, Placement  # noqa: F401
    from repro.core.placement.greedy import GreedyPlacer  # noqa: F401
    from repro.experiments.placers import (  # noqa: F401
        PlacerSpec,
        list_placers,
        resolve_placer,
    )
    from repro.experiments.runner import (  # noqa: F401
        ExperimentConfig,
        ExperimentRunner,
    )
    from repro.net.alloc import IncrementalAllocator  # noqa: F401
    from repro.net.fluid import FluidSimulation  # noqa: F401
    from repro.net.topology import Topology  # noqa: F401
    from repro.service.session import (  # noqa: F401
        build_churn_session,
        run_churn_session,
    )
