"""Placer registry for the evaluation sweep grid (paper §6).

Maps the placer names used on the CLI and in result files to factories.
Network-aware placers (``needs_profile=True``) get a measurement campaign
charged to their trial; network-oblivious baselines skip it, exactly as the
paper's comparison does.

Factories take ``(seed, **params)``: ``params`` are per-cell overrides from
:attr:`~repro.experiments.runner.ExperimentConfig.placer_params` (e.g. the
ILP's solver budget), validated by the factory so typos fail fast.  Aliases
let the ROADMAP/bench names address registry entries (``choreo-optimal`` is
``ilp``, ``choreo-greedy`` is ``greedy``); configs canonicalise them so
result files and cache keys always carry the registry name.

:func:`resolve_placer` and :func:`list_placers` are the public facade —
also re-exported from :mod:`repro` — and the *only* place alias
canonicalisation lives: CLIs and configs hand any accepted spelling to
``resolve_placer`` and read the canonical name off the returned spec
instead of keeping their own alias tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.placement.base import Placer
from repro.core.placement.baselines import (
    MinimumMachinesPlacer,
    RandomPlacer,
    RoundRobinPlacer,
)
from repro.core.placement.greedy import GreedyPlacer
from repro.core.placement.ilp import BruteForcePlacer, OptimalPlacer
from repro.errors import ExperimentError

__all__ = [
    "PLACER_ALIASES",
    "PlacerSpec",
    "canonical_placer_name",
    "get_placer",
    "list_placers",
    "placer_names",
    "resolve_placer",
]

#: Factory signature: ``factory(seed, **params) -> Placer`` (seed ignored by
#: deterministic placers; unknown params raise :class:`ExperimentError`).
PlacerFactory = Callable[..., Placer]

#: Alternate spellings accepted anywhere a placer name is taken.  The values
#: are registry names; the keys are the ``Placer.name`` attributes and other
#: historical spellings, so the ROADMAP/bench vocabulary resolves too.
PLACER_ALIASES: Dict[str, str] = {
    "choreo-optimal": "ilp",
    "optimal": "ilp",
    "choreo-greedy": "greedy",
    "brute": "brute-force",
}


@dataclass(frozen=True)
class PlacerSpec:
    """A named placement algorithm available to the experiment runner."""

    name: str
    description: str
    factory: PlacerFactory
    needs_profile: bool = False

    def create(self, seed: int, params: Optional[Mapping[str, object]] = None) -> Placer:
        """Instantiate the placer with per-cell parameter overrides."""
        return self.factory(seed, **dict(params or {}))


_PLACERS: Dict[str, PlacerSpec] = {}


def _register(spec: PlacerSpec) -> PlacerSpec:
    if spec.name in _PLACERS:
        raise ExperimentError(f"placer {spec.name!r} is already registered")
    _PLACERS[spec.name] = spec
    return spec


def _reject_params(name: str, params: Mapping[str, object]) -> None:
    if params:
        raise ExperimentError(
            f"placer {name!r} takes no parameters; got {sorted(params)}"
        )


def _pick(params: Mapping[str, object], allowed: Dict[str, object]) -> Dict[str, object]:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ExperimentError(
            f"unknown placer parameter(s) {sorted(unknown)}; "
            f"available: {sorted(allowed)}"
        )
    return {**allowed, **params}


def _greedy_factory(seed: int, **params) -> Placer:
    opts = _pick(
        params,
        {"model": "hose", "cluster_threshold": None, "n_clusters": None},
    )
    cluster_threshold = opts["cluster_threshold"]
    n_clusters = opts["n_clusters"]
    return GreedyPlacer(
        model=str(opts["model"]),
        cluster_threshold=(
            None if cluster_threshold is None else int(cluster_threshold)  # type: ignore[arg-type]
        ),
        n_clusters=None if n_clusters is None else int(n_clusters),  # type: ignore[arg-type]
    )


def _ilp_factory(seed: int, **params) -> Placer:
    """The exact placer, budgeted per cell."""
    opts = _pick(
        params, {"model": "hose", "time_limit_s": 10.0, "mip_rel_gap": 1e-4}
    )
    return OptimalPlacer(
        model=str(opts["model"]),
        time_limit_s=float(opts["time_limit_s"]),  # type: ignore[arg-type]
        mip_rel_gap=float(opts["mip_rel_gap"]),  # type: ignore[arg-type]
    )


def _brute_factory(seed: int, **params) -> Placer:
    opts = _pick(params, {"model": "hose"})
    return BruteForcePlacer(model=str(opts["model"]))


def _random_factory(seed: int, **params) -> Placer:
    _reject_params("random", params)
    return RandomPlacer(seed=seed)


def _round_robin_factory(seed: int, **params) -> Placer:
    _reject_params("round-robin", params)
    return RoundRobinPlacer()


def _min_machines_factory(seed: int, **params) -> Placer:
    _reject_params("min-machines", params)
    return MinimumMachinesPlacer()


_register(
    PlacerSpec(
        name="greedy",
        description="Choreo's greedy network-aware placement (Algorithm 1, §5).",
        factory=_greedy_factory,
        needs_profile=True,
    )
)
_register(
    PlacerSpec(
        name="ilp",
        description=(
            "The Appendix's optimal placement, by exact branch-and-bound "
            "over the assignment, seeded with the greedy placement."
        ),
        factory=_ilp_factory,
        needs_profile=True,
    )
)
_register(
    PlacerSpec(
        name="brute-force",
        description="Exhaustive optimal placement; tiny instances only.",
        factory=_brute_factory,
        needs_profile=True,
    )
)
_register(
    PlacerSpec(
        name="random",
        description="Tasks on random CPU-feasible VMs (the paper's baseline).",
        factory=_random_factory,
    )
)
_register(
    PlacerSpec(
        name="round-robin",
        description="Tasks round-robin across VMs, skipping full ones.",
        factory=_round_robin_factory,
    )
)
_register(
    PlacerSpec(
        name="min-machines",
        description="First-fit packing onto as few VMs as possible.",
        factory=_min_machines_factory,
    )
)


def resolve_placer(name: str) -> PlacerSpec:
    """Resolve any accepted placer spelling to its registry spec.

    This is the single place alias canonicalisation happens: CLIs,
    configs, and the service all pass user-facing names (``greedy``,
    ``choreo-greedy``, ``choreo-optimal``, ...) here and use
    ``resolve_placer(name).name`` as the canonical spelling for result
    files and cache keys.

    Raises:
        ExperimentError: for unknown names, listing the registered names
            and accepted aliases.
    """
    try:
        return _PLACERS[PLACER_ALIASES.get(name, name)]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown placer {name!r}; registered: {placer_names()} "
            f"(aliases: {sorted(PLACER_ALIASES)})"
        ) from exc


def list_placers() -> List[PlacerSpec]:
    """Every registered placer spec, sorted by canonical name."""
    return [_PLACERS[name] for name in sorted(_PLACERS)]


def canonical_placer_name(name: str) -> str:
    """Resolve aliases to the registry name (unknown names pass through).

    Prefer ``resolve_placer(name).name``, which validates the name too;
    this helper survives for callers that must tolerate unknown names.
    """
    return PLACER_ALIASES.get(name, name)


def get_placer(name: str) -> PlacerSpec:
    """Look up a placer spec by name (aliases accepted).

    Equivalent to :func:`resolve_placer`; kept as the historical spelling.
    """
    return resolve_placer(name)


def placer_names() -> List[str]:
    """All registered placer names, sorted (aliases excluded)."""
    return sorted(_PLACERS)
