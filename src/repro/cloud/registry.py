"""Named providers.

The evaluation subsystem (:mod:`repro.experiments`) constructs providers by
name — "ec2", "ec2-legacy", "rackspace" — so that scenarios can be declared
as data and trials can be re-created in worker processes.  A provider is a
:class:`~repro.cloud.provider.ProviderParams` record: each name maps to the
function that makes its record, and :func:`make_provider` builds a
:class:`~repro.cloud.provider.CloudProvider` on it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cloud.ec2 import ec2_params
from repro.cloud.ec2_legacy import ec2_legacy_params
from repro.cloud.provider import CloudProvider, ProviderParams
from repro.cloud.rackspace import rackspace_params
from repro.errors import CloudError

_PARAMS: Dict[str, Callable[..., ProviderParams]] = {
    "ec2": ec2_params,
    "ec2-legacy": ec2_legacy_params,
    "rackspace": rackspace_params,
}


def provider_names() -> List[str]:
    """All provider names, sorted."""
    return sorted(_PARAMS)


def make_provider(
    name: str, seed: int = 0, params: Optional[ProviderParams] = None, **knobs
) -> CloudProvider:
    """A provider of the named kind, seeded with ``seed``.

    ``knobs`` are the arguments of the name's ``*_params`` function
    (``ec2``: ``extra_agg_layer``, ``colocation_probability``;
    ``ec2-legacy``: ``zone``; ``rackspace``: none).  ``params`` is a whole
    record to build on instead, so it takes no knobs.

    Raises:
        CloudError: for an unknown name, or knobs given with ``params``.
    """
    try:
        make_params = _PARAMS[name]
    except KeyError as exc:
        raise CloudError(
            f"unknown provider {name!r}; known: {provider_names()}"
        ) from exc
    if params is None:
        params = make_params(**knobs)
    elif knobs:
        raise CloudError(
            f"provider {name!r}: knobs {sorted(knobs)} cannot be given with params"
        )
    return CloudProvider(params, seed=seed)
