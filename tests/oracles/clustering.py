"""Machine clustering by name, as the scalar hierarchical greedy used it.

:class:`~repro.core.placement.greedy.GreedyPlacer` clusters machine
*indices* with ``_k_center``; this is the same clustering spelled with
machine names, for the scalar reference placer the tests hold it to.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.network_profile import NetworkProfile
from repro.core.placement.greedy import _k_center
from repro.errors import PlacementError


def cluster_vms_by_rate_profile(
    profile: NetworkProfile, machines: Sequence[str], n_clusters: int
) -> Tuple[List[str], List[List[str]]]:
    """``(leaders, clusters)``: ``clusters[i]`` lists the machines led by
    ``leaders[i]``, each machine with its nearest leader (see ``_k_center``)."""
    if len(machines) == 0:
        raise PlacementError("cannot cluster an empty machine list")
    leader_rows, owner = _k_center(profile.rate_matrix(order=machines), n_clusters)
    clusters: List[List[str]] = [[] for _ in leader_rows]
    for index, lead in enumerate(owner):
        clusters[int(lead)].append(machines[index])
    return [machines[i] for i in leader_rows], clusters
