"""Route, then reduce: the oracle the tree's table read is held to.

A campaign once routed every probe's pair of hosts
(``Topology.path_links_matrix``) only to take the least capacity along
each route.  :func:`routed_narrowest` is that: route the batch, then one
``minimum`` per hop column (a -1 padding entry reads +inf), and the routes'
lengths as their hop counts.  ``Topology.narrowest`` reads the same values
off the tree's tables without routing, and must return them bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def routed_narrowest(
    topology, pairs: np.ndarray, hops: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Each host pair's narrowest link and, with ``hops``, its hop count,
    from ``topology``'s routes."""
    if not pairs.shape[0]:
        return np.zeros(0), np.zeros(0, np.int32) if hops else None
    paths, lengths, _ = topology.path_links_matrix(pairs)
    capacity = np.append(topology.capacity_vector(), np.inf)
    narrowest = capacity[paths[:, 0]]
    for hop in range(1, paths.shape[1]):
        np.minimum(narrowest, capacity[paths[:, hop]], out=narrowest)
    return narrowest, lengths if hops else None
