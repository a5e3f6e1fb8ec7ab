"""Graph search: the routing oracle the tree's router is held to.

:func:`~repro.net.topology.build_multi_rooted_tree` attaches the one router
a topology has; any other graph refuses to route.  A
:class:`SearchedTopology` routes any graph by search instead: a pair takes
the ``_ecmp_pick``-th of its lexicographically sorted shortest paths
(``_lazy_kth_shortest_path``), so a searched copy of a tree must route every
pair exactly as the tree's router does.  The Figure 3 topologies of
``tests/helpers.py`` are searched topologies too.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud import provider as cloud_provider
from repro.errors import RoutingError
from repro.net.links import LinkKind, directed_link_id, loopback_link_id
from repro.net.topology import (
    _MIX,
    NodeKind,
    Topology,
    TreeSpec,
    _node_key,
    build_multi_rooted_tree,
    index_pairs,
)

_U64 = (1 << 64) - 1


def _ecmp_pick(src: str, dst: str, choices: int) -> int:
    """Which of ``choices`` equal-cost paths the ordered pair takes: the
    two endpoints' keys mixed into one well-spread 64-bit word, modulo
    ``choices``.  The mix is splitmix64's finaliser of ``key[src] * K +
    key[dst]`` modulo 2**64; the masks keep Python ints to 64 bits.
    (The tree router's ``core_picks`` is this for many pairs.)"""
    k1, k2, k3, s1, s2, s3 = _MIX
    z = (_node_key(src) * k1 + _node_key(dst)) & _U64
    z = ((z ^ (z >> s1)) * k2) & _U64
    z = ((z ^ (z >> s2)) * k3) & _U64
    return (z ^ (z >> s3)) % choices


def _lazy_kth_shortest_path(
    adjacency: Mapping[str, Iterable[str]], src: str, dst: str, k: Optional[int] = None
) -> Optional[List[str]]:
    """The k-th lexicographic shortest path without materialising them all.

    ``adjacency`` maps every node of an undirected graph to its neighbours.

    A reverse BFS from ``dst`` yields, for every node on a shortest path,
    the number of shortest paths from it to ``dst``.  Walking forward from
    ``src`` and always taking the smallest-named neighbour whose subtree
    still contains the k-th path then reproduces
    ``sorted(all shortest paths from src to dst)[k]`` exactly: all
    shortest paths share a length, so list comparison is decided at the
    first differing node, and subtree path counts are contiguous blocks of
    the sorted order.  When ``k`` is None it is :func:`_ecmp_pick` of the
    pair over the number of shortest paths.

    Returns None when no path exists.
    """
    dist = {dst: 0}
    frontier = [dst]
    depth = 0
    while frontier and src not in dist:
        nxt: List[str] = []
        for node in frontier:
            for neigh in adjacency[node]:
                if neigh not in dist:
                    dist[neigh] = depth + 1
                    nxt.append(neigh)
        depth += 1
        frontier = nxt
    if src not in dist:
        return None
    target = dist[src]
    levels: List[List[str]] = [[] for _ in range(target + 1)]
    for node, d in dist.items():
        if d <= target:
            levels[d].append(node)
    counts: Dict[str, int] = {dst: 1}
    for d in range(1, target + 1):
        for node in levels[d]:
            total = 0
            for neigh in adjacency[node]:
                if dist.get(neigh) == d - 1:
                    total += counts[neigh]
            counts[node] = total
    if k is None:
        k = _ecmp_pick(src, dst, counts[src])
    path = [src]
    node = src
    while node != dst:
        d = dist[node]
        for neigh in sorted(adjacency[node]):
            if dist.get(neigh) != d - 1:
                continue
            c = counts[neigh]
            if k < c:
                node = neigh
                path.append(neigh)
                break
            k -= c
        else:  # pragma: no cover - counts guarantee a neighbour is found
            raise RoutingError(f"path walk failed between {src!r} and {dst!r}")
    return path


class SearchedTopology(Topology):
    """A topology that routes every pair by graph search, pair by pair.

    Unlike a tree's router it also routes pairs that name a switch; a
    loopback pair still needs a host."""

    def node_path(self, src: str, dst: str) -> List[str]:
        kinds = [self.node_kind(node) for node in (src, dst)]  # raises on an unknown node
        if src == dst:
            if kinds[0] is not NodeKind.HOST:
                raise RoutingError(f"loopback path requires a host, got {src!r}")
            return [src]
        path = _lazy_kth_shortest_path(self._adjacency, src, dst)
        if path is None:
            raise RoutingError(f"no path between {src!r} and {dst!r}")
        return path

    def path_links_matrix(
        self, pairs: Union[Sequence[Tuple[str, str]], np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        if isinstance(pairs, np.ndarray):
            index_pairs(pairs, len(self._host_names), "host positions")
            names = self._host_names
            pairs = [(names[a], names[b]) for a, b in pairs.tolist()]
        link_ids = list(self._links)
        index = {lid: i for i, lid in enumerate(link_ids)}
        routes = []
        for src, dst in pairs:
            nodes = self.node_path(src, dst)
            if src == dst:
                routes.append([index[loopback_link_id(src)]])
            else:
                routes.append([index[directed_link_id(a, b)] for a, b in zip(nodes, nodes[1:])])
        lengths = np.array([len(route) for route in routes], dtype=np.int32)
        rows = np.full((len(routes), int(lengths.max(initial=0))), -1, dtype=np.int32)
        for row, route in zip(rows, routes):
            row[: len(route)] = route
        return rows, lengths, link_ids


def hand_built(topo: Topology, seed: Optional[int] = None) -> SearchedTopology:
    """``topo``'s graph, added node by node and link by link to a
    :class:`SearchedTopology`.

    With no ``seed``, in ``topo``'s own order: hosts keep their positions
    and links their indices.  With one, nodes and then cables in an order
    the seed shuffles: hosts take other positions, links other indices.
    """
    copy = SearchedTopology(name=topo.name, intra_host_bps=topo._intra_host_bps)

    def add_node(name):
        copy.add_node(name, topo.node_kind(name), topo._nodes[name][1])

    cables = [link for link in topo.links() if link.src < link.dst]
    if seed is not None:
        rng = random.Random(seed)
        for name in rng.sample(topo.nodes(), len(topo.nodes())):
            add_node(name)
        for link in rng.sample(cables, len(cables)):
            copy.add_link(link.src, link.dst, link.capacity_bps, link.kind)
        return copy
    # Switches add no link; a host adds its loopback, a cable both directions.
    for name in topo.nodes():
        if topo.node_kind(name) is not NodeKind.HOST:
            add_node(name)
    cabled = set()
    for link in topo.links():
        if link.kind is LinkKind.LOOPBACK:
            add_node(link.src)
        elif (link.dst, link.src) not in cabled:
            cabled.add((link.src, link.dst))
            copy.add_link(link.src, link.dst, link.capacity_bps, link.kind)
    return copy


def build_searched_tree(spec: TreeSpec = TreeSpec(), name: str = "dc") -> SearchedTopology:
    """:func:`build_multi_rooted_tree`'s tree, hand-built: same nodes, same
    links in the same order, every route a graph search."""
    return hand_built(build_multi_rooted_tree(spec, name=name))


def use_graph_search(patch) -> None:
    """Every provider built from here on gets a hand-built tree (a fresh
    one: the shared-tree table starts empty, so no router or route is left
    over from another test)."""
    patch.setattr(cloud_provider, "build_multi_rooted_tree", build_searched_tree)
    patch.setattr(cloud_provider, "_shared_trees", {})
