"""Graph search: the routing oracle the tree's router is held to.

A :class:`~repro.net.topology.Topology` routes only through the one router
its :class:`~repro.net.topology.TreeSpec` gives it.  A
:class:`SearchedGraph` routes any graph by search instead: a pair takes the
``_ecmp_pick``-th of its lexicographically sorted shortest paths
(``_lazy_kth_shortest_path``), so a searched copy of a tree must route every
pair exactly as the tree's router does.  :func:`hand_built` lays such a copy
out link by link, in the order the tree's links were added when a topology
was an editable graph; the Figure 3 topologies of ``tests/helpers.py`` are
searched graphs too.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from oracles.narrowest import routed_narrowest
from repro.cloud import provider as cloud_provider
from repro.errors import RoutingError, TopologyError
from repro.net.links import directed_link_id, loopback_link_id
from repro.net.topology import _MIX, Topology, TreeSpec, _node_key, index_pairs

#: A graph's links in link-index order: ``(a, b, capacity)`` is a cable,
#: directed links ``a->b`` then ``b->a``, or with ``a == b`` host ``a``'s
#: loopback.
Links = Sequence[Tuple[str, str, float]]

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


class SearchedGraph:
    """A capacitated graph that routes every pair by graph search, pair by
    pair.

    It is built in one step, as a topology is: ``hosts`` in position order
    (:meth:`host_index`) and ``links`` in link-index order.  It answers
    what a fluid simulation and a provider ask of a topology, and nothing
    else."""

    def __init__(self, name: str, hosts: Sequence[str], links: Links):
        self.name = name
        self._host_names = list(hosts)
        self._host_index = {host: i for i, host in enumerate(self._host_names)}
        self._capacities: Dict[str, float] = {}
        self._adjacency: Dict[str, set] = {}
        for a, b, capacity in links:
            if a == b:
                self._capacities[loopback_link_id(a)] = capacity
                continue
            self._capacities[directed_link_id(a, b)] = capacity
            self._capacities[directed_link_id(b, a)] = capacity
            self._adjacency.setdefault(a, set()).add(b)
            self._adjacency.setdefault(b, set()).add(a)

    def hosts(self) -> List[str]:
        return sorted(self._host_names)

    def host_index(self, name: str) -> int:
        try:
            return self._host_index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown host {name!r}") from exc

    def rack_of(self, host: str) -> str:
        """The one switch ``host`` is cabled to."""
        self.host_index(host)
        (switch,) = self._adjacency[host]
        return switch

    def capacities(self) -> Dict[str, float]:
        return dict(self._capacities)

    def capacity_vector(self) -> np.ndarray:
        return np.array(list(self._capacities.values()), dtype=np.float64)

    def path_links_matrix(
        self, pairs: Union[Sequence[Tuple[str, str]], np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        names = self._host_names
        if isinstance(pairs, np.ndarray):
            index_pairs(pairs, len(names), "host positions")
            pairs = [(names[a], names[b]) for a, b in pairs.tolist()]
        link_ids = list(self._capacities)
        index = {lid: i for i, lid in enumerate(link_ids)}
        routes = []
        for src, dst in pairs:
            for name in (src, dst):
                if name not in self._host_index:
                    raise RoutingError(f"topology {self.name!r} routes hosts only, got {name!r}")
            if src == dst:
                routes.append([index[loopback_link_id(src)]])
                continue
            nodes = _lazy_kth_shortest_path(self._adjacency, src, dst)
            if nodes is None:
                raise RoutingError(f"no path between {src!r} and {dst!r}")
            routes.append([index[directed_link_id(a, b)] for a, b in zip(nodes, nodes[1:])])
        lengths = np.array([len(route) for route in routes], dtype=np.int32)
        rows = np.full((len(routes), int(lengths.max(initial=0))), -1, dtype=np.int32)
        for row, route in zip(rows, routes):
            row[: len(route)] = route
        return rows, lengths, link_ids

    def narrowest(
        self, pairs: np.ndarray, hops: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        return routed_narrowest(self, pairs, hops)


def route_ids(topology, src: str, dst: str) -> List[str]:
    """The link ids host ``src``'s traffic to host ``dst`` crosses: the
    pair's one row of ``topology.path_links_matrix``."""
    (row,), (length,), link_ids = topology.path_links_matrix([(src, dst)])
    return [link_ids[i] for i in row[:length].tolist()]


def tree_layout(spec: TreeSpec) -> Tuple[List[str], List[Tuple[str, str, float]]]:
    """The hosts and links of ``spec``'s tree in the order an editable
    graph had them added: cores; per pod its aggregation switch and its
    core cables; per rack its ToR and uplink cable(s); per host the host
    (which added its loopback) and its ToR cable."""
    hosts: List[str] = []
    links: List[Tuple[str, str, float]] = []
    for p in range(spec.pods):
        agg = f"agg{p}"
        for c in range(spec.num_cores):
            links.append((agg, f"core{c}", spec.agg_core_link_bps))
        for r in range(spec.racks_per_pod):
            tor = f"tor{p}.{r}"
            if spec.extra_agg_layer:
                mid = f"agg{p}.{r}"
                links.append((tor, mid, spec.tor_agg_link_bps))
                links.append((mid, agg, spec.tor_agg_link_bps))
            else:
                links.append((tor, agg, spec.tor_agg_link_bps))
            for _ in range(spec.hosts_per_rack):
                host = f"host{len(hosts)}"
                hosts.append(host)
                links.append((host, host, spec.intra_host_bps))
                links.append((host, tor, spec.host_link_bps))
    return hosts, links


def hand_built(topo: Topology, seed: Optional[int] = None) -> SearchedGraph:
    """``topo``'s tree as a :class:`SearchedGraph`, laid out by
    :func:`tree_layout`.

    With no ``seed``, in that order: hosts keep their positions and links
    their indices.  With one, the hosts (with their loopbacks) and then the
    cables in an order the seed shuffles: hosts take other positions, links
    other indices.
    """
    hosts, links = tree_layout(topo.spec)
    if seed is not None:
        rng = random.Random(seed)
        hosts = rng.sample(hosts, len(hosts))
        cables = [link for link in links if link[0] != link[1]]
        loops = [(host, host, topo.spec.intra_host_bps) for host in hosts]
        links = loops + rng.sample(cables, len(cables))
    return SearchedGraph(topo.name, hosts, links)


def build_searched_tree(spec: TreeSpec = TreeSpec(), name: str = "dc") -> SearchedGraph:
    """The tree of ``spec``, hand-built: same hosts, same links in the same
    order, every route a graph search."""
    return SearchedGraph(name, *tree_layout(spec))


def use_graph_search(patch) -> None:
    """Every provider built from here on gets a hand-built tree (a fresh
    one: the shared-tree table starts empty, so no router or route is left
    over from another test)."""
    patch.setattr(cloud_provider, "build_multi_rooted_tree", build_searched_tree)
    patch.setattr(cloud_provider, "_shared_trees", {})
