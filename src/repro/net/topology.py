"""Multi-rooted tree datacenter topologies (paper §3.3.1, Figure 5).

The paper assumes datacenter networks are multi-rooted trees: virtual
machines sit on physical machines, which connect to top-of-rack (ToR)
switches, which connect to aggregation switches, which connect to core
switches.  Path hop counts in such a topology fall in ``{1, 2, 4, 6, 8}``
(Figure 8): one "hop" for two VMs on the same physical machine, two for the
same rack, four within an aggregation subtree, six through the core, and
eight when an extra aggregation tier is present.

:class:`Topology` is a small adjacency container that knows about directed
capacities, racks, subtrees, and intra-host loopback links.  Specialised
builders create the topologies the paper uses:

* :func:`build_multi_rooted_tree` — the general datacenter of Figure 5;
* :func:`build_dumbbell` — Figure 3(a), ten sender/receiver pairs sharing one
  1 Gbit/s link;
* :func:`build_two_rack_cloud` — Figure 3(b), two racks of ten nodes whose
  ToR switches connect through a 10 Gbit/s aggregation switch.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.errors import RoutingError, TopologyError
from repro.net.links import (
    Link,
    LinkKind,
    directed_link_id,
    loopback_link_id,
)
from repro.units import GBITPS


# ---------------------------------------------------------------------------
# Process-wide routing cache
# ---------------------------------------------------------------------------
# ECMP path choices depend only on the graph *structure* (edges) and the
# endpoint pair, not on capacities or on which Topology instance asked.
# Experiment sweeps rebuild structurally identical topologies for every
# trial, so path computations are shared process-wide, keyed by a structure
# token.  The cache is bounded: it is simply dropped when it grows past
# _ROUTE_CACHE_MAX_ENTRIES (sweeps revisit far fewer distinct pairs).
_ROUTE_CACHE_MAX_ENTRIES = 262_144
_route_cache: Dict[Tuple[str, str, str], List[str]] = {}
# Typed counters (thin-viewed by route_cache_info(); aggregated by
# ``obs.metrics.snapshot()`` under ``repro.routes.*``).
_route_cache_hits = obs.Counter("repro.routes.cache_hits")
_route_cache_misses = obs.Counter("repro.routes.cache_misses")


def clear_route_cache() -> None:
    """Drop every entry of the shared routing cache.

    The hit/miss counters are monotonic and keep their values.
    """
    _route_cache.clear()


def route_cache_info() -> Dict[str, int]:
    """Counters for the shared routing cache (entries, hits, misses)."""
    return {
        "entries": len(_route_cache),
        "hits": _route_cache_hits.count,
        "misses": _route_cache_misses.count,
    }


# ---------------------------------------------------------------------------
# Structured-topology routing fast path
# ---------------------------------------------------------------------------
# Multi-rooted trees built from a TreeSpec have completely regular routes:
# host i sits in pod i // (racks_per_pod * hosts_per_rack) and rack
# (i // hosts_per_rack) % racks_per_pod, and every path is determined by the
# relation between the two endpoints' coordinates (same host / rack / pod /
# cross-pod) plus the ECMP core choice.  Builders register a _TreeRouter per
# structure token; Topology.node_path consults it before falling back to
# graph search.  The router must reproduce the graph-search answer exactly.
_STRUCTURED_ROUTER_MAX_ENTRIES = 1024
_structured_routers: Dict[str, "_TreeRouter"] = {}
_structured_route_hits = obs.Counter("repro.routes.structured_hits")


#: Ordered endpoint pairs whose ECMP pick was hashed (SHA-256) rather than
#: remembered (``obs.metrics.snapshot()``, ``repro.routes.ecmp_hashed``).
ECMP_HASHED = obs.Counter("repro.routes.ecmp_hashed")


def structured_routing_info() -> Dict[str, int]:
    """Counters for the structured routing fast path."""
    return {
        "routers": len(_structured_routers),
        "hits": _structured_route_hits.count,
    }


def index_pairs(
    pairs: "np.ndarray", size: int, what: str, error: type = RoutingError
) -> "np.ndarray":
    """``pairs``, checked to be an ``(m, 2)`` integer array of positions
    below ``size`` — how ordered pairs travel once they have left names
    behind (negative positions would index from the end: refused)."""
    if (
        pairs.ndim != 2
        or pairs.shape[1] != 2
        or pairs.dtype.kind not in "iu"
        or (pairs.size and not (0 <= pairs.min() and pairs.max() < size))
    ):
        spans = f", values {pairs.min()}..{pairs.max()}" if pairs.size else ""
        raise error(
            f"{what} must be an (m, 2) integer array within [0, {size}), "
            f"got shape {pairs.shape} dtype {pairs.dtype}{spans}"
        )
    return pairs


def _ecmp_pick(src: str, dst: str, choices: int) -> int:
    """Which of ``choices`` equal-cost paths the ordered pair takes: the
    first four bytes of SHA-256 of ``"src|dst"``, big-endian, modulo
    ``choices``.  (:meth:`_TreeRouter.core_picks` is this for many pairs.)"""
    ECMP_HASHED.inc()
    digest = hashlib.sha256(f"{src}|{dst}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % choices


# Batches of fewer pairs than this are routed pair by pair in
# ``path_links_matrix``.  The array router costs ≈40 µs before its first
# pair and ≈1–2 µs for each; pair by pair costs ≈4–5 µs a pair the topology
# has not routed before and ≈2–3 µs one it has (``_path_cache``).  So the two
# cross at ≈16 pairs on a fresh topology — every trial of a sweep builds
# one — and at ≈56 (24 hosts) to ≈100 pairs (512 hosts) on one that has
# seen all its pairs, which the batch does not reveal.  16 is the fresh
# crossover: between 16 and 48 pairs the two differ by at most 40 µs a call
# either way, under 1 % of any benchmark workload (table in
# docs/performance.md, "What selects the engine").  Same rows.
_ARRAY_ROUTE_MIN_PAIRS = 16


class _TreeRouter:
    """Arithmetic ECMP routing for trees built by :func:`build_multi_rooted_tree`.

    Paths are derived from host coordinates instead of graph search.  The
    core pick for cross-pod pairs replays ``node_path``'s hash-modulo over
    the lexicographically sorted path list: cross-pod paths differ only in
    the core hop, so sorted-path order equals sorted-core-name order.
    """

    def __init__(self, spec: "TreeSpec"):
        self.spec = spec
        self._hosts_per_pod = spec.hosts_per_rack * spec.racks_per_pod
        self._num_hosts = spec.num_hosts
        self._cores_sorted = sorted(f"core{c}" for c in range(spec.num_cores))
        # Core picks already hashed: ordered far pairs as ascending keys
        # ``src * num_hosts + dst`` and the pick of each.  Grows with the
        # pairs hashed, never with ``num_hosts ** 2``, and goes when this
        # router's entry in ``_structured_routers`` does.
        self._pick_keys = np.zeros(0, dtype=np.int64)
        self._picks = np.zeros(0, dtype=np.intp)
        self._host_bytes: Optional[List[bytes]] = None

    def host_coords(self, name: str) -> Optional[Tuple[int, int, int]]:
        """(index, pod, rack) for a canonical host name, else None."""
        if not name.startswith("host"):
            return None
        try:
            idx = int(name[4:])
        except ValueError:
            return None
        if not 0 <= idx < self._num_hosts or name != f"host{idx}":
            return None
        pod, rest = divmod(idx, self._hosts_per_pod)
        return idx, pod, rest // self.spec.hosts_per_rack

    def node_path(self, src: str, dst: str) -> Optional[List[str]]:
        """The ECMP path between two hosts, or None if not covered."""
        a = self.host_coords(src)
        if a is None:
            return None
        b = self.host_coords(dst)
        if b is None:
            return None
        if src == dst:
            return [src]
        spec = self.spec
        _, pa, ra = a
        _, pb, rb = b
        tor_a, tor_b = f"tor{pa}.{ra}", f"tor{pb}.{rb}"
        if pa == pb:
            if ra == rb:
                return [src, tor_a, dst]
            if spec.extra_agg_layer:
                return [
                    src, tor_a, f"agg{pa}.{ra}", f"agg{pa}",
                    f"agg{pb}.{rb}", tor_b, dst,
                ]
            return [src, tor_a, f"agg{pa}", tor_b, dst]
        if spec.num_cores == 1:
            core = self._cores_sorted[0]
        else:
            core = self._cores_sorted[_ecmp_pick(src, dst, spec.num_cores)]
        if spec.extra_agg_layer:
            return [
                src, tor_a, f"agg{pa}.{ra}", f"agg{pa}", core,
                f"agg{pb}", f"agg{pb}.{rb}", tor_b, dst,
            ]
        return [src, tor_a, f"agg{pa}", core, f"agg{pb}", tor_b, dst]

    def link_tables(self, index: Mapping[str, int]) -> "_TreeLinkTables":
        """Link indices of the tree by coordinate, for :meth:`link_rows`.

        ``index`` maps link ids to positions (a topology's own link order).
        Each rack's uplinks are one link (ToR to pod aggregation) or, with
        the extra tier, two.  Core columns follow the sorted core names the
        ECMP pick indexes.
        """
        spec = self.spec

        def links(hops: Sequence[str]) -> List[int]:
            return [index[directed_link_id(a, b)] for a, b in zip(hops, hops[1:])]

        rack_up, rack_down, host_up, host_down = [], [], [], []
        for pod in range(spec.pods):
            for rack in range(spec.racks_per_pod):
                climb = [f"tor{pod}.{rack}", f"agg{pod}"]
                if spec.extra_agg_layer:
                    climb.insert(1, f"agg{pod}.{rack}")
                rack_up.append(links(climb))
                rack_down.append(links(climb[::-1]))
                first = len(host_up)
                for host in range(first, first + spec.hosts_per_rack):
                    host_up.append(index[directed_link_id(f"host{host}", climb[0])])
                    host_down.append(index[directed_link_id(climb[0], f"host{host}")])
        core_up = [
            [index[directed_link_id(f"agg{pod}", core)] for core in self._cores_sorted]
            for pod in range(spec.pods)
        ]
        core_down = [
            [index[directed_link_id(core, f"agg{pod}")] for core in self._cores_sorted]
            for pod in range(spec.pods)
        ]
        return _TreeLinkTables(
            *(
                np.asarray(table, dtype=np.int32)
                for table in (host_up, host_down, rack_up, rack_down, core_up, core_down)
            )
        )

    def core_picks(self, src: "np.ndarray", dst: "np.ndarray") -> "np.ndarray":
        """:func:`_ecmp_pick` of every ordered cross-pod pair of host indices.

        A pair this router has picked for before is read back (one
        ``searchsorted``); the rest are hashed in one pass — the same
        SHA-256 of the same ``"hostA|hostB"`` bytes — and remembered.
        """
        cores = self.spec.num_cores
        if cores == 1:
            return np.zeros(src.shape[0], dtype=np.intp)
        keys = src.astype(np.int64) * self._num_hosts + dst
        known = self._pick_keys
        at = np.searchsorted(known, keys)
        hit = at < known.shape[0]
        hit[hit] = known[at[hit]] == keys[hit]
        if not hit.all():
            missed = np.sort(keys[~hit])
            fresh = np.ones(missed.shape[0], dtype=bool)
            fresh[1:] = missed[1:] != missed[:-1]
            missed = missed[fresh]
            if self._host_bytes is None:
                self._host_bytes = [b"host%d" % i for i in range(self._num_hosts)]
            names, sha256 = self._host_bytes, hashlib.sha256
            a, b = np.divmod(missed, self._num_hosts)
            words = b"".join(
                [
                    sha256(names[i] + b"|" + names[j]).digest()[:4]
                    for i, j in zip(a.tolist(), b.tolist())
                ]
            )
            ECMP_HASHED.inc(missed.shape[0])
            where = np.searchsorted(known, missed)
            self._pick_keys = np.insert(known, where, missed)
            self._picks = np.insert(
                self._picks,
                where,
                (np.frombuffer(words, dtype=">u4") % cores).astype(np.intp),
            )
            at = np.searchsorted(self._pick_keys, keys)
        return self._picks[at]

    def link_rows(
        self,
        tables: "_TreeLinkTables",
        src: "np.ndarray",
        dst: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """:meth:`node_path` for many pairs at once, as link-index rows.

        ``src``/``dst`` hold host indices (canonical, distinct hosts).
        Returns ``(rows, lengths)`` with -1 padding.
        """
        spec = self.spec
        rack_src = src // spec.hosts_per_rack
        rack_dst = dst // spec.hosts_per_rack
        pod_src = src // self._hosts_per_pod
        pod_dst = dst // self._hosts_per_pod
        near = np.flatnonzero((rack_src != rack_dst) & (pod_src == pod_dst))
        far = np.flatnonzero(pod_src != pod_dst)
        tier = tables.rack_up.shape[1]
        lengths = np.full(src.shape[0], 2, dtype=np.int32)
        lengths[near] = 2 + 2 * tier
        lengths[far] = 4 + 2 * tier
        rows = np.full((src.shape[0], int(lengths.max())), -1, dtype=np.int32)
        rows[:, 0] = tables.host_up[src]
        rows[np.arange(src.shape[0]), lengths - 1] = tables.host_down[dst]
        for group, top in ((near, 0), (far, 2)):
            if group.shape[0]:
                rows[group, 1 : 1 + tier] = tables.rack_up[rack_src[group]]
                rows[group, 1 + tier + top : 1 + 2 * tier + top] = (
                    tables.rack_down[rack_dst[group]]
                )
        if far.shape[0]:
            core = self.core_picks(src[far], dst[far])
            rows[far, 1 + tier] = tables.core_up[pod_src[far], core]
            rows[far, 2 + tier] = tables.core_down[pod_dst[far], core]
        return rows, lengths

    def hop_count(self, src: str, dst: str) -> Optional[int]:
        """Paper-convention hop count between two hosts, or None."""
        a = self.host_coords(src)
        if a is None:
            return None
        b = self.host_coords(dst)
        if b is None:
            return None
        if src == dst:
            return 1
        _, pa, ra = a
        _, pb, rb = b
        if pa == pb:
            if ra == rb:
                return 2
            return 6 if self.spec.extra_agg_layer else 4
        return 8 if self.spec.extra_agg_layer else 6


class _TreeLinkTables(NamedTuple):
    """One topology's link indices by tree coordinate (see ``link_tables``)."""

    host_up: "np.ndarray"  # [host] host -> its ToR
    host_down: "np.ndarray"  # [host] ToR -> host
    rack_up: "np.ndarray"  # [rack, tier] ToR -> ... -> pod aggregation
    rack_down: "np.ndarray"  # [rack, tier] pod aggregation -> ... -> ToR
    core_up: "np.ndarray"  # [pod, core] pod aggregation -> core
    core_down: "np.ndarray"  # [pod, core] core -> pod aggregation


def _register_tree_router(topo: "Topology", spec: "TreeSpec") -> None:
    token = topo.structure_token()
    if token in _structured_routers:
        return
    if len(_structured_routers) >= _STRUCTURED_ROUTER_MAX_ENTRIES:
        _structured_routers.clear()
    _structured_routers[token] = _TreeRouter(spec)


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
    the sorted order.  When ``k`` is None it is derived from the endpoint
    digest exactly as the eager implementation derived it.

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


class NodeKind(enum.Enum):
    """Role of a node in the datacenter tree."""

    HOST = "host"
    TOR = "tor"
    AGG = "agg"
    CORE = "core"


@dataclass(frozen=True)
class TreeSpec:
    """Parameters for :func:`build_multi_rooted_tree`.

    Attributes:
        hosts_per_rack: physical machines attached to each ToR switch.
        racks_per_pod: ToR switches below each aggregation switch.
        pods: number of aggregation subtrees ("pods").
        num_cores: number of core switches; every aggregation switch links to
            all of them (the "multi-rooted" part).
        host_link_bps: capacity of host <-> ToR links.
        tor_agg_link_bps: capacity of ToR <-> aggregation links.
        agg_core_link_bps: capacity of aggregation <-> core links.
        intra_host_bps: capacity of the intra-host loopback path (the
            near-4 Gbit/s colocated-VM paths seen on EC2).
        extra_agg_layer: insert a second aggregation tier between the ToRs
            and the pod aggregation switch, producing 8-hop core paths as
            observed on EC2.
    """

    hosts_per_rack: int = 4
    racks_per_pod: int = 2
    pods: int = 2
    num_cores: int = 2
    host_link_bps: float = 1 * GBITPS
    tor_agg_link_bps: float = 10 * GBITPS
    agg_core_link_bps: float = 10 * GBITPS
    intra_host_bps: float = 4 * GBITPS
    extra_agg_layer: bool = False

    def __post_init__(self) -> None:
        for name in ("hosts_per_rack", "racks_per_pod", "pods", "num_cores"):
            if getattr(self, name) < 1:
                raise TopologyError(f"TreeSpec.{name} must be >= 1")

    @property
    def num_hosts(self) -> int:
        """Total number of physical machines in the tree."""
        return self.hosts_per_rack * self.racks_per_pod * self.pods


class Topology:
    """An undirected capacitated graph with datacenter-tree metadata.

    The graph itself is undirected (cables), but every edge generates two
    directed :class:`~repro.net.links.Link` objects.  Hosts additionally get
    a loopback link carrying intra-host (colocated VM) traffic.
    """

    def __init__(self, name: str = "topology", intra_host_bps: float = 4 * GBITPS):
        self.name = name
        # node -> (kind, level) and node -> neighbours, in insertion order;
        # hosts also by position (what index-array routing indexes)
        self._nodes: Dict[str, Tuple[NodeKind, int]] = {}
        self._adjacency: Dict[str, Set[str]] = {}
        self._host_names: List[str] = []
        self._host_index: Dict[str, int] = {}
        self._links: Dict[str, Link] = {}
        self._intra_host_bps = intra_host_bps
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}
        self._path_links_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._structure_token: Optional[str] = None
        self._tree_tables: Optional[_TreeLinkTables] = None
        self._tree_hosts: Optional["np.ndarray"] = None
        # link id -> position in ``_links`` (path_links_matrix's index order),
        # and the capacities in that order; both dropped when a link is added
        self._link_index: Optional[Dict[str, int]] = None
        self._capacity_vector: Optional["np.ndarray"] = None

    # ------------------------------------------------------------------ nodes
    def add_node(self, name: str, kind: NodeKind, level: int = 0) -> None:
        """Add a node of the given kind.

        Raises:
            TopologyError: if a node with the same name already exists.
        """
        if name in self._nodes:
            raise TopologyError(f"duplicate node {name!r}")
        self._nodes[name] = (kind, level)
        self._adjacency[name] = set()
        if kind is NodeKind.HOST:
            self._host_index[name] = len(self._host_names)
            self._host_names.append(name)
            self._tree_hosts = None
            link = Link(
                link_id=loopback_link_id(name),
                src=name,
                dst=name,
                capacity_bps=self._intra_host_bps,
                kind=LinkKind.LOOPBACK,
            )
            self._links[link.link_id] = link
            self._link_index = None
            self._capacity_vector = None

    def add_link(
        self,
        a: str,
        b: str,
        capacity_bps: float,
        kind: LinkKind = LinkKind.GENERIC,
    ) -> None:
        """Add a full-duplex link between ``a`` and ``b``.

        Two directed :class:`Link` objects (one per direction) are created
        with the same capacity.
        """
        for node in (a, b):
            if node not in self._nodes:
                raise TopologyError(f"unknown node {node!r}")
        if b in self._adjacency[a]:
            raise TopologyError(f"duplicate link {a!r} <-> {b!r}")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        for src, dst in ((a, b), (b, a)):
            link = Link(
                link_id=directed_link_id(src, dst),
                src=src,
                dst=dst,
                capacity_bps=capacity_bps,
                kind=kind,
            )
            self._links[link.link_id] = link
        self._path_cache.clear()
        self._path_links_cache.clear()
        self._structure_token = None
        self._tree_tables = None
        self._tree_hosts = None
        self._link_index = None
        self._capacity_vector = None

    # ------------------------------------------------------------ inspection
    def node_kind(self, name: str) -> NodeKind:
        """Return the :class:`NodeKind` of ``name``."""
        try:
            return self._nodes[name][0]
        except KeyError as exc:
            raise TopologyError(f"unknown node {name!r}") from exc

    def nodes_of_kind(self, kind: NodeKind) -> List[str]:
        """All node names of the given kind, sorted for determinism."""
        return sorted(n for n, (k, _) in self._nodes.items() if k is kind)

    def nodes(self) -> List[str]:
        """Every node name, in the order the nodes were added."""
        return list(self._nodes)

    def hosts(self) -> List[str]:
        """All physical machine names."""
        return self.nodes_of_kind(NodeKind.HOST)

    def host_index(self, name: str) -> int:
        """Position of host ``name`` in the order hosts were added — what an
        index array handed to :meth:`path_links_matrix` holds.  (A tree
        from :func:`build_multi_rooted_tree` adds ``host{i}`` as its
        ``i``-th host.)"""
        try:
            return self._host_index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown host {name!r}") from exc

    def links(self) -> List[Link]:
        """All directed links (physical, loopback) in the topology."""
        return list(self._links.values())

    def link(self, link_id: str) -> Link:
        """Look up a directed link by identifier."""
        try:
            return self._links[link_id]
        except KeyError as exc:
            raise TopologyError(f"unknown link {link_id!r}") from exc

    def has_link(self, link_id: str) -> bool:
        """True if ``link_id`` names a link in this topology."""
        return link_id in self._links

    def capacities(self) -> Dict[str, float]:
        """Mapping of link id to capacity for every directed link."""
        return {lid: link.capacity_bps for lid, link in self._links.items()}

    def capacity_vector(self) -> "np.ndarray":
        """Every directed link's capacity, in the order of :meth:`links` —
        what the link indices of :meth:`path_links_matrix` index.  Read-only."""
        if self._capacity_vector is None:
            vector = np.fromiter(
                (link.capacity_bps for link in self._links.values()),
                dtype=np.float64,
                count=len(self._links),
            )
            vector.flags.writeable = False
            self._capacity_vector = vector
        return self._capacity_vector

    # -------------------------------------------------------------- hierarchy
    def neighbors_of_kind(self, name: str, kind: NodeKind) -> List[str]:
        """Neighbours of ``name`` having the given kind."""
        self.node_kind(name)  # raises on an unknown node
        return sorted(
            n for n in self._adjacency[name] if self.node_kind(n) is kind
        )

    def rack_of(self, host: str) -> Optional[str]:
        """The ToR switch a host is attached to, or None if it has none."""
        if self.node_kind(host) is not NodeKind.HOST:
            raise TopologyError(f"{host!r} is not a host")
        tors = self.neighbors_of_kind(host, NodeKind.TOR)
        return tors[0] if tors else None

    def hosts_in_rack(self, tor: str) -> List[str]:
        """Hosts attached to a ToR switch."""
        if self.node_kind(tor) is not NodeKind.TOR:
            raise TopologyError(f"{tor!r} is not a ToR switch")
        return self.neighbors_of_kind(tor, NodeKind.HOST)

    def same_rack(self, host_a: str, host_b: str) -> bool:
        """True if both hosts share a ToR switch (and are distinct machines)."""
        rack_a, rack_b = self.rack_of(host_a), self.rack_of(host_b)
        return rack_a is not None and rack_a == rack_b

    def subtree_of(self, host: str) -> Optional[str]:
        """The pod aggregation switch above the host's rack, if any."""
        tor = self.rack_of(host)
        if tor is None:
            return None
        frontier = [tor]
        seen = set(frontier)
        # Walk upward through any intermediate aggregation layers until we
        # reach the node directly below the core.
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for neigh in sorted(self._adjacency[node]):
                    if neigh in seen:
                        continue
                    kind = self.node_kind(neigh)
                    if kind is NodeKind.AGG:
                        if self.neighbors_of_kind(neigh, NodeKind.CORE):
                            return neigh
                        nxt.append(neigh)
                        seen.add(neigh)
            frontier = nxt
        return None

    def same_subtree(self, host_a: str, host_b: str) -> bool:
        """True if both hosts sit under the same pod aggregation switch."""
        sub_a, sub_b = self.subtree_of(host_a), self.subtree_of(host_b)
        return sub_a is not None and sub_a == sub_b

    # ----------------------------------------------------------------- paths
    def structure_token(self) -> str:
        """A digest identifying the graph's structure (its edge set).

        Routing decisions depend only on this token, so structurally
        identical topologies (every trial of a sweep rebuilds the same tree)
        share the process-wide routing cache.
        """
        if self._structure_token is None:
            edge_text = "\n".join(
                sorted(
                    f"{a}|{b}"
                    for a, neighbours in self._adjacency.items()
                    for b in neighbours
                    if a < b
                )
            )
            self._structure_token = hashlib.sha256(edge_text.encode()).hexdigest()
        return self._structure_token

    def node_path(self, src: str, dst: str) -> List[str]:
        """Shortest node path from ``src`` to ``dst`` (inclusive).

        When several shortest paths exist (multi-rooted trees), the choice is
        made by a deterministic hash of the endpoint pair, mimicking ECMP:
        the same pair always uses the same path, different pairs spread over
        the available cores.
        """
        if src == dst:
            return [src]
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        router = _structured_routers.get(self.structure_token())
        if router is not None:
            choice = router.node_path(src, dst)
            if choice is not None:
                _structured_route_hits.inc()
                self._path_cache[key] = choice
                return choice
        for node in (src, dst):
            if node not in self._nodes:
                raise TopologyError(f"unknown node {node!r}")
        shared_key = (self.structure_token(), src, dst)
        shared = _route_cache.get(shared_key)
        if shared is not None:
            _route_cache_hits.inc()
            self._path_cache[key] = shared
            return shared
        _route_cache_misses.inc()
        choice = _lazy_kth_shortest_path(self._adjacency, src, dst)
        if choice is None:
            raise RoutingError(f"no path between {src!r} and {dst!r}")
        self._path_cache[key] = choice
        if len(_route_cache) >= _ROUTE_CACHE_MAX_ENTRIES:
            _route_cache.clear()
        _route_cache[shared_key] = choice
        return choice

    def path_links(self, src: str, dst: str) -> List[Link]:
        """Directed links traversed from ``src`` to ``dst``.

        Intra-host traffic (``src == dst``) traverses only the host's
        loopback link.  The returned list is memoized per endpoint pair —
        callers must not mutate it.
        """
        key = (src, dst)
        cached = self._path_links_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            if self.node_kind(src) is not NodeKind.HOST:
                raise RoutingError(f"loopback path requires a host, got {src!r}")
            links = [self.link(loopback_link_id(src))]
        else:
            nodes = self.node_path(src, dst)
            links = [
                self.link(directed_link_id(a, b)) for a, b in zip(nodes, nodes[1:])
            ]
        self._path_links_cache[key] = links
        return links

    def hop_count(self, src: str, dst: str) -> int:
        """Hop count between two hosts, using the paper's convention.

        Two VMs on the same physical machine are "one hop" apart; otherwise
        the hop count is the number of links on the switched path (2 for the
        same rack, 4 within a pod, 6 via the core, 8 with a second
        aggregation tier).
        """
        if src == dst:
            return 1
        router = _structured_routers.get(self.structure_token())
        if router is not None:
            hops = router.hop_count(src, dst)
            if hops is not None:
                return hops
        return len(self.node_path(src, dst)) - 1

    def host_pairs(self) -> List[Tuple[str, str]]:
        """All ordered pairs of distinct hosts."""
        hosts = self.hosts()
        return [(a, b) for a, b in itertools.permutations(hosts, 2)]

    def path_links_matrix(
        self, pairs: Union[Sequence[Tuple[str, str]], "np.ndarray"]
    ) -> Tuple["np.ndarray", "np.ndarray", List[str]]:
        """Batched :meth:`path_links` as link-index rows.

        ``pairs`` holds ``(src, dst)`` node names, or — as an ``(m, 2)``
        integer array — host positions (:meth:`host_index`), which a
        structured tree routes without touching a name.

        Returns ``(rows, lengths, link_ids)``: ``rows`` is an int32 array of
        shape ``(len(pairs), max_hops)`` whose valid prefix of row ``i``
        (length ``lengths[i]``) holds indices into ``link_ids`` — the same
        order as :meth:`capacities`/:meth:`links`, so rows feed straight
        into array-based allocator layouts.  Padding entries are -1.
        Loopback pairs (``src == dst``) get the host's loopback link, as in
        :meth:`path_links`.
        """
        link_ids = list(self._links)
        if self._link_index is None:
            self._link_index = {lid: i for i, lid in enumerate(link_ids)}
        index = self._link_index
        by_position = isinstance(pairs, np.ndarray)
        if by_position:
            index_pairs(pairs, len(self._host_names), "host positions")
        n = len(pairs)
        lengths = np.zeros(n, dtype=np.int32)
        tree_rows = None
        one_by_one: Iterable[int] = range(n)
        router = _structured_routers.get(self.structure_token())
        try:
            if router is not None and n >= _ARRAY_ROUTE_MIN_PAIRS:
                # Canonical, distinct hosts route arithmetically, all at once.
                if by_position:
                    canonical = self._canonical_hosts(router)
                    src, dst = canonical[pairs[:, 0]], canonical[pairs[:, 1]]
                else:
                    hosts = {}
                    for name in {name for pair in pairs for name in pair}:
                        coords = router.host_coords(name)
                        hosts[name] = -1 if coords is None else coords[0]
                    src = np.fromiter((hosts[a] for a, _ in pairs), np.intp, count=n)
                    dst = np.fromiter((hosts[b] for _, b in pairs), np.intp, count=n)
                tree = np.flatnonzero((src >= 0) & (dst >= 0) & (src != dst))
                if tree.shape[0]:
                    if self._tree_tables is None:
                        self._tree_tables = router.link_tables(index)
                    tree_rows, lengths[tree] = router.link_rows(
                        self._tree_tables, src[tree], dst[tree]
                    )
                    _structured_route_hits.inc(tree.shape[0])
                    one_by_one = np.flatnonzero(lengths == 0).tolist()
            # Everything else: loopback pairs and graph-search routes.
            other_rows: Dict[int, Tuple[int, ...]] = {}
            for i in one_by_one:
                src_name, dst_name = pairs[i]
                if by_position:
                    src_name = self._host_names[src_name]
                    dst_name = self._host_names[dst_name]
                if src_name == dst_name:
                    if self.node_kind(src_name) is not NodeKind.HOST:
                        raise RoutingError(
                            f"loopback path requires a host, got {src_name!r}"
                        )
                    other_rows[i] = (index[loopback_link_id(src_name)],)
                    continue
                nodes = self.node_path(src_name, dst_name)
                other_rows[i] = tuple(
                    index[directed_link_id(a, b)] for a, b in zip(nodes, nodes[1:])
                )
        except KeyError as exc:  # pragma: no cover - defensive
            raise RoutingError(f"path uses unknown link: {exc}") from exc
        for i, row in other_rows.items():
            lengths[i] = len(row)
        rows = np.full((n, int(lengths.max()) if n else 0), -1, dtype=np.int32)
        if tree_rows is not None:
            rows[tree, : tree_rows.shape[1]] = tree_rows
        for i, row in other_rows.items():
            rows[i, : len(row)] = row
        return rows, lengths, link_ids

    def _canonical_hosts(self, router: _TreeRouter) -> "np.ndarray":
        """``router``'s index of each host by position, -1 where it has none."""
        if self._tree_hosts is None:
            coords = map(router.host_coords, self._host_names)
            self._tree_hosts = np.array(
                [-1 if c is None else c[0] for c in coords], dtype=np.intp
            )
        return self._tree_hosts

    def path_bottlenecks(
        self, pairs: Union[Sequence[Tuple[str, str]], "np.ndarray"]
    ) -> "np.ndarray":
        """Capacity (bits/s) of the narrowest link on each pair's path.

        The batched ``min(link.capacity_bps for link in path_links(a, b))``;
        ``pairs`` as :meth:`path_links_matrix` takes them.
        """
        if not len(pairs):
            return np.zeros(0)
        rows, _, _ = self.path_links_matrix(pairs)
        return np.where(rows >= 0, self.capacity_vector()[rows], np.inf).min(axis=1)


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------
def build_multi_rooted_tree(spec: TreeSpec = TreeSpec(), name: str = "dc") -> Topology:
    """Build the multi-rooted tree of Figure 5 from a :class:`TreeSpec`."""
    topo = Topology(name=name, intra_host_bps=spec.intra_host_bps)
    for c in range(spec.num_cores):
        topo.add_node(f"core{c}", NodeKind.CORE, level=4)
    host_index = 0
    for p in range(spec.pods):
        agg = f"agg{p}"
        topo.add_node(agg, NodeKind.AGG, level=3)
        for c in range(spec.num_cores):
            topo.add_link(agg, f"core{c}", spec.agg_core_link_bps, LinkKind.AGG_CORE)
        for r in range(spec.racks_per_pod):
            tor = f"tor{p}.{r}"
            topo.add_node(tor, NodeKind.TOR, level=1)
            if spec.extra_agg_layer:
                mid = f"agg{p}.{r}"
                topo.add_node(mid, NodeKind.AGG, level=2)
                topo.add_link(tor, mid, spec.tor_agg_link_bps, LinkKind.TOR_AGG)
                topo.add_link(mid, agg, spec.tor_agg_link_bps, LinkKind.AGG_AGG)
            else:
                topo.add_link(tor, agg, spec.tor_agg_link_bps, LinkKind.TOR_AGG)
            for h in range(spec.hosts_per_rack):
                host = f"host{host_index}"
                host_index += 1
                topo.add_node(host, NodeKind.HOST, level=0)
                topo.add_link(host, tor, spec.host_link_bps, LinkKind.HOST_TOR)
    _register_tree_router(topo, spec)
    return topo


def build_dumbbell(
    n_pairs: int = 10,
    shared_link_bps: float = 1 * GBITPS,
    access_link_bps: float = 10 * GBITPS,
    name: str = "dumbbell",
) -> Topology:
    """Build the Figure 3(a) topology: ``n_pairs`` sender/receiver pairs.

    Senders ``s1..sN`` attach to a left switch, receivers ``r1..rN`` to a
    right switch, and a single ``shared_link_bps`` link connects the two
    switches; every sender-to-receiver flow crosses that shared bottleneck.
    """
    if n_pairs < 1:
        raise TopologyError("n_pairs must be >= 1")
    topo = Topology(name=name)
    topo.add_node("swL", NodeKind.TOR, level=1)
    topo.add_node("swR", NodeKind.TOR, level=1)
    topo.add_link("swL", "swR", shared_link_bps, LinkKind.GENERIC)
    for i in range(1, n_pairs + 1):
        sender, receiver = f"s{i}", f"r{i}"
        topo.add_node(sender, NodeKind.HOST, level=0)
        topo.add_node(receiver, NodeKind.HOST, level=0)
        topo.add_link(sender, "swL", access_link_bps, LinkKind.HOST_TOR)
        topo.add_link(receiver, "swR", access_link_bps, LinkKind.HOST_TOR)
    return topo


def build_two_rack_cloud(
    n_pairs: int = 10,
    host_link_bps: float = 1 * GBITPS,
    agg_link_bps: float = 10 * GBITPS,
    name: str = "cloud",
) -> Topology:
    """Build the Figure 3(b) topology.

    Senders share a ToR switch, receivers share another ToR switch, and the
    two ToRs connect through an aggregation switch ``A``.  Host links are
    1 Gbit/s while ToR-to-aggregation links are 10 Gbit/s, so cross traffic
    only bites once more than ten flows share a ToR uplink.
    """
    if n_pairs < 1:
        raise TopologyError("n_pairs must be >= 1")
    topo = Topology(name=name)
    topo.add_node("torS", NodeKind.TOR, level=1)
    topo.add_node("torR", NodeKind.TOR, level=1)
    topo.add_node("A", NodeKind.AGG, level=2)
    topo.add_link("torS", "A", agg_link_bps, LinkKind.TOR_AGG)
    topo.add_link("torR", "A", agg_link_bps, LinkKind.TOR_AGG)
    for i in range(1, n_pairs + 1):
        sender, receiver = f"s{i}", f"r{i}"
        topo.add_node(sender, NodeKind.HOST, level=0)
        topo.add_node(receiver, NodeKind.HOST, level=0)
        topo.add_link(sender, "torS", host_link_bps, LinkKind.HOST_TOR)
        topo.add_link(receiver, "torR", host_link_bps, LinkKind.HOST_TOR)
    return topo
