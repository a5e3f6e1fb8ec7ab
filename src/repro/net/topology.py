"""Multi-rooted tree datacenter topologies (paper §3.3.1, Figure 5).

The paper assumes datacenter networks are multi-rooted trees: virtual
machines sit on physical machines, which connect to top-of-rack (ToR)
switches, which connect to aggregation switches, which connect to core
switches.  Path hop counts in such a topology fall in ``{1, 2, 4, 6, 8}``
(Figure 8): one "hop" for two VMs on the same physical machine, two for the
same rack, four within an aggregation subtree, six through the core, and
eight when an extra aggregation tier is present.

:class:`Topology` is a small adjacency container that knows about directed
capacities, racks, subtrees, and intra-host loopback links.
:func:`build_multi_rooted_tree` builds the general datacenter of Figure 5
with its one router, which routes host pairs as arrays.  A topology routes
only as the tree it was built as: a hand-built graph, or a tree edited
after it was built, has no router and refuses to route.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass
from typing import (
    Dict,
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
# Tree routing
# ---------------------------------------------------------------------------
# Multi-rooted trees built from a TreeSpec have completely regular routes:
# host i sits in pod i // (racks_per_pod * hosts_per_rack) and rack
# (i // hosts_per_rack) % racks_per_pod, and every path is determined by the
# relation between the two endpoints' coordinates (same host / rack / pod /
# cross-pod) plus the ECMP core choice.  build_multi_rooted_tree attaches a
# _TreeRouter to the tree it returns, the one router a topology has; an edit
# drops it.  A pair's core is picked from keys derived from the endpoints'
# names (not their positions), so any copy of a tree routes as it does.
_structured_route_hits = obs.Counter("repro.routes.structured_hits")


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


def _node_key(name: str) -> int:
    """A node's 64-bit ECMP key: the first eight bytes of SHA-256 of its
    name, big-endian."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


#: splitmix64's finaliser: three multipliers, then three shifts.
_MIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31)
#: The same as ``uint64`` scalars, for arrays.
_MIX_WORDS = tuple(np.uint64(word) for word in _MIX)


class _TreeRouter:
    """Arithmetic ECMP routing for a tree built by :func:`build_multi_rooted_tree`.

    Hosts are given by index: :func:`build_multi_rooted_tree` adds
    ``host{i}`` as its tree's ``i``-th host, so an index is also the host's
    position (:meth:`Topology.host_index`).  Paths are derived from host
    coordinates, many pairs at once.  The core pick for a cross-pod pair
    indexes the sorted core names; the tests hold it to graph search, which
    takes the ``_ecmp_pick``-th of the pair's lexicographically sorted
    shortest paths (``tests/oracles/graph_search.py``): cross-pod paths
    differ only in the core hop, so sorted-path order is sorted-core order.
    """

    def __init__(self, spec: "TreeSpec"):
        self.spec = spec
        self._num_hosts = spec.num_hosts
        self._cores_sorted = sorted(f"core{c}" for c in range(spec.num_cores))
        # Every host's _node_key by index, built on first use and never
        # written again: the router is shared by every provider of its
        # shape, across threads, and holds no other state.
        self._keys: Optional["np.ndarray"] = None

    def link_tables(
        self, index: Mapping[str, int], loopbacks: Sequence[int]
    ) -> "_TreeLinkTables":
        """Link indices of the tree by coordinate, for :meth:`link_rows`.

        ``index`` maps link ids to positions (a topology's own link order)
        and ``loopbacks`` holds each host's loopback link index.  Each
        rack's uplinks are one link (ToR to pod aggregation) or, with the
        extra tier, two.  Core columns follow the sorted core names the
        ECMP pick indexes.  The route of every ordered pair of racks is one
        row of ``rack_rows``, its host columns (and, across pods, its core
        columns) left at -1 for :meth:`link_rows` to fill.
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
        # A cross-pod route's two core links, by (source pod, destination
        # pod, core): the up link from the one, the down link into the other.
        ends = [
            (f"agg{up}", core, f"agg{down}")
            for up in range(spec.pods)
            for down in range(spec.pods)
            for core in self._cores_sorted
        ]
        core_up = [index[directed_link_id(up, core)] for up, core, _ in ends]
        core_down = [index[directed_link_id(core, down)] for _, core, down in ends]
        # Host up, rack up, [core up, core down,] rack down, host down.
        tier = spec.extra_agg_layer + 1
        racks = spec.pods * spec.racks_per_pod
        rack_rows = np.full((racks, racks, 4 + 2 * tier), -1, dtype=np.int32)
        rack_lengths = np.full((racks, racks), 2, dtype=np.int32)
        pod_pair = np.zeros((racks, racks), dtype=np.intp)
        for a in range(racks):
            for b in range(racks):
                if a == b:
                    continue
                pods = a // spec.racks_per_pod, b // spec.racks_per_pod
                top = 2 if pods[0] != pods[1] else 0
                rack_rows[a, b, 1 : 1 + tier] = rack_up[a]
                rack_rows[a, b, 1 + tier + top : 1 + 2 * tier + top] = rack_down[b]
                rack_lengths[a, b] = 2 + 2 * tier + top
                pod_pair[a, b] = (pods[0] * spec.pods + pods[1]) * spec.num_cores
        rack_of = np.arange(spec.num_hosts) // spec.hosts_per_rack
        return _TreeLinkTables(
            rack_rows.reshape(racks * racks, -1),
            rack_lengths.ravel(),
            pod_pair.ravel(),
            rack_of * racks,
            rack_of,
            *(
                np.asarray(table, dtype=np.int32)
                for table in (host_up, host_down, loopbacks, core_up, core_down)
            ),
        )

    def core_picks(self, src: "np.ndarray", dst: "np.ndarray") -> "np.ndarray":
        """The ECMP core of every ordered cross-pod pair of host indices:
        splitmix64's finaliser of ``key[src] * K + key[dst]``, modulo the
        core count."""
        cores = self.spec.num_cores
        if cores == 1:
            return np.zeros(src.shape[0], dtype=np.intp)
        keys = self._keys
        if keys is None:
            keys = np.array(
                [_node_key(f"host{i}") for i in range(self._num_hosts)], dtype=np.uint64
            )
            keys.flags.writeable = False
            self._keys = keys
        # The mix, in place: ``uint64`` arithmetic wraps by itself.
        k1, k2, k3, s1, s2, s3 = _MIX_WORDS
        z = keys[src] * k1
        z += keys[dst]
        z ^= z >> s1
        z *= k2
        z ^= z >> s2
        z *= k3
        z ^= z >> s3
        z %= np.uint64(cores)
        return z.astype(np.intp)

    def link_rows(
        self,
        tables: "_TreeLinkTables",
        src: "np.ndarray",
        dst: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """The ECMP routes of many pairs of host indices at once, as
        link-index rows: ``(rows, lengths)``, -1 padded to the longest.

        Each row is its rack pair's row of the tree's table with the two
        host columns written in (and the two core columns, across pods);
        a pair on one host crosses that host's loopback link.
        """
        pair = tables.rack_pair[src]
        pair += tables.rack_of[dst]
        lengths = tables.rack_lengths[pair]
        same = src == dst
        loops = np.count_nonzero(same)
        if loops:
            lengths[same] = 1
        # Padded to the longest route: a cross-pod one, if the batch has any.
        width = tables.rack_rows.shape[1]
        far = (lengths == width).nonzero()[0]
        if not far.shape[0]:
            width = int(lengths.max())
        rows = np.take(tables.rack_rows[:, :width], pair, axis=0)
        rows[:, 0] = tables.host_up[src]
        # The host down link ends each route: flat position i * width +
        # lengths[i] - 1 (a 1-D scatter; two index arrays cost 1.5x).
        flat = rows.reshape(-1)
        last = np.arange(0, flat.shape[0], width)
        last += lengths
        last -= 1
        flat[last] = tables.host_down[dst]
        if loops:
            rows[same, 0] = tables.loopback[src[same]]
        if far.shape[0]:
            tier = self.spec.extra_agg_layer + 1
            core = tables.pod_pair[pair[far]]
            core += self.core_picks(src[far], dst[far])
            rows[far, 1 + tier] = tables.core_up[core]
            rows[far, 2 + tier] = tables.core_down[core]
        _structured_route_hits.inc(pair.shape[0] - loops)
        return rows, lengths


class _TreeLinkTables(NamedTuple):
    """One topology's link indices by tree coordinate (see ``link_tables``);
    a rack pair's row index is ``rack_src * racks + rack_dst``."""

    rack_rows: "np.ndarray"  # [rack pair, hop] its route, host and core columns -1
    rack_lengths: "np.ndarray"  # [rack pair] its hop count
    pod_pair: "np.ndarray"  # [rack pair] its first entry of core_up / core_down
    rack_pair: "np.ndarray"  # [host] its rack * racks
    rack_of: "np.ndarray"  # [host] its rack
    host_up: "np.ndarray"  # [host] host -> its ToR
    host_down: "np.ndarray"  # [host] ToR -> host
    loopback: "np.ndarray"  # [host] the host's loopback link
    core_up: "np.ndarray"  # [pod pair * cores + core] source pod's agg -> core
    core_down: "np.ndarray"  # [pod pair * cores + core] core -> destination pod's agg


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
        # the router of a tree as build_multi_rooted_tree made it (its hosts
        # by position), dropped by any edit, and the link tables it routes
        # with, built on the first route
        self._router: Optional[_TreeRouter] = None
        self._tree_tables: Optional[_TreeLinkTables] = None
        # the link ids in ``_links`` order (path_links_matrix's index order),
        # link id -> position in it, and the capacities in that order; all
        # dropped when a link is added
        self._link_list: Optional[List[str]] = None
        self._link_index: Optional[Dict[str, int]] = None
        self._capacity_vector: Optional["np.ndarray"] = None
        self._frozen = False

    def freeze(self) -> None:
        """Refuse every later :meth:`add_node` / :meth:`add_link`: the
        topology is shared, and so are the tables it derives lazily."""
        self._frozen = True

    def _check_unfrozen(self, what: str) -> None:
        if self._frozen:
            raise TopologyError(
                f"topology {self.name!r} is shared and frozen: cannot {what}"
            )

    # ------------------------------------------------------------------ nodes
    def add_node(self, name: str, kind: NodeKind, level: int = 0) -> None:
        """Add a node of the given kind.

        Raises:
            TopologyError: if a node with the same name already exists, or
                the topology is frozen.
        """
        self._check_unfrozen(f"add node {name!r}")
        if name in self._nodes:
            raise TopologyError(f"duplicate node {name!r}")
        self._nodes[name] = (kind, level)
        self._adjacency[name] = set()
        self._router = None
        if kind is NodeKind.HOST:
            self._host_index[name] = len(self._host_names)
            self._host_names.append(name)
            link = Link(
                link_id=loopback_link_id(name),
                src=name,
                dst=name,
                capacity_bps=self._intra_host_bps,
                kind=LinkKind.LOOPBACK,
            )
            self._links[link.link_id] = link
            self._link_list = self._link_index = None
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

        Raises:
            TopologyError: on an unknown node or a duplicate link, or if the
                topology is frozen.
        """
        self._check_unfrozen(f"add link {a!r} <-> {b!r}")
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
        self._router = None
        self._link_list = self._link_index = None
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

    def same_rack(self, host_a: str, host_b: str) -> bool:
        """True if both hosts share a ToR switch (and are distinct machines)."""
        rack_a, rack_b = self.rack_of(host_a), self.rack_of(host_b)
        return rack_a is not None and rack_a == rack_b

    # ----------------------------------------------------------------- paths
    def node_path(self, src: str, dst: str) -> List[str]:
        """The nodes from host ``src`` to host ``dst`` (inclusive): the
        pair's row of :meth:`path_links_matrix`, read node by node, and
        ``[src]`` for a host to itself."""
        links = self.path_links(src, dst)  # refuses a name that is no host
        if src == dst:
            return [src]
        return [src, *(link.dst for link in links)]

    def path_links(self, src: str, dst: str) -> List[Link]:
        """Directed links traversed from ``src`` to ``dst``: the one row of
        :meth:`path_links_matrix` for the pair.

        Intra-host traffic (``src == dst``) traverses only the host's
        loopback link.
        """
        (row,), (length,), link_ids = self.path_links_matrix([(src, dst)])
        return [self._links[link_ids[i]] for i in row[:length].tolist()]

    def hop_count(self, src: str, dst: str) -> int:
        """Hop count between two hosts, using the paper's convention: the
        length of the pair's row of :meth:`path_links_matrix`.

        Two VMs on the same physical machine are "one hop" apart (the
        loopback link); otherwise the hop count is the number of links on
        the switched path (2 for the same rack, 4 within a pod, 6 via the
        core, 8 with a second aggregation tier).
        """
        return len(self.path_links(src, dst))

    def host_pairs(self) -> List[Tuple[str, str]]:
        """All ordered pairs of distinct hosts."""
        hosts = self.hosts()
        return [(a, b) for a, b in itertools.permutations(hosts, 2)]

    def path_links_matrix(
        self, pairs: Union[Sequence[Tuple[str, str]], "np.ndarray"]
    ) -> Tuple["np.ndarray", "np.ndarray", List[str]]:
        """Routes of many host pairs at once, as link-index rows: the ECMP
        routes of the tree's router.

        ``pairs`` holds ``(src, dst)`` host names, or — as an ``(m, 2)``
        integer array — host positions (:meth:`host_index`), which the
        router routes without touching a name.

        Returns ``(rows, lengths, link_ids)``: ``rows`` is an int32 array of
        shape ``(len(pairs), max_hops)`` whose valid prefix of row ``i``
        (length ``lengths[i]``) holds indices into ``link_ids`` — the same
        order as :meth:`capacities`/:meth:`links`, so rows feed straight
        into array-based allocator layouts; the list is the topology's own,
        kept until a link is added (treat it as read-only).  Padding
        entries are -1.  A host to itself (``src == dst``) crosses its
        loopback link.

        Raises:
            RoutingError: if the topology has no router (it was built by
                hand, or edited after :func:`build_multi_rooted_tree` built
                it), if a pair names a switch, or if ``pairs`` is an array
                but not one of host positions.
            TopologyError: if a pair names no node at all.
        """
        router = self._router
        if router is None:
            raise RoutingError(
                f"topology {self.name!r} has no router: only a tree as "
                "build_multi_rooted_tree built it routes, not a hand-built "
                "graph or an edited tree"
            )
        if self._link_index is None:
            self._link_list = list(self._links)
            self._link_index = {lid: i for i, lid in enumerate(self._link_list)}
        if isinstance(pairs, np.ndarray):
            index_pairs(pairs, len(self._host_names), "host positions")
            # Contiguous copies: routing a 65 280-probe campaign through the
            # strided column views peaked ≈4 MB higher.
            src, dst = np.ascontiguousarray(pairs.T)
        else:
            src, dst = self._host_positions(pairs)
        if not src.shape[0]:
            return np.zeros((0, 0), np.int32), np.zeros(0, np.int32), self._link_list
        if self._tree_tables is None:
            index = self._link_index
            self._tree_tables = router.link_tables(
                index, [index[loopback_link_id(host)] for host in self._host_names]
            )
        return (*router.link_rows(self._tree_tables, src, dst), self._link_list)

    def _host_positions(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """The :meth:`host_index` positions of each pair's two hosts."""
        hosts, n = self._host_index, len(pairs)
        src = np.fromiter((hosts.get(a, -1) for a, _ in pairs), np.intp, count=n)
        dst = np.fromiter((hosts.get(b, -1) for _, b in pairs), np.intp, count=n)
        if n and min(src.min(), dst.min()) < 0:
            named = pairs[int(np.minimum(src, dst).argmin())]
            for name in named:
                if name not in hosts:
                    kind = self.node_kind(name)  # raises on a name that is no node
                    raise RoutingError(
                        f"topology {self.name!r} routes hosts only, "
                        f"got {kind.value} {name!r}"
                    )
        return src, dst


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
    topo._router = _TreeRouter(spec)
    return topo
