"""Multi-rooted tree datacenter topologies (paper §3.3.1, Figure 5).

The paper assumes datacenter networks are multi-rooted trees: virtual
machines sit on physical machines, which connect to top-of-rack (ToR)
switches, which connect to aggregation switches, which connect to core
switches.  Path hop counts in such a topology fall in ``{1, 2, 4, 6, 8}``
(Figure 8): one "hop" for two VMs on the same physical machine, two for the
same rack, four within an aggregation subtree, six through the core, and
eight when an extra aggregation tier is present.

A :class:`Topology` is the tree a :class:`TreeSpec` describes, built in one
step: its directed links and their capacities, its hosts, and its one
router, which routes host pairs as arrays.  :func:`build_multi_rooted_tree`
builds it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import RoutingError, TopologyError
from repro.net.links import directed_link_id, loopback_link_id
from repro.units import GBITPS


# ---------------------------------------------------------------------------
# Tree routing
# ---------------------------------------------------------------------------
# Multi-rooted trees built from a TreeSpec have completely regular routes:
# host i sits in pod i // (racks_per_pod * hosts_per_rack) and rack
# (i // hosts_per_rack) % racks_per_pod, and every path is determined by the
# relation between the two endpoints' coordinates (same host / rack / pod /
# cross-pod) plus the ECMP core choice.  Every Topology builds one
# _TreeRouter for its spec.  A pair's core is picked from keys derived from
# the endpoints' names (not their positions), so any copy of a tree routes
# as it does.
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
    """Arithmetic ECMP routing for the tree of a :class:`TreeSpec`.

    Hosts are given by index: a :class:`Topology` lays out ``host{i}`` as
    its ``i``-th host, so an index is also the host's position
    (:meth:`Topology.host_index`).  Paths are derived from host
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
        self, index: Mapping[str, int], loopbacks: Sequence[int], capacity: "np.ndarray"
    ) -> "_TreeLinkTables":
        """Link indices of the tree by coordinate, for :meth:`link_rows`.

        ``index`` maps link ids to positions (a topology's own link order),
        ``loopbacks`` holds each host's loopback link index and
        ``capacity`` each link's capacity by index.  Each rack's uplinks
        are one link (ToR to pod aggregation) or, with the extra tier, two.
        Core columns follow the sorted core names the ECMP pick indexes.
        The route of every ordered pair of racks is one row of
        ``rack_rows``, its host columns (and, across pods, its core
        columns) left at -1 for :meth:`link_rows` to fill; the narrowest of
        the links it holds is its entry of ``rack_narrowest``.  The rack
        pairs are one array program over the racks' links.
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
        # Host up, rack up, [core up, core down,] rack down, host down; the
        # rack down links start two columns later across pods.
        tier = spec.extra_agg_layer + 1
        racks = spec.pods * spec.racks_per_pod
        shape = (racks, racks, tier)
        up = np.broadcast_to(np.asarray(rack_up, dtype=np.int32)[:, None, :], shape)
        down = np.broadcast_to(np.asarray(rack_down, dtype=np.int32)[None, :, :], shape)
        pod = np.arange(racks) // spec.racks_per_pod
        far = pod[:, None] != pod[None, :]
        other = ~np.eye(racks, dtype=bool)
        near = other & ~far
        rack_rows = np.full((racks, racks, 4 + 2 * tier), -1, dtype=np.int32)
        rack_rows[other, 1 : 1 + tier] = up[other]
        rack_rows[near, 1 + tier : 1 + 2 * tier] = down[near]
        rack_rows[far, 3 + tier : 3 + 2 * tier] = down[far]
        rack_lengths = np.where(far, 4 + 2 * tier, np.where(other, 2 + 2 * tier, 2))
        pod_pair = np.where(
            other, (pod[:, None] * spec.pods + pod[None, :]) * spec.num_cores, 0
        )
        rack_rows = rack_rows.reshape(racks * racks, -1)
        # A -1 column reads the appended +inf.
        rack_narrowest = np.append(capacity, np.inf)[rack_rows].min(axis=1)
        rack_of = np.arange(spec.num_hosts) // spec.hosts_per_rack
        return _TreeLinkTables(
            rack_rows,
            rack_lengths.ravel().astype(np.int32),
            pod_pair.ravel().astype(np.intp),
            rack_narrowest,
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
    rack_narrowest: "np.ndarray"  # [rack pair] the least capacity in its row (inf if none)
    rack_pair: "np.ndarray"  # [host] its rack * racks
    rack_of: "np.ndarray"  # [host] its rack
    host_up: "np.ndarray"  # [host] host -> its ToR
    host_down: "np.ndarray"  # [host] ToR -> host
    loopback: "np.ndarray"  # [host] the host's loopback link
    core_up: "np.ndarray"  # [pod pair * cores + core] source pod's agg -> core
    core_down: "np.ndarray"  # [pod pair * cores + core] core -> destination pod's agg


@dataclass(frozen=True)
class TreeSpec:
    """Parameters of a multi-rooted tree: what a :class:`Topology` is built from.

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
        # A capacity is a positive number of bits per second; +inf (a link
        # that never binds) is one, NaN is not.
        for name in ("host_link_bps", "tor_agg_link_bps", "agg_core_link_bps", "intra_host_bps"):
            capacity = getattr(self, name)
            if not capacity > 0:
                raise TopologyError(
                    f"TreeSpec.{name} must be a positive capacity, got {capacity!r}"
                )

    @property
    def num_hosts(self) -> int:
        """Total number of physical machines in the tree."""
        return self.hosts_per_rack * self.racks_per_pod * self.pods


class Topology:
    """The multi-rooted tree a :class:`TreeSpec` describes, with its router.

    Every cable is two directed links of one capacity, one per direction,
    and every host has a loopback link for its colocated VMs' traffic.
    Links are numbered as the tree is laid out: per pod, its aggregation
    switch's core cables, then per rack the ToR's uplink cable (two with
    the extra tier), then per host its loopback and its ToR cable.  Host
    ``host{i}`` is the ``i``-th host laid out.  Link indices are part of
    every result (the allocator breaks ties on the lowest), and a tree is
    never edited, so the tables derived from it are shared by every
    provider of its shape.
    """

    def __init__(self, spec: TreeSpec, name: str = "dc"):
        self.spec = spec
        self.name = name
        # link id -> capacity, in link index order
        links: Dict[str, float] = {}

        def cable(a: str, b: str, capacity: float) -> None:
            links[directed_link_id(a, b)] = capacity
            links[directed_link_id(b, a)] = capacity

        hosts: List[str] = []
        for p in range(spec.pods):
            agg = f"agg{p}"
            for c in range(spec.num_cores):
                cable(agg, f"core{c}", spec.agg_core_link_bps)
            for r in range(spec.racks_per_pod):
                tor = f"tor{p}.{r}"
                if spec.extra_agg_layer:
                    cable(tor, f"agg{p}.{r}", spec.tor_agg_link_bps)
                    cable(f"agg{p}.{r}", agg, spec.tor_agg_link_bps)
                else:
                    cable(tor, agg, spec.tor_agg_link_bps)
                for _ in range(spec.hosts_per_rack):
                    host = f"host{len(hosts)}"
                    hosts.append(host)
                    links[loopback_link_id(host)] = spec.intra_host_bps
                    cable(host, tor, spec.host_link_bps)
        self._capacities = links
        self._link_list = list(links)
        self._link_index = {lid: i for i, lid in enumerate(self._link_list)}
        vector = np.fromiter(links.values(), dtype=np.float64, count=len(links))
        vector.flags.writeable = False
        self._capacity_vector = vector
        self._host_names = hosts
        self._host_index = {host: i for i, host in enumerate(hosts)}
        self._hosts_by_name = sorted(hosts)
        self._router = _TreeRouter(spec)
        # The link tables the router routes with, built on the first route.
        self._tree_tables: Optional[_TreeLinkTables] = None

    def hosts(self) -> List[str]:
        """All physical machine names, sorted by name."""
        return list(self._hosts_by_name)

    def host_index(self, name: str) -> int:
        """Position of host ``name`` in the tree (``host{i}`` is at ``i``):
        what an index array handed to :meth:`path_links_matrix` holds."""
        try:
            return self._host_index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown host {name!r}") from exc

    def rack_of(self, host: str) -> str:
        """The ToR switch ``host`` is attached to, from its position."""
        spec = self.spec
        pod, rack = divmod(self.host_index(host) // spec.hosts_per_rack, spec.racks_per_pod)
        return f"tor{pod}.{rack}"

    def capacities(self) -> Dict[str, float]:
        """Mapping of link id to capacity for every directed link, in link
        index order."""
        return dict(self._capacities)

    def capacity_vector(self) -> "np.ndarray":
        """Every directed link's capacity by link index — what the link
        indices of :meth:`path_links_matrix` index.  Read-only."""
        return self._capacity_vector

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
        order as :meth:`capacities`, so rows feed straight into array-based
        allocator layouts; the list is the topology's own (treat it as
        read-only).  Padding entries are -1.  A host to itself
        (``src == dst``) crosses its loopback link.

        Raises:
            RoutingError: if a pair names something other than a host, or
                if ``pairs`` is an array but not one of host positions.
        """
        if isinstance(pairs, np.ndarray):
            index_pairs(pairs, len(self._host_names), "host positions")
            # Contiguous copies: routing a 65 280-probe campaign through the
            # strided column views peaked ≈4 MB higher.
            src, dst = np.ascontiguousarray(pairs.T)
        else:
            src, dst = self._host_positions(pairs)
        if not src.shape[0]:
            return np.zeros((0, 0), np.int32), np.zeros(0, np.int32), self._link_list
        return (*self._router.link_rows(self._tables(), src, dst), self._link_list)

    def narrowest(
        self, pairs: "np.ndarray", hops: bool = False
    ) -> Tuple["np.ndarray", Optional["np.ndarray"]]:
        """The capacity of the narrowest link on the route of each pair of
        host positions (an ``(m, 2)`` array) and, with ``hops``, each
        route's hop count (``None`` without) — read off the tree's tables
        without routing.

        A route's narrowest link is the least of its source's host up
        link, its destination's host down link, its rack pair's
        ``rack_narrowest`` and, across pods, the two core links of its
        ECMP pick (:meth:`_TreeRouter.core_picks`); on one host it is the
        host's loopback link.  ``min`` is exact, so each is the least
        capacity over the route :meth:`path_links_matrix` gives the pair,
        and its hop count that route's length
        (``tests/oracles/narrowest.py``).
        """
        index_pairs(pairs, len(self._host_names), "host positions")
        src, dst = np.ascontiguousarray(pairs.T)
        if not src.shape[0]:
            return np.zeros(0), np.zeros(0, np.int32) if hops else None
        tables, capacity = self._tables(), self._capacity_vector
        pair = tables.rack_pair[src]
        pair += tables.rack_of[dst]
        narrowest = np.minimum(capacity[tables.host_up[src]], capacity[tables.host_down[dst]])
        np.minimum(narrowest, tables.rack_narrowest[pair], out=narrowest)
        lengths = tables.rack_lengths[pair]
        far = (lengths == tables.rack_rows.shape[1]).nonzero()[0]
        if far.shape[0]:
            core = tables.pod_pair[pair[far]]
            core += self._router.core_picks(src[far], dst[far])
            narrowest[far] = np.minimum(
                narrowest[far],
                np.minimum(capacity[tables.core_up[core]], capacity[tables.core_down[core]]),
            )
        same = (src == dst).nonzero()[0]
        if same.shape[0]:
            narrowest[same] = capacity[tables.loopback[src[same]]]
            lengths[same] = 1
        _structured_route_hits.inc(pair.shape[0] - same.shape[0])
        return narrowest, lengths if hops else None

    def _tables(self) -> _TreeLinkTables:
        """The link tables the router routes with, built on first use."""
        if self._tree_tables is None:
            index = self._link_index
            self._tree_tables = self._router.link_tables(
                index, [index[loopback_link_id(host)] for host in self._host_names],
                self._capacity_vector,
            )
        return self._tree_tables

    def _host_positions(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """The :meth:`host_index` positions of each pair's two hosts."""
        hosts, n = self._host_index, len(pairs)
        src = np.fromiter((hosts.get(a, -1) for a, _ in pairs), np.intp, count=n)
        dst = np.fromiter((hosts.get(b, -1) for _, b in pairs), np.intp, count=n)
        if n and min(src.min(), dst.min()) < 0:
            named = pairs[int(np.minimum(src, dst).argmin())]
            stranger = next(name for name in named if name not in hosts)
            raise RoutingError(
                f"topology {self.name!r} routes hosts only, got {stranger!r}"
            )
        return src, dst


def build_multi_rooted_tree(spec: TreeSpec = TreeSpec(), name: str = "dc") -> Topology:
    """Build the multi-rooted tree of Figure 5 from a :class:`TreeSpec`."""
    return Topology(spec, name=name)
