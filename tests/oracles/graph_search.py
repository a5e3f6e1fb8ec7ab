"""Trees that route by graph search.

:func:`~repro.net.topology.build_multi_rooted_tree` attaches an arithmetic
router to the tree it returns.  A copy added node by node and link by link
has none, so it routes as any hand-built graph does — by graph search
(``_lazy_kth_shortest_path``), the oracle the router is held to.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cloud import provider as cloud_provider
from repro.net.links import LinkKind
from repro.net.topology import NodeKind, Topology, TreeSpec, build_multi_rooted_tree


def hand_built(topo: Topology, seed: Optional[int] = None) -> Topology:
    """``topo``'s graph, added node by node and link by link.

    With no ``seed``, in ``topo``'s own order: hosts keep their positions
    and links their indices.  With one, nodes and then cables in an order
    the seed shuffles: hosts take other positions, links other indices.
    """
    copy = Topology(name=topo.name, intra_host_bps=topo._intra_host_bps)

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


def build_searched_tree(spec: TreeSpec = TreeSpec(), name: str = "dc") -> Topology:
    """:func:`build_multi_rooted_tree`'s tree, hand-built: same nodes, same
    links in the same order, every route a graph search."""
    return hand_built(build_multi_rooted_tree(spec, name=name))


def use_graph_search(patch) -> None:
    """Every provider built from here on gets a hand-built tree (a fresh
    one: the shared-tree table starts empty, so no router or route is left
    over from another test)."""
    patch.setattr(cloud_provider, "build_multi_rooted_tree", build_searched_tree)
    patch.setattr(cloud_provider, "_shared_trees", {})
