"""A topology is its tree: built in one step from a ``TreeSpec``.

The tree's link ids, capacities, hosts, racks and routes are held to a copy
laid out link by link in the order an editable graph had them added
(``oracles.graph_search.tree_layout``) and routed by graph search; the
order fixes every link's index in the rows a route hands the allocator
(though no rate depends on it: ``tests/test_level_rule.py``).  A
``TreeSpec`` refuses a capacity that is no positive number.
"""

import itertools
import math

import pytest
from oracles.graph_search import hand_built

from repro.errors import TopologyError
from repro.net.topology import TreeSpec, build_multi_rooted_tree

#: The shapes the layout branches on: the default tree, the extra
#: aggregation tier, one core, one host a rack, and more than ten cores
#: ("core10" sorts before "core2") with mixed and infinite capacities.
LAYOUT_SPECS = (
    TreeSpec(),
    TreeSpec(pods=2, racks_per_pod=2, hosts_per_rack=2, extra_agg_layer=True),
    TreeSpec(pods=3, racks_per_pod=2, hosts_per_rack=2, num_cores=1),
    TreeSpec(pods=2, racks_per_pod=3, hosts_per_rack=1, num_cores=3),
    TreeSpec(pods=2, racks_per_pod=1, hosts_per_rack=3, num_cores=12, extra_agg_layer=True,
             tor_agg_link_bps=5e8, agg_core_link_bps=2e8, intra_host_bps=math.inf),
)


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=str)
def test_the_tree_is_the_hand_built_copy_link_for_link(spec):
    """Link ids in order, capacities, hosts in name order, host positions,
    racks and the row of every ordered pair of hosts (loopbacks included):
    the tree's are the hand-built copy's."""
    tree = build_multi_rooted_tree(spec)
    copy = hand_built(tree)
    assert list(tree.capacities().items()) == list(copy.capacities().items())
    assert tree.capacity_vector().tolist() == copy.capacity_vector().tolist()
    assert not tree.capacity_vector().flags.writeable
    hosts = tree.hosts()
    assert hosts == copy.hosts() == sorted(f"host{i}" for i in range(spec.num_hosts))
    assert [tree.host_index(h) for h in hosts] == [copy.host_index(h) for h in hosts]
    assert [tree.rack_of(h) for h in hosts] == [copy.rack_of(h) for h in hosts]
    pairs = list(itertools.product(hosts, hosts))
    (rows, lengths, link_ids), want = tree.path_links_matrix(pairs), copy.path_links_matrix(pairs)
    assert link_ids == want[2] == list(tree.capacities())
    assert rows.tolist() == want[0].tolist() and lengths.tolist() == want[1].tolist()


CAPACITIES = ("host_link_bps", "tor_agg_link_bps", "agg_core_link_bps", "intra_host_bps")


@pytest.mark.parametrize("field", CAPACITIES)
def test_a_capacity_must_be_a_positive_number(field):
    """Zero, a negative number, NaN and -inf are refused by name, as the
    spec is made; +inf (a link that never binds) is a capacity."""
    for value in (0, 0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(TopologyError, match=f"TreeSpec.{field} must be a positive capacity"):
            TreeSpec(**{field: value})
    tree = build_multi_rooted_tree(TreeSpec(**{field: math.inf}))
    assert math.inf in tree.capacities().values()
