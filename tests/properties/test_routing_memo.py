"""Property: the process-wide route memo answers what networkx answers.

Routes are memoized per graph *shape* — nodes and neighbours in insertion
order, all the routing search reads — and shared by every routing table of
that shape.  networkx's unweighted ``nx.shortest_path`` (its bidirectional
BFS) is the oracle; it is a test dependency only.  On small connected graphs
with equal-cost alternatives (where the insertion order picks the path), and
on every ordered pair of the quick-scale Internet2, fat-tree and RocketFuel
topologies, every memoized answer must be a fresh ``nx.shortest_path`` of a
graph with the table's own adjacency, the memo must stay within its bound,
and a network whose topology changes must route over the new graph.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentScale
from repro.schedulers.factory import uniform_factory
from repro.sim import routing as routing_module
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.routing import RoutingTable
from repro.utils import mbps

nx = pytest.importorskip("networkx")


@st.composite
def edge_lists(draw, min_nodes=3, max_nodes=7):
    """Edges of a connected graph on ``n0..n<k>``, in a drawn insertion order.

    A random spanning tree plus chords, so most graphs hold equal-cost
    alternatives between some pair.
    """
    count = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    edges = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, count)}
    chord = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    edges |= {(min(a, b), max(a, b)) for a, b in draw(st.lists(chord, max_size=6)) if a != b}
    return [(f"n{a}", f"n{b}") for a, b in draw(st.permutations(sorted(edges)))]


def forget_routes() -> None:
    """Start an example from an empty memo, so a failure replays the same."""
    routing_module._memo.clear()


def graph_of(edges) -> dict:
    """The adjacency a network gets from adding ``edges`` in order."""
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    return adjacency


def oracle_of(adjacency: dict):
    """An ``nx.Graph`` whose neighbour lists equal ``adjacency``'s, order included.

    Adds, while any remains, an edge that heads the unadded part of both its
    ends' lists: the order networkx needs to rebuild each list as it stands.
    """
    graph = nx.Graph()
    graph.add_nodes_from(adjacency)
    added = dict.fromkeys(adjacency, 0)
    progress = True
    while progress:
        progress = False
        for a, neighbours in adjacency.items():
            while added[a] < len(neighbours):
                b = neighbours[added[a]]
                if adjacency[b][added[b]] != a:
                    break
                graph.add_edge(a, b)
                added[a] += 1
                added[b] += 1
                progress = True
    assert {node: list(graph.adj[node]) for node in graph} == adjacency
    return graph


def assert_routes_are_networkx(table: RoutingTable, adjacency: dict) -> None:
    graph = oracle_of(adjacency)
    for src in graph:
        for dst in graph:
            expected = nx.shortest_path(graph, src, dst)
            assert table.path(src, dst) == expected
            if src != dst:
                assert table.next_hop(src, dst) == expected[1]


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_memoized_routes_equal_fresh_shortest_paths(edges):
    forget_routes()
    first = graph_of(edges)
    assert_routes_are_networkx(RoutingTable(first), first)
    twin = graph_of(edges)  # another graph object of the same shape: memo hits
    table = RoutingTable(twin)
    assert_routes_are_networkx(table, twin)
    shared = RoutingTable(first)  # one list per route, handed to every table
    assert all(table.path(s, d) is shared.path(s, d) for s in first for d in first if s != d)


@given(edge_lists(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_another_insertion_order_gets_its_own_routes(edges, rng):
    forget_routes()
    first = graph_of(edges)
    assert_routes_are_networkx(RoutingTable(first), first)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    other = graph_of((b, a) if rng.random() < 0.5 else (a, b) for a, b in shuffled)
    # nx's answer for *this* order, never the first graph's where they differ.
    assert_routes_are_networkx(RoutingTable(other), other)


@given(st.lists(edge_lists(), min_size=routing_module.MEMO_SHAPES + 1, max_size=12))
@settings(max_examples=20, deadline=None)
def test_the_memo_keeps_at_most_its_bound_of_shapes(graphs):
    forget_routes()
    built = []
    for index, edges in enumerate(graphs):
        graph = graph_of(edges)
        graph[f"tag{index}"] = []  # every drawn graph a distinct shape
        RoutingTable(graph).path(*edges[0])
        built.append(routing_module._shape(graph))
    bound = routing_module.MEMO_SHAPES
    assert list(routing_module._memo) == built[-bound:]  # the most recent, in order


@given(edge_lists(min_nodes=4), st.data())
@settings(max_examples=40, deadline=None)
def test_a_changed_network_routes_over_its_new_graph(edges, data):
    forget_routes()
    network = Network(Simulator(), uniform_factory("fifo"))
    for node in sorted({node for edge in edges for node in edge}):
        network.add_router(node)
    for a, b in edges:
        network.add_link(a, b, mbps(10))
    assert_routes_are_networkx(network.routing, network.adjacency)
    missing = [
        (a, b) for a in network.adjacency for b in network.adjacency
        if a < b and b not in network.adjacency[a]
    ]
    if missing:
        network.add_link(*data.draw(st.sampled_from(missing)), mbps(10))
    else:
        network.add_router("late")
        network.add_link("late", edges[0][0], mbps(10))
    assert_routes_are_networkx(network.routing, network.adjacency)


@pytest.mark.parametrize("name", ["internet2", "fattree", "rocketfuel"])
def test_every_pair_of_a_shipped_topology_routes_as_networkx_does(name):
    forget_routes()
    topology = getattr(ExperimentScale.quick(), name)()
    network = topology.build(Simulator(), uniform_factory("fifo"))
    assert_routes_are_networkx(network.routing, network.adjacency)
