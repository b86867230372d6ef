"""Property: the process-wide route memo answers what networkx answers.

Routes are memoized per graph *shape* — nodes and neighbours in insertion
order, all an unweighted ``nx.shortest_path`` reads — and shared by every
routing table of that shape.  On small connected graphs with equal-cost
alternatives (where the insertion order picks the path), every memoized
answer must be a fresh ``nx.shortest_path`` of the table's own graph, the
memo must stay within its bound, and a network whose topology changes must
route over the new graph.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers import uniform_factory
from repro.sim import Simulator
from repro.sim import routing as routing_module
from repro.sim.network import Network
from repro.sim.routing import RoutingTable
from repro.utils import mbps


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


def graph_of(edges) -> nx.Graph:
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return graph


def assert_routes_are_networkx(table: RoutingTable, graph: nx.Graph) -> None:
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
        graph.add_node(f"tag{index}")  # every drawn graph a distinct shape
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
    assert_routes_are_networkx(network.routing, network.graph)
    missing = [
        (a, b) for a in network.graph for b in network.graph
        if a < b and not network.graph.has_edge(a, b)
    ]
    if missing:
        network.add_link(*data.draw(st.sampled_from(missing)), mbps(10))
    else:
        network.add_router("late")
        network.add_link("late", edges[0][0], mbps(10))
    assert_routes_are_networkx(network.routing, network.graph)
