"""Static shortest-path routing.

The paper assumes a fixed path per packet (``path(p)`` is part of the input).
We model that with deterministic shortest-path routing over the topology
graph: the path between any two nodes is computed once and cached, and every
packet between the same pair follows the same path.  Replayed packets carry
an explicit source route instead, so the replay cannot diverge from the
original even if the routing configuration were to change between runs.

Routes are found once per graph *shape*, not once per network: every
:class:`RoutingTable` of one process whose graph has the same nodes and
neighbours in the same insertion order (all an unweighted
``nx.shortest_path`` reads; it breaks ties by that order) shares one path
memo.  The memo keeps the :data:`MEMO_SHAPES` most recently built shapes, so
the many networks an experiment builds over one topology route once.  The
lists it hands out are shared between those networks: treat them as
read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

import networkx as nx

#: Graph shapes whose paths the process-wide memo keeps.
MEMO_SHAPES = 8

#: Graph shape -> ``(src, dst) -> path``, least recently built first.
_memo: "OrderedDict[tuple, Dict[Tuple[str, str], List[str]]]" = OrderedDict()


def _shape(graph: nx.Graph) -> tuple:
    """Nodes and their neighbours in insertion order: two undirected graphs
    of equal shape have equal unweighted shortest paths."""
    return tuple((n, tuple(nbrs)) for n, nbrs in graph.adj.items())


class RoutingError(RuntimeError):
    """Raised when no route exists between two nodes."""


class RoutingTable:
    """All-pairs next-hop routing derived from shortest paths.

    Paths are computed lazily into the memo of the graph's shape as it is
    now; a path is a fewest-hops one.  Build a new table after changing the
    graph (``Network._invalidate_routing`` does).
    """

    def __init__(self, graph: nx.Graph) -> None:
        self._graph = graph
        shape = _shape(graph)
        paths = _memo.pop(shape, None)
        self._path_cache = _memo[shape] = {} if paths is None else paths
        if len(_memo) > MEMO_SHAPES:
            _memo.popitem(last=False)

    def path(self, src: str, dst: str) -> List[str]:
        """Node names along the route from ``src`` to ``dst`` (inclusive; shared, read-only)."""
        if src == dst:
            return [src]
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        try:
            route = nx.shortest_path(self._graph, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RoutingError(f"no route from {src} to {dst}") from exc
        self._path_cache[key] = route
        return route

    def next_hop(self, node: str, dst: str) -> str:
        """The neighbour ``node`` should forward to in order to reach ``dst``."""
        if node == dst:
            raise RoutingError(f"{node} is already the destination")
        return self.path(node, dst)[1]

    def hop_count(self, src: str, dst: str) -> int:
        """Number of links on the route from ``src`` to ``dst``."""
        return len(self.path(src, dst)) - 1
