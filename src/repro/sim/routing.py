"""Static shortest-path routing.

The paper assumes a fixed path per packet (``path(p)`` is part of the input).
We model that with deterministic shortest-path routing over the topology
graph: the path between any two nodes is computed once and cached, and every
packet between the same pair follows the same path.  Replayed packets carry
an explicit source route instead, so the replay cannot diverge from the
original even if the routing configuration were to change between runs.

A route is found by a bidirectional breadth-first search (:func:`_route`),
which fixes which of several fewest-hops paths is taken: each round grows
the smaller fringe (the forward one on a tie), visits neighbours in
insertion order, stops at the first node both searches have reached and
joins the two predecessor chains there.  A one-directional BFS breaks ties
differently and would move routes, and with them every recorded schedule.

Routes are found once per graph *shape*, not once per network: every
:class:`RoutingTable` of one process whose adjacency has the same nodes and
neighbours in the same insertion order (all the search reads) shares one
path memo.  The memo keeps the :data:`MEMO_SHAPES` most recently built
shapes, so the many networks an experiment builds over one topology route
once.  The lists it hands out are shared between those networks: treat them
as read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

#: Graph shapes whose paths the process-wide memo keeps.
MEMO_SHAPES = 8

#: Graph shape -> ``(src, dst) -> path``, least recently built first.
_memo: "OrderedDict[tuple, Dict[Tuple[str, str], List[str]]]" = OrderedDict()


def _shape(adjacency: Dict[str, List[str]]) -> tuple:
    """Nodes and their neighbours in insertion order: two undirected graphs
    of equal shape have equal routes."""
    return tuple((n, tuple(nbrs)) for n, nbrs in adjacency.items())


def _route(adjacency: Dict[str, List[str]], source: str, target: str) -> Optional[List[str]]:
    """Fewest-hops route by the module's bidirectional BFS, or ``None``.

    ``reached`` maps each node the search from ``source`` (side 0) or from
    ``target`` (side 1) reached to the node it was reached from."""
    if source not in adjacency or target not in adjacency:
        return None
    reached = ({source: None}, {target: None})
    fringes = [[source], [target]]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        mine, theirs = reached[side], reached[1 - side]
        level, fringes[side] = fringes[side], []
        for v in level:
            for w in adjacency[v]:
                if w not in mine:
                    mine[w] = v
                    fringes[side].append(w)
                if w in theirs:
                    return _chain(reached[0], w)[::-1] + _chain(reached[1], reached[1][w])
    return None


def _chain(predecessors: Dict[str, Optional[str]], node: Optional[str]) -> List[str]:
    """``node`` and its predecessors, back to the search's root."""
    chain = []
    while node is not None:
        chain.append(node)
        node = predecessors[node]
    return chain


class RoutingError(RuntimeError):
    """Raised when no route exists between two nodes."""


class RoutingTable:
    """All-pairs next-hop routing derived from shortest paths.

    ``adjacency`` lists each node's neighbours in insertion order (an
    undirected graph: each edge appears under both its ends).  Paths are
    computed lazily into the memo of its shape as it is now; a path is a
    fewest-hops one.  Build a new table after changing the graph
    (``Network._invalidate_routing`` does).
    """

    def __init__(self, adjacency: Dict[str, List[str]]) -> None:
        self._adjacency = adjacency
        shape = _shape(adjacency)
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
        route = _route(self._adjacency, src, dst)
        if route is None:
            raise RoutingError(f"no route from {src} to {dst}")
        self._path_cache[key] = route
        return route

    def next_hop(self, node: str, dst: str) -> str:
        """The neighbour ``node`` should forward to in order to reach ``dst``."""
        if node == dst:
            raise RoutingError(f"{node} is already the destination")
        return self.path(node, dst)[1]
