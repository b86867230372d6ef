"""Static shortest-path routing.

The paper assumes a fixed path per packet (``path(p)`` is part of the input).
We model that with deterministic shortest-path routing over the topology
graph: the path between any two nodes is computed once and cached, and every
packet between the same pair follows the same path.  Replayed packets carry
an explicit source route instead, so the replay cannot diverge from the
original even if the routing configuration were to change between runs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx


class RoutingError(RuntimeError):
    """Raised when no route exists between two nodes."""


class RoutingTable:
    """All-pairs next-hop routing derived from shortest paths.

    Paths are computed lazily and cached.  Edge weights default to hop count;
    pass ``weight="delay"`` to prefer low-propagation-delay paths (the graph
    edges must then carry a ``delay`` attribute).
    """

    def __init__(self, graph: nx.Graph, weight: str | None = None) -> None:
        self._graph = graph
        self._weight = weight
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}

    def path(self, src: str, dst: str) -> List[str]:
        """Node names along the route from ``src`` to ``dst`` (inclusive)."""
        if src == dst:
            return [src]
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        try:
            route = nx.shortest_path(self._graph, src, dst, weight=self._weight)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RoutingError(f"no route from {src} to {dst}") from exc
        self._path_cache[key] = route
        return route

    def next_hop(self, node: str, dst: str) -> str:
        """The neighbour ``node`` should forward to in order to reach ``dst``."""
        if node == dst:
            raise RoutingError(f"{node} is already the destination")
        route = self.path(node, dst)
        return route[1]

    def hop_count(self, src: str, dst: str) -> int:
        """Number of links on the route from ``src`` to ``dst``."""
        return len(self.path(src, dst)) - 1
