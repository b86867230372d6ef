"""Topology specifications.

A :class:`Topology` is a declarative description (nodes + links) that can be
instantiated into a live :class:`~repro.sim.network.Network` any number of
times.  The replay engine relies on this: the original run and the replay run
are built from the same specification but with different scheduler factories,
guaranteeing that only the scheduling logic differs between the two runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.network import Network, SchedulerFactory
from repro.sim.tracer import Tracer


@dataclass(frozen=True)
class NodeSpec:
    """One node in a topology: a ``"host"`` or a ``"router"``."""

    name: str
    kind: str = "router"

    def __post_init__(self) -> None:
        if self.kind not in ("host", "router"):
            raise ValueError(f"node kind must be 'host' or 'router', got {self.kind!r}")


@dataclass(frozen=True)
class LinkSpec:
    """One full-duplex link in a topology."""

    a: str
    b: str
    bandwidth_bps: float
    propagation_delay: float = 0.0
    buffer_bytes: Optional[float] = None


@dataclass
class Topology:
    """A reusable topology description.

    Attributes:
        name: Human-readable topology name (appears in experiment output).
        nodes: All nodes.
        links: All full-duplex links.
    """

    name: str
    nodes: List[NodeSpec] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_host(self, name: str) -> str:
        """Append a host node and return its name."""
        self.nodes.append(NodeSpec(name, "host"))
        return name

    def add_router(self, name: str) -> str:
        """Append a router node and return its name."""
        self.nodes.append(NodeSpec(name, "router"))
        return name

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        propagation_delay: float = 0.0,
        buffer_bytes: Optional[float] = None,
    ) -> None:
        """Append a full-duplex link between two declared nodes."""
        self.links.append(LinkSpec(a, b, bandwidth_bps, propagation_delay, buffer_bytes))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def host_names(self) -> List[str]:
        """Names of all hosts, in declaration order."""
        return [node.name for node in self.nodes if node.kind == "host"]

    def router_names(self) -> List[str]:
        """Names of all routers, in declaration order."""
        return [node.name for node in self.nodes if node.kind == "router"]

    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        """Total number of full-duplex links."""
        return len(self.links)

    def bottleneck_bandwidth_bps(self) -> float:
        """Bandwidth of the slowest link in the topology."""
        if not self.links:
            raise ValueError(f"topology {self.name} has no links")
        return min(link.bandwidth_bps for link in self.links)

    def bottleneck_transmission_time(self, size_bytes: float) -> float:
        """Transmission time of ``size_bytes`` on the slowest link.

        This is the threshold ``T`` used in Table 1 of the paper ("overdue by
        more than one transmission time on the bottleneck link").  Computing
        it from the link specs means callers never need to instantiate a
        probe network just to find the threshold.
        """
        from repro.utils.units import transmission_delay

        return transmission_delay(size_bytes, self.bottleneck_bandwidth_bps())

    def link_params(self) -> Dict[Tuple[str, str], Tuple[float, float]]:
        """``(bandwidth, propagation)`` of every directed link; its key order numbers the ports.

        The floats :meth:`build` hands the Link objects, for replays that read
        links without building a network (header initializers, flat kernels).
        """
        params: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for spec in self.links:
            link = (spec.bandwidth_bps, spec.propagation_delay)
            params[(spec.a, spec.b)] = params[(spec.b, spec.a)] = link
        return params

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable spec (used by schedule files and the cache key)."""
        return {
            "name": self.name,
            "nodes": [[node.name, node.kind] for node in self.nodes],
            "links": [
                [
                    link.a,
                    link.b,
                    link.bandwidth_bps,
                    link.propagation_delay,
                    link.buffer_bytes,
                ]
                for link in self.links
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        """Rebuild a topology from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            nodes=[NodeSpec(name, kind) for name, kind in data["nodes"]],
            links=[
                LinkSpec(a, b, bandwidth, propagation, buffer_bytes)
                for a, b, bandwidth, propagation, buffer_bytes in data["links"]
            ],
        )

    def validate(self) -> None:
        """Check internal consistency (unique names, links reference known nodes)."""
        names = [node.name for node in self.nodes]
        if len(names) != len(set(names)):
            raise ValueError(f"topology {self.name}: duplicate node names")
        known = set(names)
        for link in self.links:
            for endpoint in (link.a, link.b):
                if endpoint not in known:
                    raise ValueError(
                        f"topology {self.name}: link references unknown node {endpoint!r}"
                    )

    # ------------------------------------------------------------------ #
    # Instantiation
    # ------------------------------------------------------------------ #
    def build(
        self,
        sim: Simulator,
        scheduler_factory: SchedulerFactory,
        tracer: Optional[Tracer] = None,
        default_buffer_bytes: Optional[float] = None,
    ) -> Network:
        """Instantiate this topology into a live network.

        Args:
            sim: The simulation engine for this run.
            scheduler_factory: Scheduler deployed at each output port.
            tracer: Optional trace collector.
            default_buffer_bytes: Buffer capacity for links that do not
                specify their own (``None`` = infinite).
        """
        self.validate()
        network = Network(
            sim,
            scheduler_factory,
            tracer=tracer,
            default_buffer_bytes=default_buffer_bytes,
        )
        for node in self.nodes:
            if node.kind == "host":
                network.add_host(node.name)
            else:
                network.add_router(node.name)
        for link in self.links:
            network.add_link(
                link.a,
                link.b,
                link.bandwidth_bps,
                link.propagation_delay,
                buffer_bytes=link.buffer_bytes,
            )
        return network


def linear_topology(
    num_routers: int,
    bandwidth_bps: float,
    propagation_delay: float = 0.0,
    hosts_per_end: int = 1,
    access_bandwidth_bps: Optional[float] = None,
    name: str = "linear",
) -> Topology:
    """A chain of routers with hosts hanging off both ends.

    Useful for unit tests and for constructing scenarios with a controlled
    number of congestion points.
    """
    if num_routers < 1:
        raise ValueError("need at least one router")
    topo = Topology(name)
    access_bw = access_bandwidth_bps if access_bandwidth_bps is not None else bandwidth_bps
    routers = [topo.add_router(f"r{i}") for i in range(num_routers)]
    for left, right in zip(routers[:-1], routers[1:]):
        topo.add_link(left, right, bandwidth_bps, propagation_delay)
    for index in range(hosts_per_end):
        src = topo.add_host(f"src{index}")
        dst = topo.add_host(f"dst{index}")
        topo.add_link(src, routers[0], access_bw, propagation_delay)
        topo.add_link(routers[-1], dst, access_bw, propagation_delay)
    return topo


def dumbbell_topology(
    num_pairs: int,
    bottleneck_bandwidth_bps: float,
    access_bandwidth_bps: float,
    bottleneck_delay: float = 0.0,
    access_delay: float = 0.0,
    name: str = "dumbbell",
) -> Topology:
    """The classic dumbbell: N sources and N sinks sharing one bottleneck link."""
    if num_pairs < 1:
        raise ValueError("need at least one host pair")
    topo = Topology(name)
    left = topo.add_router("left")
    right = topo.add_router("right")
    topo.add_link(left, right, bottleneck_bandwidth_bps, bottleneck_delay)
    for index in range(num_pairs):
        src = topo.add_host(f"src{index}")
        dst = topo.add_host(f"dst{index}")
        topo.add_link(src, left, access_bandwidth_bps, access_delay)
        topo.add_link(right, dst, access_bandwidth_bps, access_delay)
    return topo


def single_switch_topology(
    num_hosts: int,
    bandwidth_bps: float,
    propagation_delay: float = 0.0,
    name: str = "single-switch",
) -> Topology:
    """A star: one router with ``num_hosts`` hosts attached (single congestion point)."""
    if num_hosts < 2:
        raise ValueError("need at least two hosts")
    topo = Topology(name)
    switch = topo.add_router("switch")
    for index in range(num_hosts):
        host = topo.add_host(f"h{index}")
        topo.add_link(host, switch, bandwidth_bps, propagation_delay)
    return topo
