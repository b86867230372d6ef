"""Network: topology container, routing, and empty-network latency (tmin).

A :class:`Network` owns the nodes, links, ports, and schedulers of one
simulation run.  It also exposes the ``tmin`` computation used by the paper's
slack definition: the time a packet of a given size takes to traverse a path
through an otherwise empty (uncongested) store-and-forward network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.sim.link import Link
from repro.sim.node import Host, Node, Router
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.sim.routing import RoutingTable
from repro.sim.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import Scheduler
    from repro.sim.engine import Simulator


#: A scheduler factory receives the sending node's name and the outgoing link
#: and returns a fresh scheduler instance for that port.  This is how
#: experiments deploy FIFO everywhere, LSTF everywhere, or per-router
#: mixtures (e.g. half FQ, half FIFO+).
SchedulerFactory = Callable[[str, Link], "Scheduler"]


class Network:
    """Container for one simulated network.

    Args:
        sim: Simulation engine that drives this network.
        scheduler_factory: Called once per output port to create its scheduler.
        tracer: Optional trace collector; one is created if not supplied.
        default_buffer_bytes: Buffer capacity applied to router/host ports
            unless overridden per link (``None`` = infinite buffers).
    """

    def __init__(
        self,
        sim: "Simulator",
        scheduler_factory: SchedulerFactory,
        tracer: Optional[Tracer] = None,
        default_buffer_bytes: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.scheduler_factory = scheduler_factory
        self.tracer = tracer if tracer is not None else Tracer()
        self.default_buffer_bytes = default_buffer_bytes

        #: Each node's neighbours in insertion order (what routing reads).
        self.adjacency: Dict[str, List[str]] = {}
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._routing: Optional[RoutingTable] = None

        #: Optional slack policy applied by hosts at packet-send time (used by
        #: the practical heuristics in Section 3 of the paper).
        self.slack_policy = None

        #: Optional fault injector (repro.faults) once a fault plan has been
        #: installed via :meth:`install_faults`; None on fault-free runs.
        self.fault_injector = None

    # ------------------------------------------------------------------ #
    # Topology construction
    # ------------------------------------------------------------------ #
    def add_host(self, name: str) -> Host:
        """Create and register an end host."""
        self._check_new_name(name)
        host = Host(self.sim, name, self)
        self.nodes[name] = host
        self.adjacency[name] = []
        self._invalidate_routing()
        return host

    def add_router(self, name: str) -> Router:
        """Create and register a store-and-forward router."""
        self._check_new_name(name)
        router = Router(self.sim, name, self)
        self.nodes[name] = router
        self.adjacency[name] = []
        self._invalidate_routing()
        return router

    def _check_new_name(self, name: str) -> None:
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        propagation_delay: float = 0.0,
        buffer_bytes: Optional[float] = None,
    ) -> Tuple[Link, Link]:
        """Add a full-duplex link between two existing nodes.

        Creates one unidirectional :class:`Link` and one output port in each
        direction, with a freshly built scheduler per port.

        Returns:
            The two directed links ``(a->b, b->a)``.
        """
        if a not in self.nodes or b not in self.nodes:
            missing = a if a not in self.nodes else b
            raise KeyError(f"cannot link unknown node {missing!r}")
        if (a, b) in self.links or (b, a) in self.links:
            raise ValueError(f"link between {a} and {b} already exists")

        capacity = buffer_bytes if buffer_bytes is not None else self.default_buffer_bytes
        forward = Link(a, b, bandwidth_bps, propagation_delay)
        backward = Link(b, a, bandwidth_bps, propagation_delay)
        for link in (forward, backward):
            sender = self.nodes[link.src]
            scheduler = self.scheduler_factory(link.src, link)
            port = OutputPort(self.sim, sender, link, scheduler, buffer_bytes=capacity)
            sender.add_port(link.dst, port)
            self.links[(link.src, link.dst)] = link

        self.adjacency[a].append(b)
        self.adjacency[b].append(a)
        self._invalidate_routing()
        return forward, backward

    def link(self, src: str, dst: str) -> Link:
        """The directed link from ``src`` to ``dst``."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link from {src} to {dst}") from None

    def hosts(self) -> List[Host]:
        """All end hosts in the network."""
        return [node for node in self.nodes.values() if isinstance(node, Host)]

    def host(self, name: str) -> Host:
        """Look up a host by name (raises if the node is not a host)."""
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise TypeError(f"{name} is not a host")
        return node

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def routing(self) -> RoutingTable:
        """The (lazily built) routing table for the current topology."""
        if self._routing is None:
            self._routing = RoutingTable(self.adjacency)
        return self._routing

    def _invalidate_routing(self) -> None:
        # The one invalidation point: every node's forwarding table is
        # derived from the routing table, so both go together.  Nothing can
        # have been derived while no routing table was built, which keeps
        # topology construction O(1) per add_* call.
        if self._routing is not None:
            self._routing = None
            for node in self.nodes.values():
                node.forwarding.clear()

    def path(self, src: str, dst: str) -> List[str]:
        """Route (list of node names) from ``src`` to ``dst``."""
        return self.routing.path(src, dst)

    # ------------------------------------------------------------------ #
    # Empty-network latency (the paper's tmin)
    # ------------------------------------------------------------------ #
    def tmin_along(self, size_bytes: float, path: List[str]) -> float:
        """Empty-network latency of a packet of ``size_bytes`` along ``path``.

        This is the paper's ``tmin``: the sum, over every link on the path, of
        the store-and-forward transmission delay plus the propagation delay.
        A single-node path has zero latency (the formal model's edge case
        ``tmin(p, alpha, alpha) = T(p, alpha)`` concerns router-internal
        transmission and is handled by the scheduler-level slack expression,
        not here).
        """
        total = 0.0
        for src, dst in zip(path[:-1], path[1:]):
            link = self.link(src, dst)
            total += link.transmission_delay(size_bytes) + link.propagation_delay
        return total

    def tmin(self, size_bytes: float, src: str, dst: str) -> float:
        """Empty-network latency from ``src`` to ``dst`` for a packet of ``size_bytes``."""
        return self.tmin_along(size_bytes, self.path(src, dst))

    def tmin_remaining(self, packet: Packet, from_node: str) -> float:
        """Empty-network latency from ``from_node`` to the packet's destination.

        Used by network-wide EDF, which needs ``tmin(p, alpha, dest(p))`` as
        static per-router state.  Honors the packet's source route if set.
        """
        if packet.route:
            try:
                index = packet.route.index(from_node)
            except ValueError:
                raise RuntimeError(
                    f"node {from_node} is not on packet {packet.packet_id}'s route"
                ) from None
            remaining_path = packet.route[index:]
        else:
            remaining_path = self.path(from_node, packet.dst)
        return self.tmin_along(packet.size_bytes, remaining_path)

    # ------------------------------------------------------------------ #
    # Tracer notifications (called by nodes/ports)
    # ------------------------------------------------------------------ #
    def notify_ingress(self, packet: Packet) -> None:
        """Record a packet injection with the tracer."""
        self.tracer.on_ingress(packet)

    def notify_egress(self, packet: Packet) -> None:
        """Record a packet delivery with the tracer."""
        self.tracer.on_egress(packet)

    def notify_drop(self, packet: Packet) -> None:
        """Record a packet drop with the tracer."""
        self.tracer.on_drop(packet)

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def install_faults(self, plan, horizon: float):
        """Install a :class:`repro.faults.FaultPlan` on this network.

        Must be called before the simulation runs (outage toggles are
        scheduled as absolute-time events).  ``horizon`` is the time span the
        plan's fractional windows are stretched over — the workload duration
        when recording, the last recorded ingress time when replaying.
        Delegates to the plan so this module never imports ``repro.faults``
        (the fault layer sits above the engine).

        Returns:
            The installed :class:`repro.faults.injector.FaultInjector`.
        """
        if self.fault_injector is not None:
            raise RuntimeError("a fault plan is already installed on this network")
        self.fault_injector = plan.install(self.sim, self, horizon)
        return self.fault_injector

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Network nodes={len(self.nodes)} links={len(self.links) // 2} "
            f"hosts={len(self.hosts())}>"
        )
