"""Node models: store-and-forward routers and end hosts."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.port import OutputPort


class Node:
    """Base class for every network element (host or router).

    A node owns one :class:`~repro.sim.port.OutputPort` per outgoing link,
    keyed by the name of the neighbouring node that link leads to.
    """

    def __init__(self, sim: "Simulator", name: str, network: "Network") -> None:
        self.sim = sim
        self.name = name
        self.network = network
        self.ports: Dict[str, "OutputPort"] = {}
        #: Forwarding table: destination -> output port for table-routed
        #: packets.  Filled on first use from the network's routing table and
        #: emptied by ``Network._invalidate_routing`` on any topology change.
        self.forwarding: Dict[str, "OutputPort"] = {}

    def add_port(self, neighbor: str, port: "OutputPort") -> None:
        """Register the output port that leads to ``neighbor``."""
        if neighbor in self.ports:
            raise ValueError(f"{self.name} already has a port towards {neighbor}")
        self.ports[neighbor] = port

    def port_to(self, neighbor: str) -> "OutputPort":
        """The output port leading to ``neighbor``."""
        try:
            return self.ports[neighbor]
        except KeyError:
            raise KeyError(f"{self.name} has no port towards {neighbor}") from None

    # ------------------------------------------------------------------ #
    # Hooks called by ports
    # ------------------------------------------------------------------ #
    def notify_drop(self, packet: Packet, port: "OutputPort") -> None:
        """Called by a port when a packet is dropped due to buffer overflow."""
        self.network.notify_drop(packet)

    # ------------------------------------------------------------------ #
    # Forwarding
    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        """Handle a packet whose last bit has just arrived at this node."""
        raise NotImplementedError

    def next_hop_for(self, packet: Packet) -> str:
        """Name of the next node the packet should be forwarded to.

        Source-routed packets (``packet.route`` set) follow their recorded
        path; all other packets follow the network's routing tables.
        """
        route = packet.route
        if route:
            # The cursor tracks the packet's position along its route, so the
            # common case (each node consulted once, in path order) is O(1);
            # the list scan remains as the fallback for packets whose cursor
            # is out of step (e.g. hand-built packets entering mid-route).
            index = packet.route_cursor
            if index >= len(route) or route[index] != self.name:
                try:
                    index = route.index(self.name)
                except ValueError:
                    raise RuntimeError(
                        f"packet {packet.packet_id} source route {route} does "
                        f"not contain node {self.name}"
                    ) from None
            if index + 1 >= len(route):
                raise RuntimeError(
                    f"packet {packet.packet_id} reached the end of its source "
                    f"route at {self.name} but is destined to {packet.dst}"
                )
            packet.route_cursor = index + 1
            return route[index + 1]
        return self.network.routing.next_hop(self.name, packet.dst)

    def _resolve_port(self, packet: Packet) -> "OutputPort":
        """Output port for a packet the forwarding table could not answer.

        Source-routed packets follow their route and never enter the table;
        a table-routed destination is resolved once and remembered.
        """
        next_hop = self.next_hop_for(packet)
        port = self.ports.get(next_hop)
        if port is None:
            raise KeyError(f"{self.name} has no port towards {next_hop}")
        if not packet.route:
            self.forwarding[packet.dst] = port
        return port

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name}>"


class Router(Node):
    """A store-and-forward router: receives a packet, picks an output port, queues it."""

    def receive(self, packet: Packet) -> None:
        packet.hops += (self.name, self.sim.now, None, None)
        port = None if packet.route else self.forwarding.get(packet.dst)
        if port is None:
            port = self._resolve_port(packet)
        port.enqueue(packet)


class Host(Node):
    """An end host: injects packets into the network and consumes delivered ones.

    Transport agents (UDP sources, TCP senders/receivers) register per-flow
    delivery callbacks with :meth:`register_receiver`; packets for flows with
    no registered receiver are only reported to the tracer (pure sink).
    """

    def __init__(self, sim: "Simulator", name: str, network: "Network") -> None:
        super().__init__(sim, name, network)
        self._receivers: Dict[int, Callable[[Packet], None]] = {}

    def register_receiver(self, flow_id: int, callback: Callable[[Packet], None]) -> None:
        """Deliver packets of ``flow_id`` arriving at this host to ``callback``."""
        self._receivers[flow_id] = callback

    def send(self, packet: Packet) -> None:
        """Inject a packet into the network.

        The injection time is recorded as the packet's ingress time ``i(p)``;
        the packet then competes for the host's access link like any other
        packet (this is what paces flows at the end-host NIC rate).
        """
        now = self.sim.now
        if packet.ingress_time is None:
            packet.ingress_time = now
        packet.hops += (self.name, now, None, None)

        slack_policy = self.network.slack_policy
        if slack_policy is not None:
            slack_policy.on_packet_sent(packet, now)

        self.network.notify_ingress(packet)
        port = None if packet.route else self.forwarding.get(packet.dst)
        if port is None:
            port = self._resolve_port(packet)
        port.enqueue(packet)

    def receive(self, packet: Packet) -> None:
        if packet.dst != self.name:
            # A host never forwards traffic; a misrouted packet is a bug in
            # the routing layer and should fail loudly.
            raise RuntimeError(
                f"host {self.name} received packet {packet.packet_id} destined "
                f"to {packet.dst}"
            )
        packet.egress_time = self.sim.now
        self.network.notify_egress(packet)
        callback = self._receivers.get(packet.flow_id)
        if callback is not None:
            callback(packet)
