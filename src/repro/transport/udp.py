"""Open-loop UDP transport.

The replay experiments (Section 2.3) and the tail-latency experiment
(Section 3.2) use UDP flows: the application hands every packet of a flow to
the source host at the flow's start time and the host's access link paces
them onto the network.  There is no feedback, so the offered load is
identical across scheduling policies — exactly the property the paper relies
on when comparing "the in-network packet-level behaviour across the two
scheduling policies".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.sim.flow import Flow
from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.network import Network


class UdpSink:
    """Destination-side bookkeeping for one UDP flow."""

    def __init__(self, sim: "Simulator", flow: Flow) -> None:
        self.sim = sim
        self.flow = flow
        self.bytes_received = 0.0

    def on_packet(self, packet: Packet) -> None:
        """Record delivery of one data packet; mark the flow complete at the end."""
        self.bytes_received += packet.size_bytes
        self.flow.packets_delivered += 1
        self.flow.bytes_delivered += packet.size_bytes
        if (
            self.flow.completion_time is None
            and self.bytes_received >= self.flow.size_bytes
        ):
            self.flow.completion_time = self.sim.now


class UdpSource:
    """Source-side UDP agent: emits every packet of the flow at its start time."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        flow: Flow,
    ) -> None:
        self.sim = sim
        self.network = network
        self.flow = flow
        self.sink = UdpSink(sim, flow)
        self._started = False

    def start(self) -> None:
        """Number the flow and schedule its packets to be injected at ``flow.start_time``."""
        if self._started:
            raise RuntimeError(f"UDP source for flow {self.flow.flow_id} already started")
        self._started = True
        self.flow.flow_id = next(self.sim.flow_ids)
        self.network.host(self.flow.dst).register_receiver(
            self.flow.flow_id, self.sink.on_packet
        )
        delay = max(0.0, self.flow.start_time - self.sim.now)
        self.sim.schedule(delay, self._emit_packets)

    def _emit_packets(self) -> None:
        host = self.network.host(self.flow.src)
        sizes = self.flow.packet_sizes()
        remaining = self.flow.size_bytes
        packet_ids = self.sim.packet_ids
        if self.flow.first_packet_time is None:
            self.flow.first_packet_time = self.sim.now
        for index, size in enumerate(sizes):
            packet = Packet(
                flow_id=self.flow.flow_id,
                src=self.flow.src,
                dst=self.flow.dst,
                size_bytes=size,
                seq=index,
                ptype=PacketType.DATA,
                packet_id=next(packet_ids),
            )
            packet.header.flow_size_bytes = self.flow.size_bytes
            packet.header.remaining_flow_bytes = remaining
            packet.flow_deadline = self.flow.deadline
            remaining -= size
            self.flow.bytes_sent += size
            self.flow.packets_sent += 1
            host.send(packet)


def start_udp_flow(sim: "Simulator", network: "Network", flow: Flow) -> UdpSource:
    """Create and start a UDP source for ``flow``; returns the source agent."""
    source = UdpSource(sim, network, flow)
    source.start()
    return source
