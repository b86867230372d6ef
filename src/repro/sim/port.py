"""Output port: the queue + transmitter attached to each directed link.

A port owns exactly one :class:`~repro.schedulers.base.Scheduler` and one
:class:`~repro.sim.link.Link`.  It implements the store-and-forward,
non-preemptive transmission loop used throughout the paper's model:

1. Arriving packets are handed to the scheduler (possibly dropping a packet
   if the buffer is finite and full).
2. When the transmitter is idle, the scheduler picks the next packet; the
   port serializes it for ``size / bandwidth`` seconds.
3. When the last bit has been transmitted the packet is handed to the link,
   which delivers it to the downstream node after the propagation delay.

Preemption (used only by the preemptive-LSTF ablation) aborts an in-flight
transmission, re-queues the remaining bytes, and lets the scheduler pick
again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event
from repro.sim.link import Link
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import Scheduler
    from repro.sim.engine import Simulator
    from repro.sim.node import Node


class OutputPort:
    """Transmission queue for one unidirectional link.

    Args:
        sim: The simulation engine.
        node: The node that owns this port.
        link: The outgoing link served by this port.
        scheduler: Packet scheduler deciding service order.
        buffer_bytes: Buffer capacity in bytes; ``None`` means infinite (the
            paper's replay experiments use effectively infinite buffers so
            that no packet is dropped).
    """

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        link: Link,
        scheduler: "Scheduler",
        buffer_bytes: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.link = link
        self.scheduler = scheduler
        self.buffer_bytes = buffer_bytes
        scheduler.attach(self)

        # Hot-path caches: the transmission loop runs once per packet per
        # hop, so link parameters are hoisted out of the per-packet path
        # here (the float math itself is kept bit-identical to
        # Link.transmission_delay: ``bytes * 8 / bandwidth``).  The
        # destination node is resolved lazily on first transmission because
        # ports are built while the topology is still being wired.
        self._link_bandwidth = link.bandwidth_bps
        self._link_propagation = link.propagation_delay
        self._dst_receive = None

        # The transmitter is busy exactly while a packet is in flight.
        self._current_packet: Optional[Packet] = None
        self._current_started: Optional[float] = None
        self._finish_event: Optional[Event] = None
        # Fault-injection hook (repro.faults): a PortFaultState while a
        # fault plan is installed on this port's link, else None.  The None
        # check is the only fault-layer cost on the fault-free hot path.
        self.fault_state = None

    # ------------------------------------------------------------------ #
    # Enqueue / drop
    # ------------------------------------------------------------------ #
    def enqueue(self, packet: Packet) -> None:
        """Accept a packet for transmission on this port."""
        now = self.sim.now
        scheduler = self.scheduler
        buffer_bytes = self.buffer_bytes
        if buffer_bytes is not None and (
            scheduler.byte_count + packet.size_bytes > buffer_bytes
        ):
            victim = scheduler.choose_drop(packet, now)
            if victim is not packet:
                removed = scheduler.remove(victim)
                if not removed:
                    # The victim could not be located (defensive path); fall
                    # back to dropping the arriving packet.
                    victim = packet
            if victim is packet:
                self._drop(packet)
                return
            self._drop(victim)

        scheduler.enqueue(packet, now)
        if self._current_packet is None:
            self._start_next()
        elif scheduler.preemptive and scheduler.should_preempt(
            self._current_packet, self._current_started, now
        ):
            self._preempt_current()
            self._start_next()

    def _drop(self, packet: Packet) -> None:
        packet.dropped = True
        packet.drop_node = self.node.name
        self.node.notify_drop(packet, self)

    # ------------------------------------------------------------------ #
    # Transmission loop
    # ------------------------------------------------------------------ #
    def _start_next(self) -> None:
        """Begin transmitting the scheduler's next packet, or go idle.

        Sets every transmitter field on both outcomes, so callers never reset
        them first.
        """
        sim = self.sim
        now = sim.now
        fault_state = self.fault_state
        if fault_state is not None and fault_state.down:
            # Link outage: hold the queue; fault_resume() restarts service.
            packet = None
        else:
            packet = self.scheduler.dequeue(now)
        if packet is None:
            self._current_packet = None
            self._current_started = None
            self._finish_event = None
            return

        hops = packet.hops
        if hops:
            hop = hops[-1]
            if hop.start_service_time is None:
                hop.start_service_time = now
                # Accumulate the queueing delay experienced at this node into
                # the packet header; FIFO+ prioritizes on this value at later
                # hops.
                packet.header.accumulated_wait += now - hop.arrival_time

        remaining = packet.remaining_tx_bytes
        tx_bytes = remaining if remaining is not None else packet.size_bytes
        tx_delay = tx_bytes * 8 / self._link_bandwidth

        self._current_packet = packet
        self._current_started = now
        self._finish_event = sim.schedule(tx_delay, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        packet.remaining_tx_bytes = None
        sim = self.sim
        now = sim.now
        hops = packet.hops
        if hops:
            hops[-1].departure_time = now

        fault_state = self.fault_state
        if fault_state is not None and fault_state.intercepts(packet, now):
            # Jamming/loss semantics (Böhm et al.): the transmission time was
            # spent, but the packet is destroyed instead of propagating.
            self._drop(packet)
        else:
            # Deliver after the propagation delay; the downstream node
            # receives the packet fully assembled (store-and-forward).
            receive = self._dst_receive
            if receive is None:
                receive = self._dst_receive = self.node.network.nodes[self.link.dst].receive
            sim.post(self._link_propagation, receive, packet)

        self._start_next()

    # ------------------------------------------------------------------ #
    # Fault-injection hooks (repro.faults)
    # ------------------------------------------------------------------ #
    def fault_interrupt(self) -> None:
        """Abort the in-flight transmission, if any, because the link went down.

        Unlike :meth:`_preempt_current`, the interrupted packet is *lost*
        (its bits were on a link that just failed), not requeued.
        """
        packet = self._current_packet
        if packet is None or self._finish_event is None:
            return
        self.sim.cancel(self._finish_event)
        packet.remaining_tx_bytes = None
        self._drop(packet)
        self._current_packet = None
        self._current_started = None
        self._finish_event = None

    def fault_resume(self) -> None:
        """Resume service after the link came back up."""
        if self._current_packet is None:
            self._start_next()

    def _preempt_current(self) -> None:
        """Abort the in-flight transmission and requeue its remaining bytes."""
        packet = self._current_packet
        if packet is None or self._finish_event is None or self._current_started is None:
            return
        self.sim.cancel(self._finish_event)
        elapsed = self.sim.now - self._current_started
        total_bytes = (
            packet.remaining_tx_bytes
            if packet.remaining_tx_bytes is not None
            else packet.size_bytes
        )
        sent_bytes = elapsed * self._link_bandwidth / 8.0
        packet.remaining_tx_bytes = max(0.0, total_bytes - sent_bytes)
        # The packet goes back to the queue; its hop record will get a new
        # service-start time when it is next selected.
        if packet.hops:
            packet.hops[-1].start_service_time = None
        self.scheduler.enqueue(packet, self.sim.now)
        self._current_packet = None
        self._current_started = None
        self._finish_event = None
