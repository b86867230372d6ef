"""Simplified TCP transport.

The flow-completion-time and fairness experiments (Sections 3.1 and 3.3)
need a closed-loop transport that reacts to congestion: slow start, additive
increase / multiplicative decrease, duplicate-ACK fast retransmit, and a
retransmission timeout.  The goal is not protocol fidelity (the paper used
stock ns-2 TCP) but the qualitative feedback loop — the scheduler decides
which flow's packets drain first and TCP translates that into flow-level
throughput and completion times.

Implementation notes:

* Sequence numbers are packet indices (0 .. num_packets-1); ACKs carry the
  cumulative next-expected index in their ``seq`` field.
* ACK packets are 40 bytes and travel through the same simulated network,
  competing for reverse-path bandwidth.
* The congestion window is maintained in packets (floats, so additive
  increase of 1/cwnd per ACK works naturally).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.sim.events import Event
from repro.sim.flow import Flow
from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

#: Size of an acknowledgement packet in bytes.
ACK_SIZE_BYTES = 40.0

#: Initial congestion window (packets), per modern TCP defaults.
INITIAL_CWND = 2.0

#: Initial slow-start threshold (packets).
INITIAL_SSTHRESH = 64.0

#: Number of duplicate ACKs that triggers a fast retransmit.
DUPACK_THRESHOLD = 3

#: Lower bound on the retransmission timeout (seconds).
MIN_RTO = 1e-3

#: Initial RTO before any RTT sample has been taken (seconds).
INITIAL_RTO = 50e-3


class TcpReceiver:
    """Receiver half of the simplified TCP: delivers data, emits cumulative ACKs."""

    def __init__(self, sim: "Simulator", network: "Network", flow: Flow) -> None:
        self.sim = sim
        self.network = network
        self.flow = flow
        self.received: Set[int] = set()
        self.next_expected = 0

    def on_packet(self, packet: Packet) -> None:
        """Handle an arriving data packet and send back a cumulative ACK."""
        if packet.ptype is not PacketType.DATA:
            return
        if packet.seq not in self.received:
            self.received.add(packet.seq)
            self.flow.packets_delivered += 1
            self.flow.bytes_delivered += packet.size_bytes
        while self.next_expected in self.received:
            self.next_expected += 1
        if (
            self.flow.completion_time is None
            and len(self.received) >= self.flow.num_packets
        ):
            self.flow.completion_time = self.sim.now
        self._send_ack()

    def _send_ack(self) -> None:
        ack = Packet(
            flow_id=self.flow.flow_id,
            src=self.flow.dst,
            dst=self.flow.src,
            size_bytes=ACK_SIZE_BYTES,
            seq=self.next_expected,
            ptype=PacketType.ACK,
            packet_id=next(self.sim.packet_ids),
        )
        ack.header.flow_size_bytes = self.flow.size_bytes
        self.network.host(self.flow.dst).send(ack)


class TcpSender:
    """Sender half of the simplified TCP (slow start + AIMD + fast retransmit)."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        flow: Flow,
        initial_cwnd: float = INITIAL_CWND,
        initial_ssthresh: float = INITIAL_SSTHRESH,
    ) -> None:
        self.sim = sim
        self.network = network
        self.flow = flow
        self.cwnd = initial_cwnd
        self.ssthresh = initial_ssthresh

        self.next_seq = 0  # next never-before-sent packet index
        self.highest_acked = 0  # cumulative ACK point (next expected by receiver)
        self.dupack_count = 0
        self.in_fast_recovery = False

        self._send_times: Dict[int, float] = {}
        self._srtt: Optional[float] = None
        self._rttvar: Optional[float] = None
        self._rto = INITIAL_RTO
        self._rto_event: Optional[Event] = None
        self._started = False
        self._done = False

        self._total_packets = flow.num_packets

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Number the flow, register the receiver, begin sending at ``flow.start_time``."""
        if self._started:
            raise RuntimeError(f"TCP sender for flow {self.flow.flow_id} already started")
        self._started = True
        self.flow.flow_id = next(self.sim.flow_ids)
        receiver = TcpReceiver(self.sim, self.network, self.flow)
        self.receiver = receiver
        self.network.host(self.flow.dst).register_receiver(
            self.flow.flow_id, receiver.on_packet
        )
        self.network.host(self.flow.src).register_receiver(
            self.flow.flow_id, self.on_ack
        )
        delay = max(0.0, self.flow.start_time - self.sim.now)
        self.sim.schedule(delay, self._begin)

    def _begin(self) -> None:
        if self.flow.first_packet_time is None:
            self.flow.first_packet_time = self.sim.now
        self._try_send()

    @property
    def total_packets(self) -> int:
        """Total number of data packets the flow needs."""
        return self._total_packets

    def _packet_size(self, seq: int) -> float:
        """Size in bytes of the data packet with index ``seq``."""
        remaining = self.flow.size_bytes - seq * self.flow.mss
        return float(min(self.flow.mss, max(0.0, remaining)))

    def _remaining_bytes(self, seq: int) -> float:
        """Bytes of the flow not yet sent when packet ``seq`` is transmitted."""
        return float(max(0.0, self.flow.size_bytes - seq * self.flow.mss))

    @property
    def completed(self) -> bool:
        """Whether the sender believes every packet has been cumulatively ACKed."""
        return self.highest_acked >= self.total_packets

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def _in_flight(self) -> int:
        return max(0, self.next_seq - self.highest_acked)

    def _try_send(self) -> None:
        if self._done:
            return
        window = max(1, int(math.floor(self.cwnd)))
        while self.next_seq < self.total_packets and self._in_flight() < window:
            self._transmit(self.next_seq)
            self.next_seq += 1
        self._arm_rto()

    def _transmit(self, seq: int, retransmission: bool = False) -> None:
        size = self._packet_size(seq)
        remaining = self._remaining_bytes(seq)
        packet = Packet(
            flow_id=self.flow.flow_id,
            src=self.flow.src,
            dst=self.flow.dst,
            size_bytes=size,
            seq=seq,
            ptype=PacketType.DATA,
            packet_id=next(self.sim.packet_ids),
        )
        packet.header.flow_size_bytes = self.flow.size_bytes
        packet.header.remaining_flow_bytes = remaining
        packet.flow_deadline = self.flow.deadline
        self.flow.packets_sent += 1
        if retransmission:
            self.flow.retransmissions += 1
        else:
            self.flow.bytes_sent += size
        self._send_times[seq] = self.sim.now
        self.network.host(self.flow.src).send(packet)

    # ------------------------------------------------------------------ #
    # ACK processing
    # ------------------------------------------------------------------ #
    def on_ack(self, packet: Packet) -> None:
        """Handle an arriving ACK packet at the source host."""
        if packet.ptype is not PacketType.ACK or self._done:
            return
        ack_seq = packet.seq

        if ack_seq > self.highest_acked:
            newly_acked = ack_seq - self.highest_acked
            self.highest_acked = ack_seq
            self.dupack_count = 0
            self.flow.bytes_acked = min(self.flow.size_bytes, float(ack_seq) * self.flow.mss)
            self._update_rtt(ack_seq - 1)
            if self.in_fast_recovery:
                self.cwnd = self.ssthresh
                self.in_fast_recovery = False
            else:
                for _ in range(newly_acked):
                    if self.cwnd < self.ssthresh:
                        self.cwnd += 1.0  # slow start
                    else:
                        self.cwnd += 1.0 / max(self.cwnd, 1.0)  # congestion avoidance
            if self.completed:
                self._finish()
                return
            self._arm_rto(reset=True)
            self._try_send()
        else:
            self.dupack_count += 1
            if self.dupack_count == DUPACK_THRESHOLD and not self.in_fast_recovery:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.ssthresh
        self.in_fast_recovery = True
        if self.highest_acked < self.total_packets:
            self._transmit(self.highest_acked, retransmission=True)
        self._arm_rto(reset=True)

    # ------------------------------------------------------------------ #
    # RTT estimation and timeout
    # ------------------------------------------------------------------ #
    def _update_rtt(self, seq: int) -> None:
        sent_at = self._send_times.get(seq)
        if sent_at is None:
            return
        sample = self.sim.now - sent_at
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            alpha, beta = 1.0 / 8.0, 1.0 / 4.0
            self._rttvar = (1 - beta) * self._rttvar + beta * abs(self._srtt - sample)
            self._srtt = (1 - alpha) * self._srtt + alpha * sample
        self._rto = max(MIN_RTO, self._srtt + 4.0 * self._rttvar)

    def _arm_rto(self, reset: bool = False) -> None:
        if self._done:
            return
        if self._rto_event is not None and not reset:
            return
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None
        if self._in_flight() == 0 and self.next_seq >= self.total_packets:
            return
        if self._in_flight() == 0:
            return
        self._rto_event = self.sim.schedule(self._rto, self._on_timeout)

    def _on_timeout(self) -> None:
        self._rto_event = None
        if self._done or self.completed:
            return
        # Classic timeout reaction: collapse the window and retransmit from
        # the cumulative ACK point.
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self.in_fast_recovery = False
        self.dupack_count = 0
        self.next_seq = self.highest_acked
        self._rto = min(2.0 * self._rto, 10.0)
        self._try_send()

    def _finish(self) -> None:
        self._done = True
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None


def start_tcp_flow(sim: "Simulator", network: "Network", flow: Flow) -> TcpSender:
    """Create and start a TCP sender for ``flow``; returns the sender agent."""
    sender = TcpSender(sim, network, flow)
    sender.start()
    return sender
