"""Packet model with dynamic packet state.

The paper's UPS model allows the scheduler to carry information in packet
headers and to rewrite it at every hop ("dynamic packet state").  The
:class:`PacketHeader` below holds every header field used by any scheduler in
this library (slack for LSTF, a static priority, the omniscient per-hop output
time vector, flow-size information for SJF/SRPT, accumulated queueing delay
for FIFO+), and the :class:`Packet` additionally carries the bookkeeping the
tracer needs (per-hop timing records).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from collections import deque

from repro.utils.stats import left_sum


class PacketType(enum.Enum):
    """Kind of packet: transport data or transport acknowledgement."""

    DATA = "data"
    ACK = "ack"


@dataclass(slots=True)
class HopRecord:
    """Timing of one packet at one node (used for traces and replay analysis).

    Attributes:
        node: Name of the node.
        arrival_time: When the last bit of the packet arrived at the node.
        start_service_time: When the node began transmitting the packet on its
            output port (i.e. when the packet was dequeued by the scheduler).
        departure_time: When the last bit left the node
            (``start_service_time`` + transmission delay).
    """

    node: str
    arrival_time: float
    start_service_time: Optional[float] = None
    departure_time: Optional[float] = None

    @property
    def queueing_delay(self) -> float:
        """Time the packet spent waiting in the node's output queue."""
        if self.start_service_time is None:
            return 0.0
        return self.start_service_time - self.arrival_time


@dataclass(slots=True)
class PacketHeader:
    """Mutable header fields readable and writable by schedulers.

    Only the fields relevant to the scheduler actually deployed are used in a
    given simulation; the rest stay at their defaults.

    Attributes:
        slack: Remaining slack in seconds (LSTF dynamic packet state).
        priority: Static priority value (lower = more urgent) used by simple
            priority scheduling and by the SJF heuristic.
        deadline: Target network output time ``o(p)`` (used by network-wide
            EDF and by priority-based replay).
        hop_output_times: Omniscient initialization: the per-hop output times
            ``o(p, alpha_i)`` popped one entry per congestion point.
        flow_size_bytes: Total size of the packet's flow (SJF).
        remaining_flow_bytes: Bytes of the flow still unsent when this packet
            was transmitted by the source (SRPT).
        accumulated_wait: Total queueing delay experienced so far (FIFO+).
    """

    slack: Optional[float] = None
    priority: Optional[float] = None
    deadline: Optional[float] = None
    hop_output_times: Optional[Deque[float]] = None
    flow_size_bytes: Optional[float] = None
    remaining_flow_bytes: Optional[float] = None
    accumulated_wait: float = 0.0

    def copy(self) -> "PacketHeader":
        """Deep-enough copy (the per-hop vector is duplicated)."""
        return PacketHeader(
            slack=self.slack,
            priority=self.priority,
            deadline=self.deadline,
            hop_output_times=(
                deque(self.hop_output_times)
                if self.hop_output_times is not None
                else None
            ),
            flow_size_bytes=self.flow_size_bytes,
            remaining_flow_bytes=self.remaining_flow_bytes,
            accumulated_wait=self.accumulated_wait,
        )


def reset_packet_ids() -> None:
    """No-op shim: ids come from ``Simulator.packet_ids``; there is nothing to reset.

    The frozen ``benchmarks/perf/run.py`` imports this name by path; ROADMAP
    item 1 deletes it together with that import.
    """


@dataclass(eq=False, slots=True)
class Packet:
    """A network packet.

    Packets are mutable objects with identity semantics: equality and hashing
    are by object identity (``eq=False``), so packets can be held in sets and
    compared with ``is`` even as schedulers rewrite their headers.  The class
    is slotted (as are :class:`PacketHeader` and :class:`HopRecord`): packets
    are the hot-path allocation of every simulation, and slots cut both the
    per-packet memory footprint and attribute-access time.

    Attributes:
        packet_id: Identity of the packet (keyword-only, required): the next
            value of its simulator's ``packet_ids`` for a packet a transport
            emits, the recorded id for a packet a replay injects.
        flow_id: Identifier of the flow the packet belongs to.
        src: Name of the source host.
        dst: Name of the destination host.
        size_bytes: Packet size in bytes (headers included; we do not model
            header overhead separately).
        seq: Transport sequence number (byte offset of the first payload byte).
        ptype: Data or ACK.
        header: Scheduler-visible dynamic packet state.
        route: Optional explicit source route (list of node names from source
            host to destination host).  When set, routers follow it instead of
            their routing tables; the replay engine uses this to pin packets to
            the paths they took in the original schedule.
    """

    flow_id: int
    src: str
    dst: str
    size_bytes: float
    seq: int = 0
    ptype: PacketType = PacketType.DATA
    header: PacketHeader = field(default_factory=PacketHeader)
    route: Optional[List[str]] = None
    packet_id: int = field(kw_only=True)
    #: Weight of the packet's flow for weighted fair queueing (1.0 = equal).
    flow_weight: float = 1.0
    #: Absolute completion deadline of the packet's flow (``None`` = none).
    #: Distinct from ``header.deadline``, which replay initializers rewrite;
    #: this field is bookkeeping recorded into schedules for deadline-aware
    #: replay evaluation.
    flow_deadline: Optional[float] = None

    # --- bookkeeping (not visible to schedulers in the formal model) ---
    #: Index into ``route`` of the node currently expected to forward this
    #: packet.  Advanced by ``Node.next_hop_for`` so each hop costs O(1)
    #: instead of an O(path) ``list.index`` scan; purely an optimization
    #: hint — a mismatch falls back to the scan.
    route_cursor: int = 0
    ingress_time: Optional[float] = None
    egress_time: Optional[float] = None
    dropped: bool = False
    drop_node: Optional[str] = None
    hops: List[HopRecord] = field(default_factory=list)
    remaining_tx_bytes: Optional[float] = None  # set while preempted mid-transmission

    @property
    def is_ack(self) -> bool:
        """Whether this is a transport acknowledgement packet."""
        return self.ptype is PacketType.ACK

    @property
    def path_taken(self) -> List[str]:
        """Names of the nodes the packet has visited so far (from hop records)."""
        return [hop.node for hop in self.hops]

    @property
    def total_queueing_delay(self) -> float:
        """Sum of per-hop queueing delays experienced so far."""
        return left_sum(hop.queueing_delay for hop in self.hops)

    @property
    def end_to_end_delay(self) -> Optional[float]:
        """Network latency (egress minus ingress), or ``None`` if still in flight."""
        if self.ingress_time is None or self.egress_time is None:
            return None
        return self.egress_time - self.ingress_time

    def record_arrival(self, node: str, time: float) -> HopRecord:
        """Append a hop record for arrival at ``node`` at ``time``."""
        record = HopRecord(node=node, arrival_time=time)
        self.hops.append(record)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Packet id={self.packet_id} flow={self.flow_id} {self.src}->{self.dst} "
            f"{self.size_bytes}B seq={self.seq} {self.ptype.value}>"
        )
