"""Scheduler interface and shared helpers.

Every output port of every node owns one :class:`Scheduler` instance.  The
scheduler decides (a) the order in which queued packets are transmitted,
(b) which packet to drop when a finite buffer overflows, and (c) how to
rewrite dynamic packet state (e.g. the LSTF slack) when a packet is selected
for transmission.

The interface is deliberately small so that the port logic
(:mod:`repro.sim.port`) stays scheduler-agnostic, mirroring the paper's model
in which the only per-router freedom is the scheduling logic itself.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from heapq import heappop, heappush
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.sim.port import OutputPort


class Scheduler(ABC):
    """Base class for per-port packet schedulers."""

    #: Whether the port may preempt an in-flight transmission when a more
    #: urgent packet arrives.  Only the preemptive LSTF variant sets this.
    preemptive: bool = False

    def __init__(self) -> None:
        self._port: Optional["OutputPort"] = None
        #: Outgoing-link rate, cached at attach time so per-enqueue key
        #: functions (LSTF, EDF) compute transmission delays without walking
        #: ``port.link`` for every packet.  ``None`` until attached.
        self._link_bandwidth: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, port: "OutputPort") -> None:
        """Bind the scheduler to the output port that owns it."""
        self._port = port
        self._link_bandwidth = port.link.bandwidth_bps

    @property
    def port(self) -> Optional["OutputPort"]:
        """The output port this scheduler is attached to (if any)."""
        return self._port

    # ------------------------------------------------------------------ #
    # Queue operations
    # ------------------------------------------------------------------ #
    @abstractmethod
    def enqueue(self, packet: Packet, now: float) -> None:
        """Add ``packet`` to the queue at simulation time ``now``."""

    @abstractmethod
    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the next packet to transmit, or ``None`` if empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of packets currently queued."""

    @property
    @abstractmethod
    def byte_count(self) -> float:
        """Total bytes currently queued."""

    def remove(self, packet: Packet) -> bool:
        """Remove a specific queued packet (used by drop policies).

        Returns ``True`` if the packet was found and removed.  The default
        implementation raises; schedulers that support buffer-overflow victim
        selection must override it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support removing arbitrary packets"
        )

    # ------------------------------------------------------------------ #
    # Drop policy
    # ------------------------------------------------------------------ #
    def choose_drop(self, arriving: Packet, now: float) -> Packet:
        """Pick the packet to drop when the buffer cannot admit ``arriving``.

        The default policy is drop-tail (drop the arriving packet).  LSTF
        overrides this to drop the packet with the most remaining slack, per
        Section 3 of the paper.
        """
        return arriving

    # ------------------------------------------------------------------ #
    # Preemption (only used when ``preemptive`` is True)
    # ------------------------------------------------------------------ #
    def should_preempt(
        self, in_flight: Packet, in_flight_started: float, now: float
    ) -> bool:
        """Whether the port should abort the in-flight transmission.

        Only consulted when :attr:`preemptive` is ``True`` and a new packet
        has just been enqueued while the port is busy.
        """
        return False


class QueueEntry:
    """A queued packet paired with its enqueue time."""

    __slots__ = ("packet", "enqueue_time")

    def __init__(self, packet: Packet, enqueue_time: float) -> None:
        self.packet = packet
        self.enqueue_time = enqueue_time


class PriorityScheduler(Scheduler):
    """Shared implementation for schedulers that order packets by a scalar key.

    Subclasses implement :meth:`key`, which maps a packet (and its enqueue
    time) to a sort key; the packet with the *smallest* key is transmitted
    first.  Ties are broken FIFO (by enqueue sequence), which matches the
    tie-breaking assumption used in the paper's EDF/LSTF equivalence proof.
    """

    def __init__(self) -> None:
        super().__init__()
        # Entries are (key, sequence, packet, enqueue_time): plain tuples, so
        # an enqueue allocates nothing but the entry itself.
        self._heap: List[Tuple[float, int, Packet, float]] = []
        self._sequence = itertools.count()
        self._bytes = 0.0
        self._removed: Set[int] = set()
        # Ids of packets currently queued (heap entries not marked removed).
        # Makes membership checks and arbitrary removals O(1) with lazy heap
        # deletion; relies on packet ids being unique per simulation and on
        # removed (dropped) packets never being re-enqueued — a stale heap
        # entry for a re-enqueued id could otherwise swallow the live one.
        self._queued_ids: Set[int] = set()

    @abstractmethod
    def key(self, packet: Packet, enqueue_time: float, now: float) -> float:
        """Sort key for ``packet``; smaller keys are served first."""

    def enqueue(self, packet: Packet, now: float) -> None:
        heappush(self._heap, (self.key(packet, now, now), next(self._sequence), packet, now))
        self._bytes += packet.size_bytes
        self._queued_ids.add(packet.packet_id)

    def dequeue(self, now: float) -> Optional[Packet]:
        heap = self._heap
        if self._removed:
            self._discard_removed()
        if not heap:
            return None
        _, _, packet, enqueue_time = heappop(heap)
        self._queued_ids.discard(packet.packet_id)
        self._bytes -= packet.size_bytes
        if not self._queued_ids:
            # Guard against float drift: summing and subtracting many packet
            # sizes accumulates rounding error, so an empty queue could
            # otherwise report a tiny non-zero byte count (and a finite
            # buffer would slowly "shrink").  Empty queue == exactly zero.
            self._bytes = 0.0
        self.on_dequeue(packet, enqueue_time, now)
        return packet

    def on_dequeue(self, packet: Packet, enqueue_time: float, now: float) -> None:
        """Hook for dynamic-packet-state updates; default is a no-op."""

    def peek(self, now: float) -> Optional[Packet]:
        """The packet that would be returned by :meth:`dequeue`, without removing it."""
        self._discard_removed()
        if not self._heap:
            return None
        return self._heap[0][2]

    def peek_entry(self) -> Optional[QueueEntry]:
        """The queue entry at the head of the heap (packet + enqueue time)."""
        self._discard_removed()
        if not self._heap:
            return None
        _, _, packet, enqueue_time = self._heap[0]
        return QueueEntry(packet, enqueue_time)

    def _discard_removed(self) -> None:
        """Pop lazily deleted entries off the heap head."""
        heap = self._heap
        removed = self._removed
        while heap and heap[0][2].packet_id in removed:
            removed.discard(heappop(heap)[2].packet_id)

    def remove(self, packet: Packet) -> bool:
        """Remove a queued packet in O(1) (lazy heap deletion).

        Membership is checked against the queued-id index, so drop policies
        pay constant time instead of scanning the heap; the entry itself is
        discarded when it reaches the heap top.
        """
        packet_id = packet.packet_id
        if packet_id not in self._queued_ids:
            return False
        self._queued_ids.discard(packet_id)
        self._removed.add(packet_id)
        self._bytes -= packet.size_bytes
        if not self._queued_ids:
            self._bytes = 0.0
        return True

    def queued_packets(self) -> List[Packet]:
        """Snapshot of queued packets (order unspecified); used by drop policies."""
        return [
            packet
            for _, _, packet, _ in self._heap
            if packet.packet_id not in self._removed
        ]

    def queued_entries(self) -> List[QueueEntry]:
        """Snapshot of queue entries (order unspecified)."""
        return [
            QueueEntry(packet, enqueue_time)
            for _, _, packet, enqueue_time in self._heap
            if packet.packet_id not in self._removed
        ]

    def __len__(self) -> int:
        return len(self._queued_ids)

    @property
    def byte_count(self) -> float:
        """Total bytes currently queued (maintained incrementally)."""
        return self._bytes
