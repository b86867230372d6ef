"""First-In-First-Out scheduling (the baseline drop-tail queue)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.schedulers.base import Scheduler
from repro.sim.packet import Packet


class FifoScheduler(Scheduler):
    """Serve packets strictly in arrival order."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[Packet] = deque()
        self._bytes = 0.0

    def enqueue(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)
        self._bytes += packet.size_bytes

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        return packet

    def remove(self, packet: Packet) -> bool:
        for index, queued in enumerate(self._queue):
            if queued.packet_id == packet.packet_id:
                del self._queue[index]
                self._bytes -= packet.size_bytes
                return True
        return False

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_count(self) -> float:
        """Total bytes currently queued."""
        return self._bytes
