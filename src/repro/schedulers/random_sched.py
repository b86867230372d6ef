"""Random scheduling.

The paper's default "hard case" original schedule: at every service
opportunity the router picks a uniformly random packet from its queue.  The
resulting schedules are completely arbitrary, which is exactly what makes
them a stress test for LSTF replay.
"""

from __future__ import annotations

from typing import List, Optional

from repro.schedulers.base import QueueEntry, Scheduler
from repro.sim.packet import Packet
from repro.utils.rng import RandomState, spawn_rng


class RandomScheduler(Scheduler):
    """Serve a uniformly random queued packet at each service opportunity."""

    def __init__(self, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        self._rng = spawn_rng(rng)
        self._queue: List[QueueEntry] = []
        self._bytes = 0.0

    def enqueue(self, packet: Packet, now: float) -> None:
        self._queue.append(QueueEntry(packet, now))
        self._bytes += packet.size_bytes

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        # ``integers(0, 1)`` consumes nothing from the bit generator, so a lone
        # packet skips the numpy call and the stream stays bit-identical.
        index = self._rng.randint(0, len(self._queue)) if len(self._queue) > 1 else 0
        entry = self._queue.pop(index)
        self._bytes -= entry.packet.size_bytes
        return entry.packet

    def remove(self, packet: Packet) -> bool:
        for index, entry in enumerate(self._queue):
            if entry.packet.packet_id == packet.packet_id:
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
