"""Fair queueing.

:class:`FairQueueingScheduler` is Self-Clocked Fair Queueing (SCFQ), a
virtual-finish-time approximation of the bit-by-bit round robin of Demers,
Keshav and Shenker [SIGCOMM 1989] that the paper uses as its fairness
reference.

SCFQ maintains one virtual finish tag per flow: an arriving packet gets
``finish = max(virtual_time, flow_last_finish) + size / weight`` and packets
are served in increasing finish-tag order; the port's virtual time is the
finish tag of the packet most recently selected for service.
"""

from __future__ import annotations

from typing import Dict

from repro.schedulers.base import PriorityScheduler
from repro.sim.packet import Packet


class FairQueueingScheduler(PriorityScheduler):
    """Self-clocked fair queueing (per-flow max-min fair bandwidth sharing)."""

    def __init__(self) -> None:
        super().__init__()
        self._virtual_time = 0.0
        self._flow_finish_tags: Dict[int, float] = {}
        self._packet_finish_tags: Dict[int, float] = {}

    def key(self, packet: Packet, enqueue_time: float, now: float) -> float:
        weight = max(self._flow_weight(packet), 1e-12)
        start_tag = max(self._virtual_time, self._flow_finish_tags.get(packet.flow_id, 0.0))
        finish_tag = start_tag + packet.size_bytes / weight
        self._flow_finish_tags[packet.flow_id] = finish_tag
        self._packet_finish_tags[packet.packet_id] = finish_tag
        return finish_tag

    @staticmethod
    def _flow_weight(packet: Packet) -> float:
        """Relative weight of the packet's flow (1.0 unless set by the workload)."""
        return float(packet.flow_weight)

    def on_dequeue(self, packet: Packet, enqueue_time: float, now: float) -> None:
        # Advance the virtual clock to the finish tag of the packet entering
        # service (not the flow's latest tag, which for a deeply backlogged
        # flow would race the clock ahead and starve competing flows); this is
        # the "self-clocked" part of SCFQ.  The clock is monotonically
        # non-decreasing and never reset, which is safe because arriving
        # packets tag themselves relative to the current clock value.
        finish_tag = self._packet_finish_tags.pop(packet.packet_id, None)
        if finish_tag is not None:
            self._virtual_time = max(self._virtual_time, finish_tag)
