"""Trace collection: every packet's ingress, egress, path, and per-hop timing.

The tracer is the bridge between the simulator substrate and the replay
framework: the original run's tracer output is converted into a
:class:`repro.core.schedule.Schedule`, which the replay engine then tries to
reproduce with LSTF (or simple priorities).
"""

from __future__ import annotations

from typing import List

from repro.sim.packet import Packet, PacketType


class Tracer:
    """Collects packets as they enter, leave, or are dropped by the network."""

    def __init__(self) -> None:
        self.sent: List[Packet] = []
        self.delivered: List[Packet] = []
        self.dropped: List[Packet] = []

    # ------------------------------------------------------------------ #
    # Hooks called by the network
    # ------------------------------------------------------------------ #
    def on_ingress(self, packet: Packet) -> None:
        """A packet was injected by a host."""
        self.sent.append(packet)

    def on_egress(self, packet: Packet) -> None:
        """A packet was fully received by its destination host."""
        self.delivered.append(packet)

    def on_drop(self, packet: Packet) -> None:
        """A packet was dropped at a full buffer."""
        self.dropped.append(packet)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def delivered_data_packets(self) -> List[Packet]:
        """Delivered packets excluding transport acknowledgements."""
        return [p for p in self.delivered if p.ptype is PacketType.DATA]

    def reset(self) -> None:
        """Clear all recorded packets."""
        self.sent.clear()
        self.delivered.clear()
        self.dropped.clear()
