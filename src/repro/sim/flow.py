"""Flow model: a unidirectional transfer of bytes between two hosts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


def reset_flow_ids() -> None:
    """No-op shim: ids come from ``Simulator.flow_ids``; there is nothing to reset.

    The frozen ``benchmarks/perf/run.py`` imports this name by path; ROADMAP
    item 1 deletes it together with that import.
    """


#: Default maximum segment size in bytes (Ethernet MTU minus typical headers).
DEFAULT_MSS = 1460


@dataclass(eq=False)
class Flow:
    """A flow: ``size_bytes`` to move from ``src`` to ``dst`` starting at ``start_time``.

    Flows are mutable bookkeeping objects with identity semantics (``eq=False``),
    so they can be collected in sets and dictionaries while the transport layer
    updates their progress counters.

    The transport layer (UDP or TCP) segments the flow into packets of at most
    ``mss`` bytes and is responsible for updating the completion bookkeeping.

    Attributes:
        src: Source host name.
        dst: Destination host name.
        size_bytes: Total number of application bytes to transfer.
        start_time: Simulation time at which the flow becomes active.
        mss: Maximum segment size used when packetizing the flow.
        weight: Relative weight for weighted-fairness experiments.
        deadline: Absolute simulation time by which the flow should finish
            (``None`` = no deadline).  Set by deadline-tagging workload
            perturbations; carried onto every packet of the flow so replay
            evaluation can report deadline-met fractions.
        flow_id: ``None`` until a transport starts the flow on a simulator,
            which numbers it from that simulator's ``flow_ids``.
    """

    src: str
    dst: str
    size_bytes: float
    start_time: float
    mss: int = DEFAULT_MSS
    weight: float = 1.0
    deadline: Optional[float] = None
    flow_id: Optional[int] = None

    # --- progress bookkeeping maintained by the transport layer ---
    bytes_sent: float = 0.0
    bytes_delivered: float = 0.0
    bytes_acked: float = 0.0
    completion_time: Optional[float] = None
    first_packet_time: Optional[float] = None
    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    retransmissions: int = 0

    @property
    def num_packets(self) -> int:
        """Number of data packets needed to carry the flow at its MSS."""
        if self.size_bytes <= 0:
            return 0
        return int(math.ceil(self.size_bytes / self.mss))

    @property
    def completed(self) -> bool:
        """Whether every byte of the flow has been delivered to the receiver."""
        return self.completion_time is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time (delivery of last byte minus flow start)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time

    def packet_sizes(self) -> list:
        """Sizes of the data packets that carry this flow, in order."""
        if self.size_bytes <= 0:
            return []
        full_packets = int(self.size_bytes // self.mss)
        sizes = [float(self.mss)] * full_packets
        remainder = self.size_bytes - full_packets * self.mss
        if remainder > 0:
            sizes.append(float(remainder))
        return sizes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Flow id={self.flow_id} {self.src}->{self.dst} "
            f"{self.size_bytes}B start={self.start_time:.6f}>"
        )
