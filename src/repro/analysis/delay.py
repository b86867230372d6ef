"""Per-packet delay statistics (Figure 3's metric)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.sim.packet import Packet, PacketType
from repro.utils.stats import ccdf_points, left_sum, percentile


@dataclass
class DelayStatistics:
    """Summary of a packet-delay distribution."""

    count: int
    mean: float
    p50: float
    p99: float
    p999: float
    maximum: float


def packet_delays(packets: Iterable[Packet], data_only: bool = True) -> List[float]:
    """End-to-end delays of delivered packets (seconds)."""
    delays: List[float] = []
    for packet in packets:
        if data_only and packet.ptype is not PacketType.DATA:
            continue
        delay = packet.end_to_end_delay
        if delay is not None:
            delays.append(delay)
    return delays


def queueing_delays(packets: Iterable[Packet], data_only: bool = True) -> List[float]:
    """Total queueing delays of delivered packets (seconds)."""
    result: List[float] = []
    for packet in packets:
        if data_only and packet.ptype is not PacketType.DATA:
            continue
        if packet.egress_time is not None:
            result.append(packet.total_queueing_delay)
    return result


def delay_statistics(packets: Iterable[Packet], data_only: bool = True) -> DelayStatistics:
    """Mean / median / tail percentiles of packet delay."""
    delays = packet_delays(packets, data_only=data_only)
    if not delays:
        return DelayStatistics(count=0, mean=0.0, p50=0.0, p99=0.0, p999=0.0, maximum=0.0)
    return DelayStatistics(
        count=len(delays),
        mean=left_sum(delays) / len(delays),
        p50=percentile(delays, 50),
        p99=percentile(delays, 99),
        p999=percentile(delays, 99.9),
        maximum=max(delays),
    )


def delay_ccdf(
    packets: Iterable[Packet], data_only: bool = True
) -> Tuple[List[float], List[float]]:
    """Complementary CDF of packet delay (the curve plotted in Figure 3)."""
    return ccdf_points(packet_delays(packets, data_only=data_only))
