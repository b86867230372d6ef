"""Fairness analysis: per-flow throughput over time and Jain's index (Figure 4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.packet import Packet, PacketType
from repro.utils.stats import jain_fairness_index


@dataclass
class FairnessTimeseries:
    """Jain's fairness index sampled once per time bin.

    Attributes:
        bin_width: Width of each bin in seconds.
        times: Right edge of each bin.
        index: Jain's fairness index of per-flow throughput within each bin.
    """

    bin_width: float
    times: List[float]
    index: List[float]

    def final_index(self) -> float:
        """Fairness index in the last bin (the "did it converge" number)."""
        return self.index[-1] if self.index else 0.0

    def time_to_reach(self, target: float) -> Optional[float]:
        """Earliest bin edge at which the index reaches ``target`` (or ``None``)."""
        for time, value in zip(self.times, self.index):
            if value >= target:
                return time
        return None


def per_flow_bytes_in_bins(
    packets: Iterable[Packet],
    bin_width: float,
    end_time: float,
    flow_ids: Optional[Sequence[int]] = None,
) -> Dict[int, List[float]]:
    """Bytes delivered per flow per time bin, keyed by flow id.

    Only data packets count; delivery time is the packet's egress time.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    num_bins = max(1, int(round(end_time / bin_width)))
    byte_bins: Dict[int, List[float]] = {}
    if flow_ids is not None:
        for flow_id in flow_ids:
            byte_bins[flow_id] = [0.0] * num_bins
    for packet in packets:
        if packet.ptype is not PacketType.DATA or packet.egress_time is None:
            continue
        if flow_ids is not None and packet.flow_id not in byte_bins:
            continue
        index = min(num_bins - 1, int(packet.egress_time / bin_width))
        byte_bins.setdefault(packet.flow_id, [0.0] * num_bins)[index] += packet.size_bytes
    return byte_bins


def fairness_timeseries(
    packets: Iterable[Packet],
    bin_width: float,
    end_time: float,
    flow_ids: Optional[Sequence[int]] = None,
) -> FairnessTimeseries:
    """Jain's fairness index of per-flow throughput, computed per time bin.

    Matches the paper's Figure 4 methodology: "fairness computed using Jain's
    Fairness Index, from the throughput each flow receives per millisecond",
    over the set of flows expected to share the network (``flow_ids``).
    Flows that have not yet started simply contribute zero throughput, which
    is why the index only reaches 1.0 after every flow is active.
    """
    byte_bins = per_flow_bytes_in_bins(packets, bin_width, end_time, flow_ids=flow_ids)
    if not byte_bins:
        return FairnessTimeseries(bin_width=bin_width, times=[], index=[])
    num_bins = len(next(iter(byte_bins.values())))
    times: List[float] = []
    index: List[float] = []
    for bin_index in range(num_bins):
        allocations = [bins[bin_index] for bins in byte_bins.values()]
        times.append((bin_index + 1) * bin_width)
        index.append(jain_fairness_index(allocations))
    return FairnessTimeseries(bin_width=bin_width, times=times, index=index)
