"""Flow-completion-time statistics (Figure 2's metric)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sim.flow import Flow
from repro.utils.stats import left_sum


@dataclass
class FctBucket:
    """Mean FCT of flows whose size falls in ``[low_bytes, high_bytes)``."""

    low_bytes: float
    high_bytes: float
    count: int
    mean_fct: float

    @property
    def label(self) -> str:
        """Human-readable bucket label (upper bound in bytes, like the paper's x-axis)."""
        if self.high_bytes == float("inf"):
            return f">{int(self.low_bytes)}"
        return str(int(self.high_bytes))


def completed_flows(flows: Iterable[Flow]) -> List[Flow]:
    """Only the flows that finished (have a completion time)."""
    return [flow for flow in flows if flow.completed]


def mean_fct(flows: Iterable[Flow]) -> Optional[float]:
    """Mean flow completion time over completed flows (``None`` if none completed)."""
    fcts = [flow.fct for flow in flows if flow.fct is not None]
    if not fcts:
        return None
    return left_sum(fcts) / len(fcts)


def fct_by_flow_size(
    flows: Iterable[Flow],
    bucket_edges: Sequence[float],
) -> List[FctBucket]:
    """Mean FCT bucketed by flow size.

    Args:
        flows: Flows to analyse (incomplete flows are skipped).
        bucket_edges: Ascending flow-size boundaries in bytes; an implicit
            final bucket collects everything above the last edge.
    """
    edges = list(bucket_edges)
    if edges != sorted(edges):
        raise ValueError("bucket edges must be ascending")
    bounds: List[Tuple[float, float]] = []
    low = 0.0
    for edge in edges:
        bounds.append((low, edge))
        low = edge
    bounds.append((low, float("inf")))

    buckets: List[FctBucket] = []
    done = completed_flows(flows)
    for low, high in bounds:
        members = [flow for flow in done if low <= flow.size_bytes < high]
        if members:
            bucket_mean = left_sum(flow.fct for flow in members) / len(members)
        else:
            bucket_mean = 0.0
        buckets.append(
            FctBucket(low_bytes=low, high_bytes=high, count=len(members), mean_fct=bucket_mean)
        )
    return buckets


#: Flow-size bucket edges (bytes) matching the x-axis of the paper's Figure 2.
PAPER_FCT_BUCKET_EDGES = [1460, 2920, 4380, 7300, 10220, 58400, 105120, 2e5, 1e6, 3e6]
