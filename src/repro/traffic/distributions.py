"""Flow-size distributions.

The paper draws flow sizes "from a heavy-tailed distribution [4, 5]" — i.e.
the empirically observed pattern that most flows are short while most *bytes*
belong to a few long flows.  We provide:

* :class:`BoundedParetoSize` — the standard analytic heavy-tail model.
* :class:`EmpiricalSize` — a discrete distribution over (size, probability)
  points; :func:`web_search_workload` and :func:`data_mining_workload` give
  mixtures shaped like the datacenter workloads used by pFabric.
* :class:`ConstantSize` — a fixed size, the light-tailed control tests use.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from repro.utils.rng import RandomState
from repro.utils.stats import left_sum


class FlowSizeDistribution(ABC):
    """Interface for flow-size generators (sizes in bytes)."""

    #: Family label shown by ``python -m repro list --workloads``.
    kind: str = ""

    @abstractmethod
    def sample(self, rng: RandomState) -> float:
        """Draw one flow size in bytes."""

    @abstractmethod
    def mean(self) -> float:
        """Expected flow size in bytes (used for utilization targeting)."""


class ConstantSize(FlowSizeDistribution):
    """Every flow has exactly ``size_bytes`` bytes."""

    kind = "constant"

    def __init__(self, size_bytes: float) -> None:
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {size_bytes}")
        self.size_bytes = float(size_bytes)

    def sample(self, rng: RandomState) -> float:
        return self.size_bytes

    def mean(self) -> float:
        return self.size_bytes


class BoundedParetoSize(FlowSizeDistribution):
    """Bounded Pareto distribution: heavy tail with a hard maximum.

    Args:
        alpha: Tail index; smaller values give heavier tails (typical
            measurements are around 1.1-1.4).
        minimum_bytes: Smallest possible flow.
        maximum_bytes: Largest possible flow.
    """

    kind = "bounded-pareto"

    def __init__(
        self,
        alpha: float = 1.2,
        minimum_bytes: float = 1460.0,
        maximum_bytes: float = 10e6,
    ) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if minimum_bytes <= 0 or maximum_bytes <= minimum_bytes:
            raise ValueError("need 0 < minimum_bytes < maximum_bytes")
        self.alpha = alpha
        self.minimum_bytes = float(minimum_bytes)
        self.maximum_bytes = float(maximum_bytes)

    def sample(self, rng: RandomState) -> float:
        # Inverse-CDF sampling of the bounded Pareto.
        low, high, alpha = self.minimum_bytes, self.maximum_bytes, self.alpha
        u = rng.uniform(0.0, 1.0)
        ratio = (low / high) ** alpha
        value = low / (1.0 - u * (1.0 - ratio)) ** (1.0 / alpha)
        return min(high, max(low, value))

    def mean(self) -> float:
        low, high, alpha = self.minimum_bytes, self.maximum_bytes, self.alpha
        if math.isclose(alpha, 1.0):
            return low * math.log(high / low) / (1.0 - low / high)
        numerator = (low**alpha) * alpha / (alpha - 1.0)
        return numerator * (low ** (1.0 - alpha) - high ** (1.0 - alpha)) / (
            1.0 - (low / high) ** alpha
        )


class EmpiricalSize(FlowSizeDistribution):
    """Discrete flow-size distribution over (size_bytes, probability) points."""

    kind = "empirical"

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if not points:
            raise ValueError("need at least one (size, probability) point")
        total = left_sum(probability for _, probability in points)
        if total <= 0:
            raise ValueError("probabilities must sum to a positive value")
        self.sizes: List[float] = [float(size) for size, _ in points]
        self.probabilities: List[float] = [probability / total for _, probability in points]
        if any(size <= 0 for size in self.sizes):
            raise ValueError("flow sizes must be positive")

    def sample(self, rng: RandomState) -> float:
        u = rng.uniform(0.0, 1.0)
        cumulative = 0.0
        for size, probability in zip(self.sizes, self.probabilities):
            cumulative += probability
            if u <= cumulative:
                return size
        return self.sizes[-1]

    def mean(self) -> float:
        return left_sum(s * p for s, p in zip(self.sizes, self.probabilities))


_KB = 1e3
_MB = 1e6

#: (size_bytes, probability) points of the web-search flow-size mixture.
WEB_SEARCH_POINTS: Tuple[Tuple[float, float], ...] = (
    (6 * _KB, 0.15),
    (13 * _KB, 0.20),
    (19 * _KB, 0.15),
    (33 * _KB, 0.10),
    (53 * _KB, 0.08),
    (133 * _KB, 0.08),
    (667 * _KB, 0.08),
    (1.3 * _MB, 0.06),
    (3.3 * _MB, 0.05),
    (6.7 * _MB, 0.03),
    (20 * _MB, 0.02),
)

#: (size_bytes, probability) points of the data-mining flow-size mixture.
DATA_MINING_POINTS: Tuple[Tuple[float, float], ...] = (
    (1.5 * _KB, 0.50),
    (3 * _KB, 0.15),
    (10 * _KB, 0.12),
    (30 * _KB, 0.08),
    (100 * _KB, 0.05),
    (1 * _MB, 0.04),
    (10 * _MB, 0.04),
    (100 * _MB, 0.02),
)


def web_search_workload() -> EmpiricalSize:
    """Heavy-tailed flow-size mixture shaped like the web-search workload.

    Roughly 60% of flows are under 100 KB but the tail (flows of 1-30 MB)
    carries most of the bytes, which is the property the paper's SJF/SRPT
    comparison depends on.
    """
    return EmpiricalSize(WEB_SEARCH_POINTS)


def data_mining_workload() -> EmpiricalSize:
    """Flow-size mixture shaped like the data-mining workload (even heavier tail)."""
    return EmpiricalSize(DATA_MINING_POINTS)


def paper_default_workload() -> BoundedParetoSize:
    """The default heavy-tailed distribution used by the replay experiments.

    A bounded Pareto with tail index 1.2 between 1.5 KB and 3 MB: small enough
    that short simulations finish, heavy-tailed enough that the slack skew
    phenomena (SJF/LIFO replay difficulty) appear.
    """
    return BoundedParetoSize(alpha=1.2, minimum_bytes=1460.0, maximum_bytes=3e6)
