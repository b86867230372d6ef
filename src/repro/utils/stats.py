"""Small statistics helpers shared by the analysis and experiment layers.

Two families live here:

* exact, list-based helpers (:func:`percentile`, :func:`summarize`, ...)
  used wherever the sample set is small enough to materialize; and
* streaming, *mergeable* accumulators (:class:`OnlineStats`,
  :class:`QuantileSketch`) used by the scale tier, where a cell folds
  millions of per-packet samples into O(1)/O(log range) state and partial
  accumulators from different shards merge into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def left_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...``, one rounded addition at a time, in order.

    Every float total that reaches a result row goes through this, never
    through builtin ``sum``: that became a compensated (Neumaier) sum in
    Python 3.12, so the same values total to a different last bit there than
    on 3.11 — and than the running ``total += value`` of the streaming
    accumulators (:class:`QuantileSketch`), which is this same left fold.
    """
    return reduce(add, values, 0.0)


class OnlineStats:
    """Streaming mean / variance / min / max accumulator (Welford's method).

    Useful when a simulation produces millions of per-packet samples and we do
    not want to hold them all in memory.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Mean of the samples seen so far (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the samples seen so far."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation of the samples seen so far."""
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator equivalent to seeing both sample streams."""
        merged = OnlineStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged


#: Two-sided 95% Student-t critical values by degrees of freedom (1-30);
#: larger samples fall back to the normal approximation (1.96).
_T_TABLE_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


@dataclass(frozen=True)
class Summary:
    """Replicate summary: sample mean, spread, and confidence half-width.

    Attributes:
        count: Number of samples.
        mean: Sample mean.
        stddev: Sample standard deviation (``ddof=1``; 0.0 for one sample).
        ci95: Half-width of the two-sided 95% confidence interval for the
            mean (Student-t for small samples); 0.0 for one sample.
    """

    count: int
    mean: float
    stddev: float
    ci95: float

    @property
    def interval(self) -> Tuple[float, float]:
        """The 95% confidence interval as ``(low, high)``."""
        return (self.mean - self.ci95, self.mean + self.ci95)


def summarize(values: Sequence[float]) -> Summary:
    """Mean / sample stddev / 95% CI half-width of replicate measurements.

    Used by the pipeline's ``--replicates`` aggregation: each experiment row
    measured under N seeds collapses to ``mean ± ci95``.  A single sample
    yields zero spread (no error bar can be inferred from one measurement).
    """
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sequence")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return Summary(count=int(arr.size), mean=mean, stddev=0.0, ci95=0.0)
    stddev = float(arr.std(ddof=1))
    t_critical = _T_TABLE_95.get(arr.size - 1, 1.96)
    ci95 = t_critical * stddev / math.sqrt(arr.size)
    return Summary(count=int(arr.size), mean=mean, stddev=stddev, ci95=ci95)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` using linear interpolation.

    Edge behavior (pinned by regression tests — :class:`QuantileSketch`'s
    accuracy contract is stated relative to this function, so these edges
    are part of the library's public contract):

    * an **empty** sequence raises :class:`ValueError` — there is no
      principled percentile of nothing, and silently returning 0.0 would
      poison downstream means;
    * ``q=0`` returns ``min(values)`` and ``q=100`` returns ``max(values)``,
      exactly (no interpolation slop);
    * a **single-element** sequence returns that element for every ``q``;
    * ``q`` outside ``[0, 100]`` raises :class:`ValueError`.

    Between order statistics the value is linearly interpolated (NumPy's
    default ``"linear"`` method), so the result always lies within the
    closed interval of the two bracketing order statistics.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(values) == 0:
        raise ValueError("cannot compute a percentile of an empty sequence")
    arr = np.asarray(values, dtype=float)
    # Pin the edges explicitly: min/max must come back bit-identical to
    # min()/max() of the inputs, never through interpolation arithmetic.
    if arr.size == 1:
        return float(arr[0])
    if q == 0:
        return float(arr.min())
    if q == 100:
        return float(arr.max())
    return float(np.percentile(arr, q))


class QuantileSketch:
    """Mergeable streaming quantile estimator with bounded *relative* error.

    A DDSketch-style logarithmic histogram: positive samples land in bin
    ``ceil(log_gamma(x))`` where ``gamma = (1 + alpha) / (1 - alpha)``, so
    every bin spans a relative width of ``alpha`` around its representative
    value.  Memory is O(log(max/min) / alpha) integer bin counts — a cell
    summarizing millions of per-packet delays holds a few hundred ints
    instead of a per-packet list.  Zero and negative samples are counted in
    dedicated buckets (network delays are non-negative; negatives are kept
    only so the sketch never silently mis-summarizes unexpected input).

    **Merge contract** (the property the shard runner builds on): merging
    adds per-bin integer counts, which is exactly commutative and
    associative — ``merge(a, b)``, ``merge(b, a)``, and a single-pass sketch
    over the concatenated stream are **bit-identical**, not merely close.

    **Accuracy contract (ε)**: for a quantile ``q`` of ``n`` samples, let
    ``x_lo <= x_hi`` be the order statistics bracketing rank
    ``q/100 * (n - 1)``.  :meth:`quantile` returns a value ``v`` with::

        x_lo * (1 - alpha) <= v <= x_hi * (1 + alpha)

    for positive samples (exact for the zero bucket).  Because
    :func:`percentile`'s linear interpolation also lies in ``[x_lo, x_hi]``,
    the sketch's answer is always within relative error ``alpha`` of *some*
    point of the interval containing the exact percentile — the bound the
    property suite asserts, including on heavy-tail inputs where the two
    bracketing order statistics are orders of magnitude apart.  ``min`` /
    ``max`` / ``count`` / ``sum`` are tracked exactly.

    Args:
        alpha: Relative-error bound (default 0.01 = 1%).
    """

    #: Default relative-error bound: 1%.
    DEFAULT_ALPHA = 0.01

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._bins: Dict[int, int] = {}
        self._negative_bins: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    # ------------------------------------------------------------------ #
    # Accumulation
    # ------------------------------------------------------------------ #
    def _bin_index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_gamma))

    def add(self, value: float) -> None:
        """Fold one sample into the sketch."""
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if value > 0.0:
            index = self._bin_index(value)
            self._bins[index] = self._bins.get(index, 0) + 1
        elif value < 0.0:
            index = self._bin_index(-value)
            self._negative_bins[index] = self._negative_bins.get(index, 0) + 1
        else:
            self.zero_count += 1

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the sketch."""
        for value in values:
            self.add(value)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """A new sketch equivalent to a single pass over both streams.

        Per-bin integer addition: exactly commutative and associative, so
        shard partials merge to the same sketch in any order.  Both sketches
        must share one ``alpha`` (bins would not line up otherwise).
        """
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} != {other.alpha})"
            )
        merged = QuantileSketch(self.alpha)
        for source in (self, other):
            for index, count in source._bins.items():
                merged._bins[index] = merged._bins.get(index, 0) + count
            for index, count in source._negative_bins.items():
                merged._negative_bins[index] = merged._negative_bins.get(index, 0) + count
        merged.zero_count = self.zero_count + other.zero_count
        merged.count = self.count + other.count
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        merged.total = self.total + other.total
        return merged

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        """Exact mean of the samples seen so far (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def _representative(self, index: int) -> float:
        # Midpoint (in value space) of bin (gamma^(i-1), gamma^i]: within
        # relative error alpha of every sample the bin holds.
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) estimate under the ε contract.

        ``q=0`` and ``q=100`` return the exact tracked minimum / maximum.

        Raises:
            ValueError: empty sketch, or ``q`` outside ``[0, 100]`` —
                mirroring :func:`percentile`'s pinned edge behavior.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            raise ValueError("cannot compute a percentile of an empty sketch")
        if q == 0:
            return self.minimum
        if q == 100:
            return self.maximum
        # Target the same rank convention as numpy's linear interpolation:
        # rank q/100 * (n-1), rounded to the nearest integer order statistic
        # (the sketch cannot interpolate within a bin anyway).
        rank = int(round(q / 100.0 * (self.count - 1)))
        seen = 0
        for index in sorted(self._negative_bins, reverse=True):
            seen += self._negative_bins[index]
            if seen > rank:
                return max(-self._representative(index), self.minimum)
        seen += self.zero_count
        if seen > rank:
            return 0.0
        for index in sorted(self._bins):
            seen += self._bins[index]
            if seen > rank:
                # Clamp to the exact extremes so the estimate can never
                # leave the sample range.
                return min(max(self._representative(index), self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - defensive (counts exhausted)

    # ------------------------------------------------------------------ #
    # Serialization (shard partials cross process boundaries as dicts)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable form (lossless; bins keyed by stringified index)."""
        return {
            "alpha": self.alpha,
            "bins": {str(index): count for index, count in sorted(self._bins.items())},
            "negative_bins": {
                str(index): count for index, count in sorted(self._negative_bins.items())
            },
            "zero_count": self.zero_count,
            "count": self.count,
            "minimum": self.minimum if self.count else None,
            "maximum": self.maximum if self.count else None,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        """Inverse of :meth:`to_dict`."""
        sketch = cls(alpha=data["alpha"])
        sketch._bins = {int(index): count for index, count in data["bins"].items()}
        sketch._negative_bins = {
            int(index): count for index, count in data["negative_bins"].items()
        }
        sketch.zero_count = data["zero_count"]
        sketch.count = data["count"]
        if sketch.count:
            sketch.minimum = data["minimum"]
            sketch.maximum = data["maximum"]
        sketch.total = data["total"]
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<QuantileSketch alpha={self.alpha} count={self.count} "
            f"bins={len(self._bins) + len(self._negative_bins)}>"
        )


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted arithmetic mean of ``values``."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if len(values) == 0:
        raise ValueError("cannot average an empty sequence")
    total_weight = float(np.sum(weights))
    if total_weight <= 0:
        raise ValueError("total weight must be positive")
    return float(np.dot(values, weights) / total_weight)


def jain_fairness_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index of a set of allocations.

    Defined as ``(sum x_i)^2 / (n * sum x_i^2)``; equals 1.0 when all
    allocations are equal and approaches ``1/n`` when a single user receives
    everything.  An empty or all-zero allocation vector returns 0.0.
    """
    arr = np.asarray(allocations, dtype=float)
    if arr.size == 0:
        return 0.0
    peak = float(np.abs(arr).max())
    if peak == 0.0:
        return 0.0
    # The index is scale-invariant; normalizing by the largest allocation
    # keeps the squares away from floating-point underflow (tiny subnormal
    # allocations would otherwise square to garbage and push the index
    # outside [1/n, 1]).
    arr = arr / peak
    total = arr.sum()
    sum_of_squares = float(np.dot(arr, arr))
    if sum_of_squares == 0.0:
        return 0.0
    return float(total * total / (arr.size * sum_of_squares))


def cdf_points(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Empirical CDF of ``values`` as ``(sorted_values, cumulative_fractions)``."""
    if len(values) == 0:
        return [], []
    sorted_values = np.sort(np.asarray(values, dtype=float))
    fractions = np.arange(1, sorted_values.size + 1) / sorted_values.size
    return sorted_values.tolist(), fractions.tolist()


def ccdf_points(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Empirical complementary CDF (survival function) of ``values``."""
    xs, cdf = cdf_points(values)
    return xs, [1.0 - f for f in cdf]
