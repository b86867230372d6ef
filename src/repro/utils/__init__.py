"""Shared utilities: unit conversions, RNG management, and statistics helpers.

These are small, dependency-free building blocks used across the simulator,
the replay framework, and the experiment harness.
"""

from repro.utils.units import (
    BITS_PER_BYTE,
    GBPS,
    KBPS,
    MBPS,
    MICROSECONDS,
    MILLISECONDS,
    NANOSECONDS,
    bits,
    bytes_from_bits,
    gbps,
    kbps,
    mbps,
    microseconds,
    milliseconds,
    transmission_delay,
)
from repro.utils.registry import Registry
from repro.utils.rng import RandomState, spawn_rng
from repro.utils.stats import (
    OnlineStats,
    Summary,
    ccdf_points,
    cdf_points,
    jain_fairness_index,
    percentile,
    summarize,
    weighted_mean,
)

__all__ = [
    "BITS_PER_BYTE",
    "GBPS",
    "KBPS",
    "MBPS",
    "MICROSECONDS",
    "MILLISECONDS",
    "NANOSECONDS",
    "bits",
    "bytes_from_bits",
    "gbps",
    "kbps",
    "mbps",
    "microseconds",
    "milliseconds",
    "transmission_delay",
    "Registry",
    "RandomState",
    "spawn_rng",
    "OnlineStats",
    "Summary",
    "ccdf_points",
    "cdf_points",
    "jain_fairness_index",
    "percentile",
    "summarize",
    "weighted_mean",
]
