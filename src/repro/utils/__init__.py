"""Shared utilities: unit conversions, RNG management, and statistics helpers.

These are small, dependency-free building blocks used across the simulator,
the replay framework, and the experiment harness.
"""

from repro.utils.units import mbps

__all__ = ["mbps"]
