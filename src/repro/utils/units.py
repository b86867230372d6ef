"""Unit conventions and conversion helpers.

Conventions used throughout the library:

* **Time** is measured in seconds (floats).
* **Bandwidth** is measured in bits per second.
* **Packet and flow sizes** are measured in bytes.

Keeping a single convention avoids the classic network-simulator bug class of
mixing bits and bytes or milliseconds and seconds.  All public APIs accept and
return values in these units; the helpers below exist to make call sites
readable (``gbps(10)`` instead of ``10e9``).
"""

from __future__ import annotations

#: Number of bits in one byte.
BITS_PER_BYTE = 8

#: One megabit per second, expressed in bits per second.
MBPS = 1e6
#: One gigabit per second, expressed in bits per second.
GBPS = 1e9

#: One millisecond, expressed in seconds.
MILLISECONDS = 1e-3
#: One microsecond, expressed in seconds.
MICROSECONDS = 1e-6
#: One nanosecond, expressed in seconds.
NANOSECONDS = 1e-9


def mbps(value: float) -> float:
    """Convert a value in megabits per second to bits per second."""
    return value * MBPS


def gbps(value: float) -> float:
    """Convert a value in gigabits per second to bits per second."""
    return value * GBPS


def milliseconds(value: float) -> float:
    """Convert a value in milliseconds to seconds."""
    return value * MILLISECONDS


def microseconds(value: float) -> float:
    """Convert a value in microseconds to seconds."""
    return value * MICROSECONDS


def bits(size_bytes: float) -> float:
    """Convert a size in bytes to a size in bits."""
    return size_bytes * BITS_PER_BYTE


def transmission_delay(size_bytes: float, bandwidth_bps: float) -> float:
    """Time (seconds) to serialize ``size_bytes`` onto a link of ``bandwidth_bps``.

    This is the store-and-forward transmission delay ``T(p, alpha)`` used in
    the paper's formal model.

    Raises:
        ValueError: if the bandwidth is not strictly positive or the size is
            negative.
    """
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    return bits(size_bytes) / bandwidth_bps
