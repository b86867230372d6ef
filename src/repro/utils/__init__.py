"""Shared utilities: unit conversions, RNG management, and statistics helpers.

These are small, dependency-free building blocks used across the simulator,
the replay framework, and the experiment harness.
"""

import contextlib
import gc
import typing

from repro.utils.units import mbps

__all__ = ["mbps", "paused_gc"]


@contextlib.contextmanager
def paused_gc() -> typing.Iterator[None]:
    """Pause the cycle collector around a burst of acyclic allocations (decoded
    packets, rows, heap tuples): they only make it rescan an ever-growing live
    set, and refcounting still frees them.  The collector's earlier state,
    enabled or disabled, is restored on the way out, also when the block
    raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
