"""Random-number-generation helpers.

All stochastic components in the library (traffic generators, random
schedulers, topology generators) take an explicit random source so that
experiments are reproducible.  ``RandomState`` wraps :class:`numpy.random
.Generator` with the handful of distributions we need and keeps a record of
the seed used.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

import numpy as np


def stable_seed(*parts) -> int:
    """A deterministic 31-bit seed derived from arbitrary labels.

    The same labels map to the same seed on every platform and in every
    process, without any shared RNG stream: seed replicates derive their
    per-cell seeds from ``(base seed, scenario, replicate)``, fault plans
    their per-link substreams from ``(fault seed, fault index, link)``.
    """
    blob = json.dumps([str(part) for part in parts])
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


class RandomState:
    """A seeded random source with the distributions used by the library.

    Args:
        seed: Seed for the underlying PCG64 generator.  ``None`` draws a
            nondeterministic seed from the OS; experiments should always pass
            an explicit seed.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._generator = np.random.default_rng(seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator`."""
        return self._generator

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw a single uniform sample from ``[low, high)``."""
        return float(self._generator.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """Draw an exponential sample with the given mean (seconds, sizes, ...)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self._generator.exponential(mean))

    def randint(self, low: int, high: int) -> int:
        """Draw a single integer uniformly from ``[low, high)``."""
        return int(self._generator.integers(low, high))

    def choice(self, items: Sequence):
        """Pick one element uniformly at random from a non-empty sequence."""
        if len(items) == 0:
            raise ValueError("cannot choose from an empty sequence")
        index = int(self._generator.integers(0, len(items)))
        return items[index]

    def spawn(self) -> "RandomState":
        """Create an independent child generator (for per-component streams)."""
        child_seed = int(self._generator.integers(0, 2**63 - 1))
        return RandomState(child_seed)


def spawn_rng(rng: Optional[RandomState], default_seed: int = 0) -> RandomState:
    """Return ``rng`` if given, otherwise a fresh seeded :class:`RandomState`."""
    if rng is None:
        return RandomState(default_seed)
    return rng
