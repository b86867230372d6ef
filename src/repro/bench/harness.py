"""The rows digest: a content hash of an experiment's output rows.

``benchmarks/perf`` (the repository's one benchmark, see ``BENCHMARK.json``)
fingerprints every workload's rows with it and checks the fingerprint
against ``benchmarks/perf/golden.json``, so a "speedup" that changes
results is caught by the same harness that measures it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence


def rows_digest(rows: Sequence[dict]) -> str:
    """Content hash of an experiment's output rows (order-sensitive).

    Canonical JSON (sorted keys, no whitespace) so the digest is stable
    across processes and invocations; ``repr``-based float serialization
    makes it sensitive to any bit-level change in the results.
    """
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
