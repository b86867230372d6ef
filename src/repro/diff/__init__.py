"""First-divergence schedule comparison and differential fuzzing.

``repro.diff`` is the debugging layer for the bit-identity contract: when
two schedules that should be identical are not, it answers *which packet
diverged first, in which field, on which port, and in what company* —
instead of a bare digest mismatch.

Two halves:

* :mod:`repro.diff.comparator` — the deterministic comparator.
  :func:`first_divergence` walks two schedules in canonical
  ``(ingress_time, packet_id)`` order and stops at the first packet whose
  record differs, reporting field-level diffs plus the K packets that
  preceded it on the divergent port in each schedule.
* :mod:`repro.diff.fuzz` — the differential fuzz harness.
  :func:`run_fuzz` sweeps seeded random scenarios through every available
  backend pair plus live-vs-replay twins, asserts bit-identity with the
  comparator, and shrinks any failure to a minimal JSON artifact that
  ``python -m repro diff --case`` re-runs.

Exposed at the CLI as ``python -m repro diff`` and ``python -m repro
fuzz``; see ``docs/diff.md``.
"""

from repro.diff.comparator import first_divergence
from repro.diff.fuzz import load_case, run_comparison, run_fuzz

__all__ = ["first_divergence", "load_case", "run_comparison", "run_fuzz"]
