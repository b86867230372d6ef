"""Rows digest used by ``benchmarks/perf`` (:mod:`repro.bench.harness`)."""

from repro.bench.harness import rows_digest

__all__ = ["rows_digest"]
