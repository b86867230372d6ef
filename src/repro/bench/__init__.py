"""Rows digest used by ``benchmarks/perf`` (:mod:`repro.bench.harness`)."""
