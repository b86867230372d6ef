"""On-disk bench payloads (``repro-bench/1``) and the regression gate.

A bench payload is the JSON written to ``BENCH_*.json`` at the repo root: the
current measurements, optionally the baseline they are compared against
(e.g. the numbers measured on the commit before an optimization PR), and the
resulting speedups.  The regression gate (:func:`find_regressions`) is what
CI's bench smoke job runs: it fails a build whose wall times regressed beyond
a soft threshold versus the committed numbers, and separately surfaces rows
digests that drifted (a determinism warning rather than a hard timing
failure, since digests — unlike the golden-rows pytest, which runs both
sides on one machine — may legitimately differ across platforms with
different libm rounding).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.bench.harness import BenchReport

#: Format tag of bench payload files.
BENCH_FORMAT = "repro-bench/1"

#: Soft regression threshold: fail when wall time exceeds the reference by
#: more than this fraction (0.25 = 25% slower).
DEFAULT_MAX_SLOWDOWN = 0.25


def speedup_vs_baseline(
    current: BenchReport, baseline_results: Dict[str, dict]
) -> Dict[str, Dict[str, float]]:
    """Per-experiment speedup factors of ``current`` over a baseline.

    ``{"table1": {"wall_time": 1.8, "events_per_sec": 1.8}}`` means the
    current run is 1.8x faster in wall time.  Experiments missing from
    either side are skipped.
    """
    speedups: Dict[str, Dict[str, float]] = {}
    for name, bench in current.results.items():
        reference = baseline_results.get(name)
        if not reference:
            continue
        entry: Dict[str, float] = {}
        if bench.wall_time > 0 and reference.get("wall_time"):
            entry["wall_time"] = reference["wall_time"] / bench.wall_time
        if reference.get("events_per_sec"):
            entry["events_per_sec"] = bench.events_per_sec / reference["events_per_sec"]
        if entry:
            speedups[name] = entry
    return speedups


#: Replay-path speedup the optimization work aims for, and the floor the
#: acceptance gate falls back to when Python-side dispatch dominates.
REPLAY_PATH_TARGET_SPEEDUP = 10.0
REPLAY_PATH_FLOOR_SPEEDUP = 4.0


def _replay_path_gap_note(backend_name: str, ratio: float) -> str:
    """Why ``backend_name`` lands below the 10x target, per its profile.

    The analysis is per backend because the remaining wall time lives in
    different places: the vectorized backend still pays interpreter dispatch
    in its event loop, while the compiled backend's loop is native and its
    gap (if any) is the Python-side orchestration around it.
    """
    if backend_name == "compiled":
        return (
            f"at {ratio:.2f}x of the {REPLAY_PATH_TARGET_SPEEDUP:.0f}x target: "
            "the event loop itself is native (repro.sim._kernel) and its "
            "output arrays are wrapped as the replayed schedule's columns, "
            "so what remains is the numpy flatten/header precompute before "
            "the loop and the list<->C conversion around it."
        )
    return (
        f"below the {REPLAY_PATH_TARGET_SPEEDUP:.0f}x target: Python-side "
        "dispatch dominates the remaining wall time — per-event heap pops "
        "and scheduler-key tuple comparisons run in the interpreter; the "
        "vectorized backend batches the per-hop float math (numpy) but "
        "event ordering is inherently sequential. The compiled backend "
        "removes the interpreter from the loop entirely. Acceptance falls "
        f"back to the {REPLAY_PATH_FLOOR_SPEEDUP:.0f}x floor."
    )


def _replay_path_summary(report: BenchReport) -> Optional[dict]:
    """Cross-backend replay-engine comparison, when the report carries one.

    Looks for the ``table1:replay@python`` reference group plus any
    ``table1:replay@<backend>`` candidate groups (see
    :func:`repro.bench.harness.bench_replay_path`) and summarizes each
    events/s ratio against the 10x target / 4x floor, with the per-backend
    gap analysis in ``notes`` when the target is missed and the backend's
    build metadata (compiler, toolchain) when it reports any.
    """
    reference = report.results.get("table1:replay@python")
    candidates = {
        name: bench
        for name, bench in report.results.items()
        if name.startswith("table1:replay@") and name != "table1:replay@python"
    }
    if reference is None or not candidates or reference.events_per_sec <= 0:
        return None
    summary: dict = {
        "reference": "table1:replay@python",
        "target_speedup": REPLAY_PATH_TARGET_SPEEDUP,
        "floor_speedup": REPLAY_PATH_FLOOR_SPEEDUP,
        "backends": {},
    }
    for name, bench in candidates.items():
        ratio = bench.events_per_sec / reference.events_per_sec
        entry = {
            "events_per_sec_ratio": ratio,
            "rows_bit_identical": bench.rows_digest == reference.rows_digest,
        }
        backend_name = name.split("@", 1)[1]
        build = _backend_build_info(backend_name)
        if build is not None:
            entry["build"] = build
        if ratio < REPLAY_PATH_TARGET_SPEEDUP:
            entry["notes"] = _replay_path_gap_note(backend_name, ratio)
        summary["backends"][name] = entry
    return summary


def _backend_build_info(backend_name: str) -> Optional[dict]:
    """Build metadata of a measured backend (``None`` when it has none).

    Resolved defensively: a payload assembled from a loaded report may name
    backends this process cannot resolve, which must not break payload
    assembly.
    """
    from repro.pipeline.scenario import PipelineConfigError
    from repro.sim.backend import get_backend

    try:
        return get_backend(backend_name).build_info()
    except PipelineConfigError:
        return None


def bench_payload(
    report: BenchReport,
    label: Optional[str] = None,
    baseline: Optional[dict] = None,
    baseline_label: Optional[str] = None,
) -> dict:
    """Assemble the JSON payload for a ``BENCH_*.json`` file.

    Args:
        report: The current measurements.
        label: Free-form tag for this run (e.g. ``"PR3"``).
        baseline: A previously saved payload (or bare ``results`` mapping)
            to embed as the comparison baseline.
        baseline_label: Overrides the embedded baseline's label.
    """
    payload = {
        "format": BENCH_FORMAT,
        "label": label,
        "python": platform.python_version(),
        "platform": sys.platform,
        **report.to_dict(),
    }
    replay_path = _replay_path_summary(report)
    if replay_path is not None:
        payload["replay_path"] = replay_path
    if baseline is not None:
        baseline_results = baseline.get("results", baseline)
        payload["baseline"] = {
            "label": baseline_label or baseline.get("label"),
            "results": baseline_results,
        }
        payload["speedup_vs_baseline"] = speedup_vs_baseline(report, baseline_results)
    return payload


def save_bench(path: Union[str, "os.PathLike"], payload: dict) -> None:
    """Write a bench payload as pretty-printed JSON (trailing newline)."""
    with open(os.fspath(path), "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")


def load_bench(path: Union[str, "os.PathLike"]) -> dict:
    """Load a bench payload written by :func:`save_bench`.

    Raises:
        ValueError: if the file is not a ``repro-bench/1`` payload.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    if payload.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{os.fspath(path)}: not a {BENCH_FORMAT} file "
            f"(format={payload.get('format')!r})"
        )
    return payload


@dataclass(frozen=True)
class Regression:
    """One experiment whose wall time regressed beyond the threshold."""

    experiment: str
    wall_time: float
    reference_wall_time: float

    @property
    def slowdown(self) -> float:
        """Fractional slowdown versus the reference (0.30 = 30% slower)."""
        return self.wall_time / self.reference_wall_time - 1.0

    def describe(self) -> str:
        return (
            f"{self.experiment}: {self.wall_time:.3f}s vs reference "
            f"{self.reference_wall_time:.3f}s ({self.slowdown:+.0%})"
        )


def find_regressions(
    current: BenchReport,
    reference: dict,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> Tuple[List[Regression], List[str]]:
    """Compare a bench run against reference numbers.

    Args:
        current: The just-measured report.
        reference: A bench payload (or bare ``results`` mapping) to compare
            against — typically the committed ``BENCH_*.json``.
        max_slowdown: Allowed fractional wall-time slowdown per experiment.

    Returns:
        ``(regressions, digest_mismatches)``: experiments slower than
        ``reference * (1 + max_slowdown)``, and experiments whose rows
        digest differs from the reference (determinism drift — reported
        separately so callers can warn instead of fail).
    """
    reference_results = reference.get("results", reference)
    regressions: List[Regression] = []
    digest_mismatches: List[str] = []
    for name, bench in current.results.items():
        entry = reference_results.get(name)
        if not entry:
            continue
        reference_wall = entry.get("wall_time")
        if reference_wall and bench.wall_time > reference_wall * (1.0 + max_slowdown):
            regressions.append(
                Regression(
                    experiment=name,
                    wall_time=bench.wall_time,
                    reference_wall_time=reference_wall,
                )
            )
        reference_digest = entry.get("rows_digest")
        if reference_digest and bench.rows_digest != reference_digest:
            digest_mismatches.append(
                f"{name}: rows digest {bench.rows_digest} != reference "
                f"{reference_digest}"
            )
    return regressions, digest_mismatches
