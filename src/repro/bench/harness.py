"""Measurement core of the bench subsystem.

Each benched experiment runs through the regular pipeline runner — serially,
with the in-memory schedule cache only — so the measurement covers exactly
the record→replay hot path a cold ``python -m repro run`` exercises: every
original schedule is recorded once and every replay cell replays it.  The
engine's process-wide event counter
(:attr:`repro.sim.engine.Simulator.events_executed_total`) is snapshotted
around each run to turn wall time into events/second, the metric the paper's
Section-5 feasibility argument is really about.

Determinism is part of the measurement: the output rows of every repeat are
content-hashed (:func:`rows_digest`) and the harness refuses to report a
number whose rows changed between repeats.  Stored digests let a later run
(or CI) detect a "speedup" that changed results.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

try:  # POSIX only; Windows has no resource module
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None

#: Experiments benched when none are named: the Table-1 matrix and the
#: adversarial scenario matrix — together they cover every scheduler, every
#: topology, and the perturbation layer.
DEFAULT_EXPERIMENTS = ("table1", "adversarial")


def peak_rss_bytes() -> Optional[int]:
    """Process-wide peak resident set size, in bytes (``None`` if unknown).

    ``ru_maxrss`` is a high-water mark for the whole process lifetime, not a
    per-measurement delta — comparable across payloads generated by separate
    ``python -m repro bench`` invocations, but monotone *within* one
    invocation (a later group can never report less than an earlier one).
    Linux reports kilobytes, macOS bytes.
    """
    if _resource is None:  # pragma: no cover - non-POSIX platform
        return None
    raw = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return int(raw) if sys.platform == "darwin" else int(raw) * 1024


def rows_digest(rows: Sequence[dict]) -> str:
    """Content hash of an experiment's output rows (order-sensitive).

    Canonical JSON (sorted keys, no whitespace) so the digest is stable
    across processes and invocations; ``repr``-based float serialization
    makes it sensitive to any bit-level change in the results.
    """
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class ExperimentBench:
    """One experiment's measurement.

    Attributes:
        experiment: Registry name of the experiment.
        wall_time: Best-of-repeats wall-clock seconds for a full cold run.
        events: Engine events executed by one run (identical across repeats).
        events_per_sec: ``events / wall_time``.
        cells: Cells the experiment expands to at the benched scale.
        cells_per_sec: ``cells / wall_time``.
        rows: Output rows produced.
        rows_digest: Content hash of the rows (determinism fingerprint).
        repeats: Wall time of every repeat, in run order.
        backend: Simulation backend the group was pinned to (``None`` =
            unpinned: each replay took the fastest available engine that
            supports its configuration).
        peak_rss_bytes: Process peak RSS observed right after the group's
            last repeat (see :func:`peak_rss_bytes` for caveats).
    """

    experiment: str
    wall_time: float
    events: int
    events_per_sec: float
    cells: int
    cells_per_sec: float
    rows: int
    rows_digest: str
    repeats: List[float] = field(default_factory=list)
    backend: Optional[str] = None
    peak_rss_bytes: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "wall_time": self.wall_time,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "cells": self.cells,
            "cells_per_sec": self.cells_per_sec,
            "rows": self.rows,
            "rows_digest": self.rows_digest,
            "repeats": list(self.repeats),
            "backend": self.backend,
            "peak_rss_bytes": self.peak_rss_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentBench":
        return cls(
            experiment=data["experiment"],
            wall_time=data["wall_time"],
            events=data["events"],
            events_per_sec=data["events_per_sec"],
            cells=data["cells"],
            cells_per_sec=data["cells_per_sec"],
            rows=data["rows"],
            rows_digest=data["rows_digest"],
            repeats=list(data.get("repeats", [])),
            backend=data.get("backend"),
            peak_rss_bytes=data.get("peak_rss_bytes"),
        )


@dataclass
class BenchReport:
    """A full bench run: per-experiment measurements plus totals."""

    scale: str
    repeat: int
    results: "OrderedDict[str, ExperimentBench]" = field(default_factory=OrderedDict)

    @property
    def wall_time_total(self) -> float:
        """Sum of the best-of-repeats wall times."""
        return sum(bench.wall_time for bench in self.results.values())

    @property
    def events_total(self) -> int:
        """Engine events executed across all benched experiments (one run each)."""
        return sum(bench.events for bench in self.results.values())

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "repeat": self.repeat,
            "wall_time_total": self.wall_time_total,
            "events_total": self.events_total,
            "results": {name: bench.to_dict() for name, bench in self.results.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        report = cls(scale=data["scale"], repeat=data["repeat"])
        for name, entry in data["results"].items():
            report.results[name] = ExperimentBench.from_dict(entry)
        return report

    def format(self) -> str:
        """Human-readable per-experiment table plus totals."""
        lines = [
            f"bench: {len(self.results)} experiment(s) at {self.scale} scale, "
            f"best of {self.repeat} repeat(s)"
        ]
        if self.results:
            name_width = max(len(name) for name in self.results)
            for name, bench in self.results.items():
                rss = (
                    f", rss {bench.peak_rss_bytes / (1 << 20):.0f}MiB"
                    if bench.peak_rss_bytes is not None
                    else ""
                )
                lines.append(
                    f"  {name:<{name_width}}  {bench.wall_time:8.3f}s  "
                    f"{bench.events_per_sec:>12,.0f} events/s  "
                    f"{bench.cells_per_sec:>6.2f} cells/s  "
                    f"({bench.cells} cells, {bench.rows} rows, "
                    f"digest {bench.rows_digest}{rss})"
                )
            lines.append(
                f"  total: {self.wall_time_total:.3f}s wall, "
                f"{self.events_total:,} engine events"
            )
        return "\n".join(lines)


def _resolve_scale(scale):
    from repro.experiments.config import ExperimentScale

    if isinstance(scale, str):
        presets = {
            "quick": ExperimentScale.quick,
            "smoke": ExperimentScale.smoke,
            "paper": ExperimentScale.paper,
        }
        return presets[scale]()
    return scale if scale is not None else ExperimentScale.quick()


def bench_experiment(
    name: str,
    scale: Union[str, object, None] = None,
    repeat: int = 1,
    backend: Optional[str] = None,
) -> ExperimentBench:
    """Measure one experiment's cold pipeline run, ``repeat`` times.

    Every repeat runs serially with a fresh in-memory cache (no disk layer),
    so each one performs the full record-once-replay-many workload.  Wall
    time is the best of the repeats; events/cells counts come from the last
    repeat and are checked to be identical across repeats via the rows
    digest.

    Raises:
        RuntimeError: if repeats disagree on the output rows — the run is
            not deterministic and its timing is meaningless.
    """
    from repro.pipeline.runner import run_pipeline
    from repro.sim.engine import Simulator

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    scale_preset = _resolve_scale(scale)
    walls: List[float] = []
    events = 0
    digest: Optional[str] = None
    cells = rows = 0
    for _ in range(repeat):
        events_before = Simulator.events_executed_total
        started = time.perf_counter()
        summary = run_pipeline(
            names=[name], scale=scale_preset, workers=1, cache_dir=None, backend=backend
        )
        walls.append(time.perf_counter() - started)
        events = Simulator.events_executed_total - events_before
        result = summary.results[name]
        current_digest = rows_digest(result.rows)
        if digest is not None and current_digest != digest:
            raise RuntimeError(
                f"experiment {name!r} produced different rows across bench "
                f"repeats ({digest} != {current_digest}); refusing to report "
                "a timing for a non-deterministic run"
            )
        digest = current_digest
        cells = summary.cells
        rows = len(result.rows)
    best = min(walls)
    return ExperimentBench(
        experiment=name,
        wall_time=best,
        events=events,
        events_per_sec=events / best if best > 0 else 0.0,
        cells=cells,
        cells_per_sec=cells / best if best > 0 else 0.0,
        rows=rows,
        rows_digest=digest or rows_digest([]),
        repeats=walls,
        backend=backend,
        peak_rss_bytes=peak_rss_bytes(),
    )


# ---------------------------------------------------------------------- #
# Replay-path bench (record once untimed, time only the replay leg)
# ---------------------------------------------------------------------- #
def available_replay_backends() -> List[str]:
    """Registered backends the replay-path bench can run here, reference first.

    A thin alias of :func:`repro.sim.backend.available_backend_names` — the
    shared enumeration also used by the fuzz harness and ``repro diff
    --replay`` — kept so bench callers and committed payloads keep their
    vocabulary: the bench measures what this environment can actually run,
    and the payloads record which backends that was.
    """
    from repro.sim.backend import available_backend_names

    return available_backend_names("lstf")


def prepare_replay_cells(
    scale: Union[str, object, None] = None,
) -> List[Tuple[object, object, object, object]]:
    """Record every Table-1 scenario's original schedule, untimed.

    Returns ``(scenario, topology, workload, schedule)`` tuples ready to be
    replayed by :func:`bench_replay_path`.  Recording always runs on the
    reference engine; preparing once and benching several backends against
    the same tuples is what makes the cross-backend events/s ratio a pure
    replay-engine comparison.
    """
    from repro.experiments.table1 import table1_scenarios
    from repro.pipeline.experiment import record_scenario_schedule
    from repro.sim.flow import reset_flow_ids
    from repro.sim.packet import reset_packet_ids

    scale_preset = _resolve_scale(scale)
    prepared = []
    for scenario in table1_scenarios(scale_preset):
        # Reset the global id counters per scenario (the same hygiene the
        # pipeline runner applies per cell): otherwise the recorded packet
        # ids — and therefore the replay-path rows digest — depend on
        # whatever ran earlier in this process, e.g. which experiment
        # groups were benched before the replay path.
        reset_packet_ids()
        reset_flow_ids()
        topology = scenario.build_topology()
        workload = scenario.workload()
        schedule = record_scenario_schedule(scenario, topology, workload)
        prepared.append((scenario, topology, workload, schedule))
    return prepared


def bench_replay_path(
    prepared: Sequence[Tuple[object, object, object, object]],
    backend: str = "python",
    repeat: int = 1,
) -> ExperimentBench:
    """Time the replay leg alone over pre-recorded Table-1 cells.

    Unlike :func:`bench_experiment` — which measures a whole cold pipeline
    run, recording included — this group times :func:`replay_schedule` and
    nothing else: recording, Table-1 metrics, and the rows digest all happen
    outside the timed region, so its events/s is the replay engine's own
    throughput.  The rows digest covers the full replayed schedules (every
    hop arrival/start/departure plus egress times), which is the
    bit-identity contract optimized backends are held to.
    """
    from repro.core.replay import replay_schedule
    from repro.sim.engine import Simulator

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    walls: List[float] = []
    events = 0
    digest: Optional[str] = None
    for _ in range(repeat):
        results = []
        events_before = Simulator.events_executed_total
        started = time.perf_counter()
        for scenario, topology, _workload, schedule in prepared:
            results.append(
                replay_schedule(
                    topology,
                    schedule,
                    mode=scenario.replay_mode,
                    backend=backend,
                )
            )
        walls.append(time.perf_counter() - started)
        events = Simulator.events_executed_total - events_before
        rows = [
            record.to_dict()
            for replayed in results
            for record in replayed.records()
        ]
        current_digest = rows_digest(rows)
        if digest is not None and current_digest != digest:
            raise RuntimeError(
                f"replay-path bench on backend {backend!r} produced different "
                f"rows across repeats ({digest} != {current_digest}); refusing "
                "to report a timing for a non-deterministic run"
            )
        digest = current_digest
    best = min(walls)
    cells = len(prepared)
    return ExperimentBench(
        experiment=f"table1:replay@{backend}",
        wall_time=best,
        events=events,
        events_per_sec=events / best if best > 0 else 0.0,
        cells=cells,
        cells_per_sec=cells / best if best > 0 else 0.0,
        rows=sum(len(schedule) for _, _, _, schedule in prepared),
        rows_digest=digest or rows_digest([]),
        repeats=walls,
        backend=backend,
        peak_rss_bytes=peak_rss_bytes(),
    )


def _digest_divergence_report(
    prepared: Sequence[Tuple[object, object, object, object]],
    backend_a: str,
    backend_b: str,
    digest_a: str,
    digest_b: str,
) -> str:
    """Explain a cross-backend digest mismatch at packet-field level.

    Re-replays the prepared cells pairwise under both backends (cheap next
    to the bench itself, and only ever run on the failure path) and runs the
    first-divergence comparator on the first cell whose rows differ, so the
    raised error names the packet, the field, and the per-port ordering
    context instead of just two hashes.
    """
    from repro.core.replay import replay_pair
    from repro.diff.comparator import first_divergence

    for scenario, topology, _workload, schedule in prepared:
        replayed_a, replayed_b = replay_pair(
            topology,
            schedule,
            backend_a,
            backend_b,
            mode=scenario.replay_mode,
        )
        divergence = first_divergence(
            replayed_a, replayed_b, label_a=backend_a, label_b=backend_b
        )
        if divergence is not None:
            return (
                f"backend {backend_b!r} replay rows diverge from the "
                f"reference engine ({digest_b} != {digest_a}); bit-identity "
                f"contract broken. First divergence, in scenario "
                f"{scenario.name}:\n{divergence.format()}"
            )
    return (
        f"backend {backend_b!r} replay rows diverge from the reference "
        f"engine ({digest_b} != {digest_a}) but a re-replay of every cell "
        "was packet-identical — the divergence is not deterministic; rerun "
        "`python -m repro fuzz` to hunt it"
    )


def run_bench(
    experiments: Optional[Sequence[str]] = None,
    scale: Union[str, object, None] = "quick",
    repeat: int = 1,
    backend: Optional[str] = None,
    replay_path: bool = True,
) -> BenchReport:
    """Bench a set of experiments and return the assembled report.

    Args:
        experiments: Experiment registry names (default:
            :data:`DEFAULT_EXPERIMENTS`).
        scale: Scale preset name (``"quick"``/``"smoke"``/``"paper"``) or an
            :class:`~repro.experiments.config.ExperimentScale` instance.
        repeat: Cold runs per experiment; the best wall time is reported.
        backend: Simulation backend for the replay legs (``None`` =
            unpinned: fastest available per replay).  Validated up front so
            a bad selection fails before anything is measured.
        replay_path: Also measure the replay-only ``table1:replay@<name>``
            groups over shared pre-recorded schedules — one group per
            *available* registered backend (``python`` reference first,
            then ``vectorized``/``compiled``/...; see
            :func:`available_replay_backends`), so the payload carries the
            full cross-backend comparison regardless of which engine the
            full-cell groups ran under.  All groups must produce
            bit-identical rows; a digest mismatch raises instead of
            reporting a "speedup" that changed results.

    Raises:
        RuntimeError: if the replay-path groups disagree on the rows digest
            (an optimized backend broke the bit-identity contract); the
            message embeds a first-divergence report — divergent packet,
            fields, port, ordering context — produced by
            :mod:`repro.diff.comparator` on the failing cell.
    """
    from repro.sim.backend import get_backend

    if backend is not None:
        get_backend(backend)  # fail fast: KeyError / PipelineConfigError
    names = list(experiments) if experiments else list(DEFAULT_EXPERIMENTS)
    scale_label = scale if isinstance(scale, str) else _resolve_scale(scale).label
    report = BenchReport(scale=scale_label, repeat=repeat)
    for name in names:
        report.results[name] = bench_experiment(
            name, scale=scale, repeat=repeat, backend=backend
        )
    if replay_path:
        prepared = prepare_replay_cells(scale)
        reference: Optional[ExperimentBench] = None
        for replay_backend in available_replay_backends():
            candidate = bench_replay_path(prepared, backend=replay_backend, repeat=repeat)
            report.results[candidate.experiment] = candidate
            if reference is None:
                reference = candidate
            elif candidate.rows_digest != reference.rows_digest:
                raise RuntimeError(
                    _digest_divergence_report(
                        prepared,
                        reference.backend or "python",
                        replay_backend,
                        reference.rows_digest,
                        candidate.rows_digest,
                    )
                )
    return report
