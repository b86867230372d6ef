#!/usr/bin/env python3
"""The gated end-to-end benchmark (see README.md beside this file).

``run.py --workload W --seed N --seconds S --trace 0|1`` measures one workload
in this process and prints one JSON result as its last line (the contract of
``BENCHMARK.json``).  Without ``--workload`` it runs every workload, each in
its own child process, one at a time, traced, and writes ``results.json`` and
``trace.json`` under ``--out``.

All timings are host time; simulated statistics (rows, events, packets, cache
counts) are checked exactly against ``golden.json`` or, on other seeds, for
pass-to-pass, traced-vs-untraced and serial-vs-parallel equality.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import heapq
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: Every cache directory a run creates lives (briefly) under here.
WORK = HERE / ".work"
#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_ROUNDS = 3
#: What one ``calibrate()`` call counts as on the harness's own clock ("ref-s"):
#: its best duration on the box the baseline was taken on, so ref-s reads like s there.
REF_SECONDS = 0.25


@dataclasses.dataclass(frozen=True)
class Workload:
    """One ``run_pipeline`` call shape; ``cache`` is none, fresh (per pass) or warm."""

    groups: tuple
    workers: int = 1
    cache: str = "none"
    shard_packets: int | None = None


WORKLOADS = {
    "table1-cold": Workload(("table1",), cache="fresh"),
    "table1-warm": Workload(("table1",), cache="warm"),
    "live-figures": Workload(("figure2", "figure3", "figure4")),
    "parallel-mixed": Workload(
        ("faults", "scale", "heuristics"), workers=2, cache="fresh", shard_packets=200
    ),
}

END_TO_END = {
    "setup_s": "s",
    "events_per_ref_s": "events/ref-s",
    "cpu_ref_us_per_event": "ref-us/event",
    "peak_rss_mib": "MiB",
}

#: Span name -> per-layer seconds metric (the total over the traced pass).
SPAN_SECONDS = {
    "topology.build": "topology.build_s",
    "traffic.workload": "traffic.workload_s",
    "pipeline.cache.key": "pipeline.cache.key_s",
    "core.record": "core.record_s",
    "core.schedule.save": "core.schedule.save_s",
    "core.schedule.load": "core.schedule.load_s",
    "core.replay.python": "core.replay.python_s",
    "core.replay.vectorized": "core.replay.vectorized_s",
    "core.metrics.compare": "core.metrics.compare_s",
    "core.metrics.streaming": "core.metrics.streaming_s",
    "experiments.table1.row": "experiments.table1.row_s",
    **{
        f"experiments.{group}": f"experiments.{group}_s"
        for group in ("figure2", "figure3", "figure4", "faults", "scale", "heuristics")
    },
}
PER_LAYER = {
    **{name: "s" for name in SPAN_SECONDS.values()},
    "core.record_events": "count",
    "core.record_us_per_event": "us/event",
    "core.schedule.save_bytes": "bytes",
    "core.schedule.packets": "count",
    "core.schedule.save_us_per_packet": "us/packet",
    "core.schedule.load_us_per_packet": "us/packet",
    "core.replay.events": "count",
    "core.replay.python_us_per_event": "us/event",
    "core.replay.vectorized_us_per_event": "us/event",
    "core.metrics.packets": "count",
    "pipeline.cache.hits": "count",
    "pipeline.cache.misses": "count",
    "pipeline.runner.self_s": "s",
    "pipeline.runner.child_cpu_s": "s",
    "pipeline.runner.parallel_efficiency": "ratio",
    "sim.live_events": "count",
    "sim.live_us_per_event": "us/event",
    "cli.import_s": "s",
    "cli.run_table1_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder: name, start, end, parent, pass id, event count.

    ``extra`` spans are measurements taken beside the pass (another backend,
    the streaming metrics) that the pipeline itself would not execute.
    """

    def __init__(self, events=lambda: 0) -> None:
        self.spans: list = []
        self._events = events
        self._stack: list = []

    @contextmanager
    def span(self, name: str, extra: bool = False):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": 0,  # one traced pass per run
            "extra": extra,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        events = self._events()
        try:
            yield record
        finally:
            record["events"] = self._events() - events
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, field: str = "seconds") -> float:
        """Summed duration (or event count) of every span called ``name``."""
        return sum(s[field] if field == "events" else s["end"] - s["start"]
                   for s in self.spans if s["name"] == name)

    def self_times(self) -> dict:
        """Span id -> its duration minus the part its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class _Node:
    __slots__ = ("when", "size")

    def __init__(self, when: float, size: int) -> None:
        self.when = when
        self.size = size


def calibrate(iterations: int = 200_000) -> tuple:
    """``(wall, cpu)`` seconds of a fixed interpreter-bound loop: the reference clock.

    This box runs 10-20 % slower for minutes at a time (wall and CPU time
    alike) and preempts for fractions of a second.  The loop - a small heap of
    tuples, dict traffic, short-lived objects, float sums: what a
    discrete-event simulator does - runs before and after every timed pass.
    The best pass over the best calibration of a run drops the preemptions
    (they only ever add time) and cancels the drift.  The loop lives here so
    that no later change can speed it up together with the program.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    heap, table, total = [], {}, 0.0
    for i in range(iterations):
        node = _Node(i * 0.5, i)
        heapq.heappush(heap, ((i * 7919 % 1000) * 0.001, i, node))
        table[i & 1023] = node
        if len(heap) > 512:
            when, _, popped = heapq.heappop(heap)
            total += when + popped.when + table[i & 1023].size
    return time.perf_counter() - wall, time.process_time() - cpu


@dataclasses.dataclass
class PassResult:
    wall: float
    cpu: float
    child_cpu: float
    events: int
    rows: list
    cells: int
    errors: int
    hits: int
    misses: int

    def counters(self) -> dict:
        """The deterministic outputs of a pass (``events`` is 0 under a pool)."""
        from repro.bench.harness import rows_digest

        return {
            "digest": rows_digest(self.rows),
            "events": self.events,
            "cells": self.cells,
            "packets": sum(row.get("packets") or 0 for row in self.rows),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
        }


def _cpu_seconds() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def pipeline_pass(workload: Workload, scale, cache_dir, groups=None, workers=None) -> PassResult:
    """One closed-loop request: a whole ``run_pipeline`` call, timed from outside."""
    from repro.pipeline import run_pipeline
    from repro.sim.engine import Simulator

    events = Simulator.events_executed_total
    own, children = _cpu_seconds()
    started = time.perf_counter()
    summary = run_pipeline(
        list(groups or workload.groups),
        scale=scale,
        workers=workers or workload.workers,
        cache_dir=None if cache_dir is None else str(cache_dir),
        shard_packets=workload.shard_packets,
    )
    wall = time.perf_counter() - started
    own_after, children_after = _cpu_seconds()
    return PassResult(
        wall=wall,
        cpu=own_after - own + children_after - children,
        child_cpu=children_after - children,
        events=Simulator.events_executed_total - events,
        rows=[row for result in summary.results.values() for row in result.rows],
        cells=summary.cells,
        errors=len(summary.errors),
        hits=summary.cache_hits,
        misses=summary.cache_misses,
    )


def _gzip_payload_bytes(path) -> int:
    """File size minus the temp-file name gzip embeds (its length varies with the pid)."""
    with open(path, "rb") as stream:
        head = stream.read(512)
    name = head[10 : head.index(b"\0", 10)] if head[3] & 0x08 else b""
    return os.path.getsize(path) - len(name)


def staged_table1_pass(tracer: Tracer, scale, cache_dir, warm: bool) -> tuple:
    """Table 1 cell by cell through the public stage functions ``replay_scenario`` calls.

    Returns ``(rows, counts)``; the rows must reproduce ``run_pipeline``'s.
    The non-default backend and the streaming metrics run on the same
    schedules as ``extra`` spans and must agree with the pass.
    """
    from repro.core.metrics import compare_schedules, compare_schedules_streaming
    from repro.core.replay import ReplayResult, replay_schedule
    from repro.core.schedule import load_schedule, save_schedule
    from repro.experiments.table1 import scenario_row
    from repro.pipeline import ScheduleCache, default_registry, schedule_cache_key
    from repro.pipeline import record_scenario_schedule, workload_fingerprint
    from repro.sim.backend import available_backend_names, resolve_backend
    from repro.sim.flow import reset_flow_ids
    from repro.sim.packet import reset_packet_ids

    default = resolve_backend(None).name
    others = [n for n in available_backend_names("lstf") if n in ("python", "vectorized") and n != default]
    cache = ScheduleCache(cache_dir)
    rows, counts = [], {"packets": 0, "save_bytes": 0}
    with tracer.span("pass"):
        for cell in default_registry().get("table1").cells(scale):
            scenario = cell.spec
            with tracer.span(f"cell:{cell.label}"):
                reset_packet_ids()
                reset_flow_ids()
                with tracer.span("topology.build"):
                    topology = scenario.build_topology()
                with tracer.span("traffic.workload"):
                    workload = scenario.workload()
                with tracer.span("pipeline.cache.key"):
                    key = schedule_cache_key(topology, scenario.original, workload, scenario.seed)
                path = cache.path_for(key)
                if warm:
                    with tracer.span("core.schedule.load"):
                        schedule, _ = load_schedule(path)
                else:
                    with tracer.span("core.record"):
                        schedule = record_scenario_schedule(scenario, topology, workload)
                    meta = {
                        "key": key,
                        "original": scenario.original,
                        "seed": scenario.seed,
                        "workload": workload_fingerprint(workload),
                        "topology": topology.to_dict(),
                    }
                    with tracer.span("core.schedule.save"):
                        save_schedule(path, schedule, meta=meta)
                    counts["save_bytes"] += _gzip_payload_bytes(path)
                counts["packets"] += len(schedule)
                with tracer.span(f"core.replay.{default}"):
                    replayed = replay_schedule(topology, schedule, mode=cell.mode, backend=default)
                threshold = topology.bottleneck_transmission_time(float(workload.mss))
                with tracer.span("core.metrics.compare"):
                    metrics = compare_schedules(schedule, replayed, threshold=threshold)
                with tracer.span("experiments.table1.row"):
                    result = ReplayResult(cell.mode, schedule, replayed, metrics)
                    rows.append(scenario_row(scenario, cell.mode, result))
                with tracer.span("core.metrics.streaming", extra=True):
                    streamed = compare_schedules_streaming(iter(schedule), replayed, threshold)
                if (streamed.total_packets, streamed.overdue_count) != (
                    metrics.total_packets,
                    metrics.overdue_count,
                ):
                    raise RuntimeError(f"{cell.label}: streaming metrics disagree")
                for other in others:
                    with tracer.span(f"core.replay.{other}", extra=True):
                        twin = replay_schedule(topology, schedule, mode=cell.mode, backend=other)
                    if compare_schedules(schedule, twin, threshold=threshold) != metrics:
                        raise RuntimeError(f"{cell.label}: backend {other} disagrees")
    return rows, counts


def grouped_pass(tracer: Tracer, workload: Workload, scale, cache_dir) -> list:
    """The workload's groups one ``run_pipeline([g], workers=1)`` at a time, sharing a cache."""
    rows = []
    with tracer.span("pass"):
        for group in workload.groups:
            with tracer.span(f"experiments.{group}"):
                rows += pipeline_pass(workload, scale, cache_dir, groups=(group,), workers=1).rows
    return rows


def prepare(workload: Workload, scale, cache_dir) -> None:
    """Set-up: imports, registry, and for a warm cache the recordings on disk."""
    from repro.pipeline import ScheduleCache, default_registry, record_scenario_schedule
    from repro.sim.flow import reset_flow_ids
    from repro.sim.packet import reset_packet_ids

    registry = default_registry()
    if workload.cache != "warm":
        return
    cache = ScheduleCache(cache_dir)
    for group in workload.groups:
        for cell in registry.get(group).cells(scale):
            scenario = cell.spec
            reset_packet_ids()
            reset_flow_ids()
            topology, spec = scenario.build_topology(), scenario.workload()
            cache.get_or_record(
                topology=topology,
                original=scenario.original,
                workload=spec,
                seed=scenario.seed,
                recorder=lambda: record_scenario_schedule(scenario, topology, spec),
            )


def child_env() -> dict:
    """The environment of every process the harness starts: unflagged default backend."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _timed_child(argv: list) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True, env=child_env(), stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def make_scale(label: str, seed: int):
    from repro.experiments.config import ExperimentScale

    return dataclasses.replace(getattr(ExperimentScale, label)(), seed=seed)


def environment(seed: int) -> dict:
    import numpy
    from repro.sim.backend import available_backend_names, resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backends": available_backend_names(),
        "default_backend": resolve_backend(None).name,
        "seed": seed,
    }


def check_golden(name: str, scale, counters: dict) -> list:
    """Mismatches against the pinned seed-1 counters (none off the pinned scale and seed)."""
    golden = json.loads((HERE / "golden.json").read_text())
    if (scale.label, scale.seed) != (golden["scale"], golden["seed"]):
        return []
    return [
        f"{key}: {counters[key]!r} != golden {want!r}"
        for key, want in golden["workloads"][name].items()
        if key in counters and counters[key] != want
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale_label: str = "quick") -> dict:
    """Measure one workload in this process and return the full result payload."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        return _run_workload(name, WORKLOADS[name], seed, seconds, trace, scale_label, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


def _run_workload(name, workload, seed, seconds, trace, scale_label, work) -> dict:
    warm_dir = work / "warm"
    setup_rounds = []
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(warm_dir, ignore_errors=True)
        argv = [str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--scale", scale_label]
        setup_rounds.append(_timed_child([*argv, "--prepare", str(warm_dir)]))

    scale = make_scale(scale_label, seed)
    fresh = itertools.count()

    def cache_dir():
        if workload.cache == "none":
            return None
        return warm_dir if workload.cache == "warm" else work / f"fresh-{next(fresh)}"

    def one_pass(**kwargs) -> PassResult:
        gc.collect()
        directory = cache_dir()
        try:
            return pipeline_pass(workload, scale, directory, **kwargs)
        finally:
            if workload.cache == "fresh":
                shutil.rmtree(directory, ignore_errors=True)

    # Untimed warm-up at smoke scale: lazy imports and code paths, not caches.
    pipeline_pass(workload, make_scale("smoke", seed), None if workload.cache == "none" else work / "smoke")
    shutil.rmtree(work / "smoke", ignore_errors=True)

    passes, clock = [], [calibrate()]
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(one_pass())
        clock.append(calibrate())
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.workers > 1:
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Simulator.events_executed_total is process-local, so a pooled workload
    # takes its event count (and the serial rows) from one serial pass.
    reference = one_pass(workers=1) if workload.workers > 1 else passes[0]
    counters = {**passes[0].counters(), "events": reference.events}

    problems = check_golden(name, scale, counters)
    serial_digest = reference.counters()["digest"]
    if serial_digest != counters["digest"]:
        problems.append(f"serial digest {serial_digest} != pooled {counters['digest']}")
    failed = 0
    for index, result in enumerate(passes):
        bad = {k: v for k, v in result.counters().items() if k != "events" and v != counters[k]}
        if workload.workers == 1 and result.events != counters["events"]:
            bad["events"] = result.events
        if workload.cache == "warm" and result.misses:
            bad["records_computed"] = result.misses
        if bad:
            problems.append(f"pass {index}: {bad}")
        failed += result.cells if bad else result.errors

    events = counters["events"]
    walls, cpus = [p.wall for p in passes], [p.cpu for p in passes]
    ref_wall, ref_cpu = (REF_SECONDS / min(sample[k] for sample in clock) for k in (0, 1))
    samples = {
        "setup_s": setup_rounds,
        "events_per_ref_s": [events / (wall * ref_wall) for wall in walls],
        "cpu_ref_us_per_event": [1e6 * cpu * ref_cpu / events for cpu in cpus],
        "peak_rss_mib": [usage / 1024.0],
    }
    # The ref-clock timings are best pass over best calibration; the rest are medians.
    pick = {"events_per_ref_s": max, "cpu_ref_us_per_event": min}
    payload = {
        "workload": name,
        "scale": scale_label,
        "environment": environment(seed),
        "counters": counters,
        "passes": {"wall_s": walls, "cpu_s": cpus, "calibration_s": clock},
        "end_to_end": {
            metric: {
                "value": pick.get(metric, statistics.median)(values),
                "unit": END_TO_END[metric],
                "samples": values,
            }
            for metric, values in samples.items()
        },
    }

    if trace:
        from repro.bench.harness import rows_digest
        from repro.sim.engine import Simulator

        tracer = Tracer(events=lambda: Simulator.events_executed_total)
        counts = {"packets": 0, "save_bytes": 0}
        gc.collect()
        if workload.groups == ("table1",):
            warm = workload.cache == "warm"
            rows, counts = staged_table1_pass(tracer, scale, warm_dir if warm else work / "staged", warm)
            if not warm:
                counters["save_bytes"] = counts["save_bytes"]
                problems += check_golden(name, scale, {"save_bytes": counts["save_bytes"]})
        else:
            rows = grouped_pass(tracer, workload, scale, cache_dir())
        traced_digest = rows_digest(rows)
        if traced_digest != counters["digest"]:
            problems.append(f"traced digest {traced_digest} != untraced {counters['digest']}")
        payload["per_layer"] = per_layer(name, workload, tracer, passes, reference, counts, work, scale_label)
        payload["spans"] = tracer.spans

    attempted = sum(p.cells for p in passes)
    payload.update(
        correct=not problems, attempted=attempted, failed=attempted if problems else failed, problems=problems
    )
    return payload


def per_layer(name, workload, tracer, passes, reference, counts, work, scale_label) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    for span_name, metric in SPAN_SECONDS.items():
        values[metric] = tracer.total(span_name)

    def per(seconds: float, count: float) -> float:
        return 1e6 * seconds / count if count else 0.0

    record_events = tracer.total("core.record", "events")
    replay_events = max(tracer.total(f"core.replay.{b}", "events") for b in ("python", "vectorized"))
    packets = counts["packets"]
    median_wall = statistics.median(p.wall for p in passes)
    root = tracer.spans[0]
    extras = sum(s["end"] - s["start"] for s in tracer.spans if s["extra"])
    stage_sum = sum(
        s["end"] - s["start"]
        for s in tracer.spans[1:]
        if not s["extra"] and not s["name"].startswith("cell:")
    )
    values.update(
        {
            "core.record_events": record_events,
            "core.record_us_per_event": per(values["core.record_s"], record_events),
            "core.schedule.save_bytes": counts["save_bytes"],
            "core.schedule.packets": packets,
            "core.schedule.save_us_per_packet": per(values["core.schedule.save_s"], packets),
            "core.schedule.load_us_per_packet": per(values["core.schedule.load_s"], packets),
            "core.replay.events": replay_events,
            "core.replay.python_us_per_event": per(values["core.replay.python_s"], replay_events),
            "core.replay.vectorized_us_per_event": per(values["core.replay.vectorized_s"], replay_events),
            "core.metrics.packets": packets,
            "pipeline.cache.hits": passes[0].hits,
            "pipeline.cache.misses": passes[0].misses,
            "pipeline.runner.child_cpu_s": statistics.median(p.child_cpu for p in passes),
            "cli.import_s": _timed_child(["-c", "import repro.experiments"]),
        }
    )
    if workload.workers == 1:
        values["pipeline.runner.self_s"] = median_wall - stage_sum
        values["trace.overhead_ratio"] = (root["end"] - root["start"] - extras) / median_wall
    else:
        values["pipeline.runner.parallel_efficiency"] = reference.wall / (workload.workers * median_wall)
    if workload.cache == "none":
        values["sim.live_events"] = reference.events
        values["sim.live_us_per_event"] = per(stage_sum, reference.events)
    if name == "table1-cold":
        argv = ["-m", "repro", "run", "table1", "--scale", scale_label, "--json"]
        values["cli.run_table1_s"] = _timed_child([*argv, "--cache-dir", str(work / "cli")])
    return {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in values.items()}


def report(payload: dict) -> None:
    """Every metric by name with its unit, before the driver's one-line JSON object."""
    walls, cpus = payload["passes"]["wall_s"], payload["passes"]["cpu_s"]
    print(f"{payload['workload']}: seed {payload['environment']['seed']}, {len(walls)} passes, "
          f"counters {payload['counters']}")
    print(f"  raw, not gated: pass_wall_s median {statistics.median(walls):.3f} "
          f"[{min(walls):.3f}, {max(walls):.3f}], pass_cpu_s median {statistics.median(cpus):.3f}, "
          f"events_per_s {payload['counters']['events'] / statistics.median(walls):.0f}")
    for metric, entry in payload["end_to_end"].items():
        values = entry["samples"]
        print(f"  {metric:<40} {entry['value']:>14.4f} {entry['unit']:<12} "
              f"n={len(values)} min={min(values):.4f} max={max(values):.4f}")
    for metric, entry in payload.get("per_layer", {}).items():
        if entry["value"]:  # a layer the workload never enters reads 0
            print(f"  {metric:<40} {entry['value']:>14.6f} {entry['unit']}")
    for problem in payload["problems"]:
        print(f"  MISMATCH {problem}")


def run_all(args) -> int:
    """Every workload in its own child process, one at a time; merge their result files."""
    out = Path(args.out or HERE / "out")
    out.mkdir(parents=True, exist_ok=True)
    results, spans, status = {}, {}, 0
    for name in [args.only] if args.only else list(WORKLOADS):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--scale", args.scale, "--trace", "1", "--out", str(out)]
        status |= subprocess.run(argv, env=child_env()).returncode
        part = out / f"{name}.json"
        if part.exists():
            results[name] = json.loads(part.read_text())
            spans[name] = results[name].pop("spans")
            part.unlink()
        else:
            status = 1
    (out / "results.json").write_text(json.dumps({"seed": args.seed, "workloads": results}, indent=1) + "\n")
    (out / "trace.json").write_text(json.dumps(spans) + "\n")
    print(f"wrote {out / 'results.json'} and {out / 'trace.json'}")
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="measure this one workload in-process")
    parser.add_argument("--only", choices=list(WORKLOADS), help="full run restricted to one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("quick", "smoke"), default="quick", help="smoke is for the tests")
    parser.add_argument("--out", metavar="DIR", help="where results are written (full run: perf/out)")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, str(SRC))
    if args.prepare:
        prepare(WORKLOADS[args.workload], make_scale(args.scale, args.seed), args.prepare)
        return 0
    payload = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    report(payload)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / f"{args.workload}.json").write_text(json.dumps(payload))
    metrics = payload["per_layer"] if args.trace else payload["end_to_end"]
    line = {
        "correct": payload["correct"],
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
