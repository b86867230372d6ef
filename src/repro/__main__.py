"""``python -m repro`` — the experiment pipeline CLI.

Subcommands:

* ``run`` — run experiments (all or by name), optionally fanned out across
  worker processes, with the on-disk schedule cache enabled by default::

      python -m repro run --all --workers 4
      python -m repro run table1 figure2 --scale smoke --json

* ``list`` — show every registered experiment and its cells at a scale (or
  the workload / slack-policy registries)::

      python -m repro list --scale quick
      python -m repro list --workloads
      python -m repro list --slack-policies
      python -m repro list --backends
      python -m repro list --faults

* ``record`` — record one scenario's original schedule to a file (the file
  carries the topology spec, so it is self-contained)::

      python -m repro record I2-1G-10G@70 --out schedule.jsonl.gz

* ``replay`` — replay a recorded schedule file under a candidate universal
  scheduler (optionally with heuristic slack initialization) and print the
  Table-1 metrics::

      python -m repro replay schedule.jsonl.gz --mode lstf
      python -m repro replay schedule.jsonl.gz --slack-policy deadline

* ``diff`` — compare two schedules (or a schedule against a fresh replay of
  itself, or re-run a fuzz artifact) and report the first divergent packet
  with a field-level diff; exit 0 = match, 1 = diverged, 2 = config error::

      python -m repro diff a.jsonl.gz b.jsonl.gz
      python -m repro diff --replay schedule.jsonl.gz --backend compiled
      python -m repro diff --case fuzz-artifacts/case-1-7.json

* ``fuzz`` — differential fuzzing of the bit-identity contract: seeded
  random scenarios replayed through every available backend pair plus
  live-vs-replay twins, with failures shrunk to minimal repro artifacts::

      python -m repro fuzz --budget 25 --seed 1 --artifacts fuzz-artifacts

See ``docs/diff.md`` for the comparator contract and the fuzz workflow.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import List, Optional

#: Default directory for the on-disk schedule cache.
DEFAULT_CACHE_DIR = ".repro-cache"


class _CLIError(Exception):
    """A user-facing configuration error (printed to stderr, exit 2)."""


def _build_initializer(mode: str, slack_policy: Optional[str]):
    """The replay initializer for ``--slack-policy``, or ``None``.

    Raises:
        PipelineConfigError: unknown policy.
        _CLIError: a policy that cannot drive ``mode``.
    """
    if slack_policy is None:
        return None
    from repro.core.slack_policy import SLACK_POLICIES
    from repro.pipeline.scenario import registered

    policy = registered(SLACK_POLICIES, slack_policy)
    try:
        return policy.build_initializer(mode)
    except ValueError as error:
        raise _CLIError(str(error)) from error


def _build_fault_plan(fault: Optional[str], fault_seed: int):
    """The fault plan for ``--fault``, or ``None``.

    Raises:
        PipelineConfigError: unknown fault-schedule name.
    """
    if fault is None:
        return None
    from repro.faults import FAULTS, FaultPlan
    from repro.pipeline.scenario import registered

    return FaultPlan(registered(FAULTS, fault), seed=fault_seed)


def _load_schedule_file(path: str):
    """Load a schedule file, mapping every read/parse failure to exit 2.

    Raises:
        _CLIError: missing or unreadable file (``OSError``), truncated gzip
            stream (``EOFError``), or any malformed content (``ValueError``).
    """
    from repro.core.schedule import load_schedule

    try:
        return load_schedule(path)
    except (OSError, EOFError, ValueError) as error:
        raise _CLIError(f"cannot load {path}: {error}") from error


def _load_replay_inputs(path: str, args: argparse.Namespace):
    """What ``replay`` and ``diff --replay`` need before they can replay.

    Returns ``(schedule, meta, initializer, fault_plan)`` for the schedule
    file at ``path`` under ``args.mode`` / ``--slack-policy`` / ``--fault``.

    Raises:
        _CLIError: unknown mode, policy or fault schedule; unreadable file;
            or a file without the topology spec ``record`` writes.
    """
    from repro.core.replay import REPLAY_MODES

    if args.mode not in REPLAY_MODES:
        known = ", ".join(sorted(REPLAY_MODES))
        raise _CLIError(f"unknown replay mode {args.mode!r}; known: {known}")
    initializer = _build_initializer(args.mode, args.slack_policy)
    fault_plan = _build_fault_plan(args.fault, args.fault_seed)
    schedule, meta = _load_schedule_file(path)
    if "topology" not in meta:
        raise _CLIError(
            f"{path} carries no topology spec; "
            "was it written by `python -m repro record`?"
        )
    return schedule, meta, initializer, fault_plan


def _scale(name: str):
    from repro.experiments.config import ExperimentScale

    presets = {
        "quick": ExperimentScale.quick,
        "smoke": ExperimentScale.smoke,
        "paper": ExperimentScale.paper,
    }
    return presets[name]()


def _add_scale_argument(parser, default: str = "quick") -> None:
    parser.add_argument(
        "--scale",
        choices=("quick", "smoke", "paper"),
        default=default,
        help=f"scale preset (default: {default}; paper takes hours)",
    )


def _add_backend_argument(parser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        help="simulation engine for replays: python (reference; pins recording "
        "to the OO engine too) or compiled (native kernel, built on first use) — "
        "bit-identical rows; see `list --backends`. Default: "
        "$REPRO_BACKEND, else the fastest available engine that supports "
        "each replay's configuration. See docs/backends.md",
    )


def _add_replay_arguments(parser) -> None:
    """What configures a replay, for ``replay`` and ``diff --replay`` alike."""
    parser.add_argument(
        "--mode",
        default="lstf",
        help="replay mode: lstf, lstf-preemptive, edf, priority, omniscient, "
        "fifo (default: lstf)",
    )
    parser.add_argument(
        "--slack-policy",
        default=None,
        help="stamp headers with a registry slack policy instead of the "
        "mode's recorded-schedule initializer (see `list --slack-policies`)",
    )
    parser.add_argument(
        "--fault",
        default=None,
        help="inject a registry fault schedule into the replay network — "
        "both legs of `diff --replay` (see `list --faults`)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the --fault schedule's randomness (default: 0)",
    )
    _add_backend_argument(parser)
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _add_context_argument(parser) -> None:
    parser.add_argument(
        "--context",
        type=int,
        default=8,
        help="packets of per-port ordering context around a divergence (default: 8)",
    )


def _replay_scenarios(scale) -> dict:
    """All named replay scenarios across registered experiments."""
    from repro.pipeline.experiment import default_registry

    scenarios = {}
    for definition in default_registry():
        lister = getattr(definition, "scenarios", None)
        if lister is None:
            continue
        for scenario in lister(scale):
            scenarios.setdefault(scenario.name, scenario)
    return scenarios


# ---------------------------------------------------------------------- #
# run
# ---------------------------------------------------------------------- #
def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.config import format_result, results_to_json
    from repro.pipeline.experiment import default_registry
    from repro.pipeline.runner import run_pipeline
    from repro.pipeline.scenario import registered

    registry = default_registry()
    names = registry.names() if args.all or not args.experiments else args.experiments
    for name in names:  # an unknown name exits 2; a bug's KeyError keeps its traceback
        registered(registry, name)
    cache_dir = None if args.no_cache else args.cache_dir
    scale_name = "quick" if args.quick else args.scale
    summary = run_pipeline(
        names=names,
        scale=_scale(scale_name),
        workers=args.workers,
        cache_dir=cache_dir,
        replicates=args.replicates,
        workload=args.workload,
        slack_policy=args.slack_policy,
        backend=args.backend,
        faults=args.fault,
        fault_seed=args.fault_seed,
        cell_timeout=args.cell_timeout,
        max_retries=args.max_retries,
        shard_packets=args.shard_packets,
    )
    if args.json:
        payload = results_to_json(summary.results)
        payload["_summary"] = {
            "cells": summary.cells,
            "workers": summary.workers,
            "wall_time": summary.wall_time,
            "cache_hits": summary.cache_hits,
            "cache_misses": summary.cache_misses,
            "records_computed": summary.records_computed,
            "notes": summary.notes,
        }
        payload["errors"] = [error.to_dict() for error in summary.errors]
        print(json.dumps(payload, indent=2, default=str))
    else:
        for result in summary.results.values():
            print(format_result(result))
            print()
        print(summary.format())
    if summary.errors:
        # The run itself completed (every surviving row was printed above);
        # the nonzero exit is how scripts and CI notice the missing cells.
        for error in summary.errors:
            print(
                f"error: cell {error.cell_id} failed after {error.attempts} "
                f"attempt(s): {error.error_type}: {error.message}",
                file=sys.stderr,
            )
        return 1
    return 0


# ---------------------------------------------------------------------- #
# list
# ---------------------------------------------------------------------- #
def _registry(path: str):
    """``module:NAME``, imported on use (``--help`` and ``run`` never pay for it)."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def _experiment_entries(scale_name: str) -> List[dict]:
    entries = []
    scale = _scale(scale_name)
    for definition in _registry("repro.pipeline.experiment:default_registry")():
        cells = definition.cells(scale)
        entries.append(
            {
                "name": definition.name,
                "cells": len(cells),
                "labels": sorted({cell.label for cell in cells}),
                "modes": sorted({cell.mode for cell in cells}),
            }
        )
    return entries


def _backend_status(entry: dict) -> str:
    return "default" if entry["default"] else "available" if entry["available"] else "UNAVAILABLE"


def _backend_detail(entry: dict) -> Optional[str]:
    if not entry["available"]:
        return f"reason: {entry['reason']}"
    if entry["build"]:
        return "build: " + ", ".join(f"{key}={value}" for key, value in entry["build"].items())
    return None


#: ``list``'s listings, first flag given wins, the last is the default:
#: ``flag -> (title, entries, columns, footer)``.  ``entries(scale)`` is the
#: ``--json`` payload; a column is an entry key or ``(header, entry -> cell)``.
_LISTINGS = {
    "backends": (
        "replay engine(s), fastest first",
        lambda scale: _registry("repro.sim.backend:describe_backends")(),
        ("name", ("status", _backend_status), "replay_note", ("detail", _backend_detail)),
        "unselected replays use the `default` engine when it supports "
        "their configuration (finite buffers, preemption and foreign fault "
        "kinds run on python); pin one with `--backend <name>` on run/replay/diff "
        "or $REPRO_BACKEND (docs/backends.md)",
    ),
    "faults": (
        "fault schedule(s) in the registry",
        lambda scale: [
            {
                "name": definition.name,
                "faults": len(definition.faults),
                "kinds": ", ".join(sorted({fault.kind for fault in definition.faults})) or "-",
                "description": definition.description,
            }
            for definition in _registry("repro.faults:FAULTS")
        ],
        ("name", "faults", "kinds", "description"),
        "use with `run faults --fault <name>` or `replay --fault <name>`; "
        "faults hit the replay network only (docs/faults.md)",
    ),
    "slack_policies": (
        "slack polic(ies) in the registry",
        lambda scale: [
            {
                "name": definition.name,
                "kind": definition.kind,
                "modes": definition.capability(),
                "params": definition.describe_params(),
                "description": definition.description,
            }
            for definition in _registry("repro.core.slack_policy:SLACK_POLICIES")
        ],
        ("name", "kind", "modes", "params", "description"),
        "modes: `live` policies stamp packets at send time (figure2-4, "
        "heuristics live columns);\n`replay` policies initialize replayed "
        "headers (run/replay --slack-policy)",
    ),
    "workloads": (
        "workload(s) in the registry",
        lambda scale: [
            {
                "name": definition.name,
                "group": definition.group,
                "distribution": definition.distribution().kind,
                "mean_flow_kb": definition.mean_flow_size() / 1e3,
                "perturbations": definition.describe_perturbations(),
                "description": definition.description,
            }
            for definition in _registry("repro.traffic.registry:WORKLOADS")
        ],
        ("name", "group", "distribution", "mean_flow_kb", "perturbations"),
        "use with `run <experiment> --workload <name>` or via the adversarial group",
    ),
    "experiments": (
        "experiment(s) at {scale} scale",
        _experiment_entries,
        ("name", "cells", ("modes", lambda e: ", ".join(e["modes"]))),
        lambda scale: "\n  ".join(
            ["scenario labels (use with `record`):", *sorted(_replay_scenarios(_scale(scale)))]
        ),
    ),
}


def cmd_list(args: argparse.Namespace) -> int:
    flag = next((flag for flag in _LISTINGS if getattr(args, flag, False)), "experiments")
    title, entries, columns, footer = _LISTINGS[flag]
    entries = entries(args.scale)
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    from repro.experiments.config import format_table

    rows = [
        dict(
            (column, entry[column]) if isinstance(column, str) else (column[0], column[1](entry))
            for column in columns
        )
        for entry in entries
    ]
    print(f"{len(entries)} {title.format(scale=args.scale)}:")
    header, _rule, *body = format_table(rows, float_digits=1)
    for line in (header, *body):
        print(f"  {line}".rstrip())
    print("\n" + (footer(args.scale) if callable(footer) else footer))
    return 0


# ---------------------------------------------------------------------- #
# record
# ---------------------------------------------------------------------- #
def cmd_record(args: argparse.Namespace) -> int:
    from repro.core.schedule import save_schedule
    from repro.pipeline.cache import workload_fingerprint
    from repro.pipeline.experiment import record_scenario_schedule, scenario_cache_key

    scale = _scale(args.scale)
    scenarios = _replay_scenarios(scale)
    scenario = scenarios.get(args.scenario)
    if scenario is None:
        known = ", ".join(sorted(scenarios))
        raise _CLIError(f"unknown scenario {args.scenario!r}; known: {known}")
    topology = scenario.build_topology()
    workload = scenario.workload()
    schedule = record_scenario_schedule(scenario, topology, workload)
    meta = {
        "scenario": scenario.name,
        "original": scenario.original,
        "seed": scenario.seed,
        "scale": args.scale,
        "key": scenario_cache_key(scenario),
        "workload": workload_fingerprint(workload),
        "topology": topology.to_dict(),
        "mss": workload.mss,
    }
    save_schedule(args.out, schedule, meta=meta)
    print(
        f"recorded {len(schedule)} packets of scenario {scenario.name} "
        f"({scenario.original} original) -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------- #
# replay
# ---------------------------------------------------------------------- #
def cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.replay import evaluate_replay
    from repro.topology.base import Topology

    schedule, meta, initializer, fault_plan = _load_replay_inputs(args.schedule, args)
    topology = Topology.from_dict(meta["topology"])
    # An unusable --backend raises PipelineConfigError (exit 2, see main).
    result = evaluate_replay(
        topology,
        schedule,
        mode=args.mode,
        threshold_packet_bytes=float(meta.get("mss", 1460)),
        initializer=initializer,
        backend=args.backend,
        faults=fault_plan,
    )
    row = {
        "scenario": meta.get("scenario"),
        "original": meta.get("original"),
        "replay_mode": args.mode,
        "slack_policy": args.slack_policy,
        "fault": args.fault,
        "fault_seed": args.fault_seed,
        "packets": result.metrics.total_packets,
        "delivered_fraction": result.metrics.delivered_fraction,
        "fraction_overdue": result.overdue_fraction,
        "fraction_overdue_beyond_T": result.overdue_beyond_threshold_fraction,
        "threshold": result.metrics.threshold,
    }
    if args.json:
        print(json.dumps(row, indent=2))
    else:
        print(
            f"replayed {row['packets']} packets of {row['scenario']} with {args.mode}: "
            f"{row['delivered_fraction']:.4%} delivered, "
            f"{row['fraction_overdue']:.4%} overdue, "
            f"{row['fraction_overdue_beyond_T']:.4%} overdue by more than "
            f"T={row['threshold']:.3e}s"
        )
    return 0


# ---------------------------------------------------------------------- #
# diff
# ---------------------------------------------------------------------- #
def _diff_report(divergence, matched_label: str, as_json: bool) -> int:
    """Print a comparison outcome; exit 0 on match, 1 on divergence."""
    if as_json:
        payload = {
            "match": divergence is None,
            "divergence": None if divergence is None else divergence.to_dict(),
        }
        print(json.dumps(payload, indent=2, default=str))
    elif divergence is None:
        print(matched_label)
    else:
        print(divergence.format())
    return 0 if divergence is None else 1


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.diff import first_divergence

    sources = [
        bool(args.schedules),
        args.replay is not None,
        args.case is not None,
    ]
    if sum(sources) != 1:
        raise _CLIError(
            "give exactly one comparison source — two schedule files, "
            "--replay <schedule>, or --case <artifact>"
        )
    if args.schedules and len(args.schedules) != 2:
        raise _CLIError(
            f"expected exactly two schedule files, got {len(args.schedules)}"
        )

    if args.case is not None:
        # Re-run a fuzz artifact: rebuild the minimized scenario and its
        # comparison spec, then run it exactly as the fuzzer did.
        from repro.diff import load_case, run_comparison

        try:
            scenario, spec = load_case(args.case)
        except (OSError, ValueError, KeyError, TypeError) as error:
            raise _CLIError(f"cannot load case {args.case}: {error}") from error
        divergence = run_comparison(scenario, spec, context=args.context)
        return _diff_report(
            divergence,
            f"case {args.case} no longer diverges "
            f"({scenario.name}, {spec.describe()})",
            args.json,
        )

    if args.replay is not None:
        # Replay the schedule twice — reference engine versus --backend
        # (default: the reference again, a pure determinism twin) — and
        # diff the two replays, labelled by the engines that ran them.
        from repro.core.replay import replay_pair
        from repro.sim.backend import REFERENCE_BACKEND, select_engine
        from repro.topology.base import Topology

        schedule, meta, initializer, fault_plan = _load_replay_inputs(args.replay, args)
        topology = Topology.from_dict(meta["topology"])
        backend = args.backend or REFERENCE_BACKEND
        config = dict(mode=args.mode, faults=fault_plan)
        engine, declined = select_engine(backend, topology, **config)
        for name, reason in declined:
            print(
                f"note: backend {name!r} declines this configuration ({reason}); "
                f"its leg runs on {engine} (the diff degenerates to a "
                "determinism twin)",
                file=sys.stderr,
            )
        replayed_a, replayed_b = replay_pair(
            topology, schedule, REFERENCE_BACKEND, backend, initializer=initializer, **config
        )
        ran = engine if engine != REFERENCE_BACKEND else f"{REFERENCE_BACKEND}#2"
        divergence = first_divergence(
            replayed_a, replayed_b, context=args.context, label_a=REFERENCE_BACKEND, label_b=ran
        )
        return _diff_report(
            divergence,
            f"replays bit-identical: {len(replayed_a)} packets of "
            f"{args.replay} under {args.mode} ({REFERENCE_BACKEND} vs {ran})",
            args.json,
        )

    path_a, path_b = args.schedules
    schedule_a, _ = _load_schedule_file(path_a)
    schedule_b, _ = _load_schedule_file(path_b)
    divergence = first_divergence(
        schedule_a, schedule_b, context=args.context, label_a=path_a, label_b=path_b
    )
    return _diff_report(
        divergence, f"schedules match: {len(schedule_a)} packets bit-identical", args.json
    )


# ---------------------------------------------------------------------- #
# fuzz
# ---------------------------------------------------------------------- #
def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.diff import run_fuzz

    if args.budget < 1:
        raise _CLIError("--budget must be at least 1")
    report = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        scale=_scale(args.scale),
        context=args.context,
        artifact_dir=None if args.no_artifacts else args.artifacts,
        shrink=not args.no_shrink,
        log=None if args.json else print,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        print(report.format())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Universal Packet Scheduling reproduction: experiment pipeline CLI.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run experiments (parallel, cached)")
    run_parser.add_argument("experiments", nargs="*", help="experiment names (see `list`)")
    run_parser.add_argument("--all", action="store_true", help="run every experiment")
    scale_group = run_parser.add_mutually_exclusive_group()
    _add_scale_argument(scale_group)
    run_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1 = serial)"
    )
    run_parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"on-disk schedule cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk schedule cache"
    )
    run_parser.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="seed replicates per replay scenario (default: 1); "
        "replicated runs add mean/stddev/95%% CI summary rows",
    )
    run_parser.add_argument(
        "--workload",
        default=None,
        help="override every scenario's workload with a registry workload "
        "(see `list --workloads`)",
    )
    run_parser.add_argument(
        "--slack-policy",
        default=None,
        help="override slack initialization with a registry slack policy "
        "(see `list --slack-policies`): replay scenarios get the policy's "
        "replay initializer, live experiments (figure2/figure3) its "
        "send-time policy",
    )
    run_parser.add_argument(
        "--fault",
        default=None,
        help="pin every fault-capable experiment onto a registry fault "
        "schedule (see `list --faults`); faults hit the replay leg only",
    )
    run_parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the --fault schedule's randomness, independent of "
        "every workload seed (default: 0)",
    )
    run_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds; cells that outlive it "
        "fail (and retry under --max-retries) instead of hanging the run",
    )
    run_parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="extra rounds failed cells are retried with exponential "
        "backoff; parallel rounds use a fresh worker pool, so crashed "
        "workers are recovered (default: 0)",
    )
    run_parser.add_argument(
        "--shard-packets",
        type=int,
        default=None,
        help="schedule-cache shard size in packets: entries above this are "
        "persisted as manifest+shard files, and shard-capable experiments "
        "(e.g. scale) partition their streaming cells by it (default: "
        "100000; storage layout only, cache keys and rows do not depend "
        "on it)",
    )
    scale_group.add_argument(
        "--quick", action="store_true", help="shorthand for --scale quick"
    )
    _add_backend_argument(run_parser)
    run_parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    run_parser.set_defaults(func=cmd_run)

    list_parser = subparsers.add_parser("list", help="list registered experiments")
    _add_scale_argument(list_parser)
    list_parser.add_argument(
        "--workloads",
        action="store_true",
        help="list the workload registry (name, group, distribution, "
        "perturbations, mean flow size) instead of experiments",
    )
    list_parser.add_argument(
        "--slack-policies",
        action="store_true",
        help="list the slack-policy registry (name, kind, parameters) "
        "instead of experiments",
    )
    list_parser.add_argument(
        "--backends",
        action="store_true",
        help="list the replay engines (name, availability with reason, "
        "replay-support note, build metadata) instead of experiments",
    )
    list_parser.add_argument(
        "--faults",
        action="store_true",
        help="list the fault-schedule registry (name, fault kinds) instead "
        "of experiments",
    )
    list_parser.add_argument("--json", action="store_true", help="emit JSON")
    list_parser.set_defaults(func=cmd_list)

    record_parser = subparsers.add_parser(
        "record", help="record one scenario's original schedule to a file"
    )
    record_parser.add_argument("scenario", help="scenario label (see `list`)")
    record_parser.add_argument(
        "--out", default="schedule.jsonl.gz", help="output file (.gz = compressed)"
    )
    _add_scale_argument(record_parser)
    record_parser.set_defaults(func=cmd_record)

    replay_parser = subparsers.add_parser(
        "replay", help="replay a recorded schedule file and print Table-1 metrics"
    )
    replay_parser.add_argument("schedule", help="schedule file written by `record`")
    _add_replay_arguments(replay_parser)
    replay_parser.set_defaults(func=cmd_replay)

    diff_parser = subparsers.add_parser(
        "diff",
        help="first-divergence comparison of two schedules (or schedule vs "
        "fresh replay); exit 0 match, 1 diverged, 2 config error",
    )
    diff_parser.add_argument(
        "schedules",
        nargs="*",
        help="two schedule files written by `record` (omit when using "
        "--replay or --case)",
    )
    diff_parser.add_argument(
        "--replay",
        default=None,
        metavar="SCHEDULE",
        help="instead of two files: replay this schedule twice — reference "
        "engine vs --backend — and diff the replays (--backend python "
        "checks run-over-run determinism)",
    )
    diff_parser.add_argument(
        "--case",
        default=None,
        metavar="ARTIFACT",
        help="re-run a fuzz repro artifact written by `fuzz` and diff it",
    )
    _add_replay_arguments(diff_parser)
    _add_context_argument(diff_parser)
    diff_parser.set_defaults(func=cmd_diff)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing of the bit-identity contract across "
        "backends and live-vs-replay twins",
    )
    fuzz_parser.add_argument(
        "--budget",
        type=int,
        default=25,
        help="number of seeded random cases (default: 25)",
    )
    fuzz_parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="fuzz-stream seed; same seed = same cases everywhere (default: 1)",
    )
    _add_scale_argument(fuzz_parser, default="smoke")
    _add_context_argument(fuzz_parser)
    fuzz_parser.add_argument(
        "--artifacts",
        default="fuzz-artifacts",
        metavar="DIR",
        help="directory for minimized repro artifacts (default: fuzz-artifacts)",
    )
    fuzz_parser.add_argument(
        "--no-artifacts",
        action="store_true",
        help="do not persist repro artifacts for failing cases",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="persist failing scenarios as found, without minimization",
    )
    fuzz_parser.add_argument("--json", action="store_true", help="emit JSON")
    fuzz_parser.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one verb; configuration errors print ``error: ...`` and exit 2.

    This is the only place :class:`_CLIError` and
    :class:`~repro.pipeline.scenario.PipelineConfigError` (unknown backend or
    registry name, out-of-range option, policy/mode mismatch) become an exit code;
    every other exception keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    from repro.pipeline.scenario import PipelineConfigError

    try:
        return args.func(args)
    except (_CLIError, PipelineConfigError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
