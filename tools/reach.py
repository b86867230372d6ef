#!/usr/bin/env python3
"""Reachability ledger: the functions in ``src/repro`` that no shipped path enters.

Runs the CLI in-process (``--workers 1``, smoke scale) unpinned and under
``REPRO_BACKEND=python``, every ``examples/*.py`` and an import of every module under
``sys.setprofile``, and matches each ``def`` to its code object by file and first line
(the first decorator's); an abstract method or a body that only raises
``NotImplementedError`` declares rather than does and is not counted.  Prints the functions
never entered and exits 1 if one is not in ``ALLOWED`` or an entry there is gone or was
entered.  Stdlib only: ``python tools/reach.py`` (about a minute; ``-v`` shows allowed ones).
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pkgutil
import runpy
import sys
import tempfile
import threading
from collections import namedtuple
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: One ``def``: its allow-list key ``module:qualname``, file, first line and length in lines.
Function = namedtuple("Function", "key path first lines")

#: Why each never-entered function stays: reason -> ``module:qualname,...`` (``repro.`` implied).
ALLOWED = {
    "runs in a pool worker or the serial writer process; CI's pool steps drive it": """
        pipeline.runner:_worker_init,_plan_records,_store,run_pipeline.make_executor
        pipeline.experiment:recording_twin pipeline.cache:_save,_save_columns,ScheduleCache.__contains__
        core.schedule:save_schedule_sharded,shard_file_name""",
    "fuzz failure handling: shrinking, repro artifacts and `diff --case`": """
        diff.fuzz:shrink_case,write_artifact,load_case,FuzzFailure.to_dict,ComparisonSpec.to_dict
        diff.fuzz:ComparisonSpec.from_dict,ComparisonSpec.describe
        pipeline.synth:scenario_to_dict,scenario_from_dict,simplified""",
    "a kernel build, or no kernel (first build, tools/build_compiled.py, no compiler)": """
        sim.compiled:_compiler,_spawn,_build,_remove_other_builds,build_kernel""",
    "error paths: failed or timed-out cells, corrupt cache entries, declined recordings": """
        pipeline.runner:CellError.to_dict,_CellFailure.capture,_cell_deadline._on_timeout,_cell_error
        pipeline.experiment:Cell.cell_id pipeline.cache:ScheduleCache._quarantine
        sim.link:Link.name""",
    "finite-buffer overflow picks and removes a victim; no smoke run overflows a buffer": """
        schedulers.base:Scheduler.choose_drop,PriorityScheduler.remove,PriorityScheduler.queued_entries
        schedulers.fifo:FifoScheduler.remove schedulers.lifo:LifoScheduler.remove,LifoScheduler.byte_count
        schedulers.lstf:LstfScheduler.choose_drop
        schedulers.random_sched:RandomScheduler.remove,RandomScheduler.byte_count
        schedulers.srpt:FlowAwarePriorityScheduler.remove,FlowAwarePriorityScheduler.choose_drop""",
    "a default consulted only when a subclass opts in (`preemptive`, `supports_shards`)": """
        schedulers.base:Scheduler.should_preempt pipeline.experiment:ExperimentDef.cell_shards""",
    "frozen until ROADMAP item 1: benchmarks/perf/run.py imports it": """
        bench.harness:rows_digest sim.packet:reset_packet_ids sim.flow:reset_flow_ids
        sim.backend:resolve_backend,available_backend_names core.metrics:compare_schedules_streaming""",
    "`--scale paper` (hours) and ROADMAP item 10's scale ladder": """
        experiments.config:ExperimentScale.paper traffic.workload:WorkloadSpec.expected_flows_per_host""",
    "tests use it as a fixture or oracle for behaviour a shipped path reaches": """
        topology.base:linear_topology,single_switch_topology sim.network:Network.path,Network.tmin
        sim.packet:Packet.path_taken sim.node:Node.port_to
        core.replay:ReplayInjector.install_upfront,ReplayExperiment.run
        traffic.distributions:ConstantSize.__init__,ConstantSize.sample,ConstantSize.mean
        experiments.config:ExperimentResult.add_row pipeline.scenario:_default_sweep_name
        pipeline.cache:ScheduleCache.__len__,ScheduleCache.stats
        pipeline.cache:ScheduleCache.disk_entries utils.registry:Registry.__contains__,Registry.__len__
        schedulers.base:PriorityScheduler.peek,PriorityScheduler.queued_packets
        schedulers.lifo:LifoScheduler.__len__ schedulers.random_sched:RandomScheduler.__len__
        sim.flat_live:log_lines""",
    "a live packet with an explicit source route: only replays set routes, and replays never run live": """
        sim.flat_live:_source_route""",
    "repr() in debugging sessions and pytest's failure messages": """
        core.schedule:Schedule.__repr__ pipeline.cache:ScheduleCache.__repr__ sim.flow:Flow.__repr__
        sim.network:Network.__repr__ sim.node:Node.__repr__ sim.packet:Packet.__repr__
        utils.stats:QuantileSketch.__repr__""",
}
ALLOW = {f"repro.{module}:{name}": reason for reason, block in ALLOWED.items()
         for module, names in (t.split(":") for t in block.split()) for name in names.split(",")}


def _declares(node: ast.AST) -> bool:
    """Abstract, or a body that only raises ``NotImplementedError``: nothing to reach."""
    if any(getattr(d, "id", getattr(d, "attr", "")) == "abstractmethod" for d in node.decorator_list):
        return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    stmt = body[0] if len(body) == 1 else None
    raised = stmt.exc if isinstance(stmt, ast.Raise) else None
    return getattr(getattr(raised, "func", raised), "id", None) == "NotImplementedError"


def functions(package_dir: Path, package: str) -> list:
    """Every counted ``def`` under ``package_dir``, which imports as ``package``."""
    found = []

    def visit(node: ast.AST, module: str, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix + (getattr(child, "name", None) or "")
            if isinstance(child, DEFS) and not _declares(child):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(Function(f"{module}:{name}", str(path), first, child.end_lineno - first + 1))
            visit(child, module, path, name + "." if isinstance(child, (*DEFS, ast.ClassDef)) else prefix)

    for path in sorted(package_dir.rglob("*.py")):
        parts = (package, *path.relative_to(package_dir).with_suffix("").parts)
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), module, path, "")
    return found


def entered(drive) -> set:
    """``(real path, first line)`` of every code object entered, on any thread, while ``drive()`` runs."""
    seen: set = set()
    previous, previous_threads = sys.getprofile(), threading.getprofile()
    profile = lambda frame, event, arg: event == "call" and seen.add(frame.f_code)  # noqa: E731
    # Threads too: a pool's management thread runs done-callbacks such as the
    # serial writer's, on it or on the caller's thread as timing decides.
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        drive()
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous_threads)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}


def ledger(defs: list, seen: set, allow: dict) -> tuple:
    """``(never entered, those not allow-listed, stale allow-list keys)``."""
    never = [f for f in defs if (os.path.realpath(f.path), f.first) not in seen]
    unlisted = [f for f in never if f.key not in allow]
    return never, unlisted, sorted(set(allow) - {f.key for f in never})


def _commands(tmp: str, pinned: bool) -> list:
    cache, shards, s1, s2 = (os.path.join(tmp, n) for n in ("c", "sh", "1.jsonl.gz", "2.jsonl.gz"))
    smoke, json = ("--scale", "smoke"), ("--json",) if pinned else ()
    flags = ((), ("--workloads",), ("--slack-policies",), ("--backends",), ("--faults",))
    return [("list", *smoke, *flag, *j) for flag in flags for j in ((), ("--json",))] + [
        ("run", "--all", *smoke, "--cache-dir", cache),
        ("run", "--all", *smoke, "--cache-dir", cache, "--json"),
        ("run", "scale", *smoke, "--shard-packets", "10", "--cache-dir", shards),
        ("run", "table1", *smoke, "--replicates", "2", "--cache-dir", cache),
        ("run", "table1", "adversarial", *smoke, "--workload", "on-off-jamming",
         "--slack-policy", "deadline", "--cache-dir", cache),
        ("run", "figure2", *smoke, "--slack-policy", "null", "--cache-dir", cache),
        ("run", "faults", *smoke, "--fault", "outage-long", "--cache-dir", cache),
        ("record", "I2-1G-10G@70", *smoke, "--out", s1),
        ("record", "I2-1G-10G-fifo", *smoke, "--out", s2),
        ("replay", s1), ("replay", s1, "--mode", "lstf-preemptive"), ("replay", s1, "--json"),
        ("replay", s1, "--slack-policy", "deadline"), ("replay", s1, "--fault", "loss-5pct"),
        ("diff", s1, s2, *json), ("diff", "--replay", s1),
        ("fuzz", "--budget", "25", "--no-artifacts", *json),
    ]


def drive_shipped() -> None:
    """The commands unpinned, then pinned to ``python``; the examples; every import."""
    import repro
    from repro.__main__ import main

    for pin in ("", "python"):
        os.environ["REPRO_BACKEND"] = pin  # empty = unpinned
        with tempfile.TemporaryDirectory() as tmp:
            for argv in _commands(tmp, bool(pin)):
                with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(out):
                    code = main(list(argv))
                if code not in (0, 1):  # diff exits 1 on a divergence, fuzz if a pin skips an engine
                    raise SystemExit(f"repro {' '.join(argv)} exited {code}:\n{out.getvalue()}")
    del os.environ["REPRO_BACKEND"]
    for example in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(example)]
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        import_module(info.name)


def main(argv: list) -> int:
    """Run the ledger over ``src/repro``; 0 when every never-entered function is allowed."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sim import compiled

    compiled.kernel_available()  # build the kernel unprofiled, then forget it: the profiled
    compiled._memo.clear()  # run loads it, on a fresh checkout as on a warm one
    defs, home = functions(ROOT / "src" / "repro", "repro"), os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)  # whatever a command writes by default lands here
        try:
            never, unlisted, stale = ledger(defs, entered(drive_shipped), ALLOW)
        finally:
            os.chdir(home)
    for f in never if "-v" in argv else unlisted:
        print(f"{f.key} ({f.lines} lines){'' if f in unlisted else '  [allowed]'}")
    print("".join(f"stale allow-list entry, gone or entered: {key}\n" for key in stale), end="")
    print(f"{len(never)} of {len(defs)} functions never entered ({sum(f.lines for f in never)} "
          f"lines); {len(unlisted)} not allow-listed; {len(stale)} stale allow-list entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
