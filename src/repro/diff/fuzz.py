"""Cross-backend differential fuzz harness.

The bit-identity contract says every backend replays every schedule
identically, and a live deployment of a stateless slack policy matches its
replay twin.  The golden fixtures pin that contract on a handful of curated
scenarios; this module hammers it with *seeded random* scenarios
(:mod:`repro.pipeline.synth`) and verifies every comparison with the
first-divergence comparator (:mod:`repro.diff.comparator`), so a contract
break surfaces as a debuggable field-level report instead of a digest
mismatch.

Four comparison kinds:

* ``twin`` — the same schedule replayed twice on the reference engine
  (run-over-run determinism);
* ``backend-pair`` — reference engine versus each other available backend
  (the cross-backend bit-identity contract).  An ``lstf-preemptive``
  scenario makes every accelerated engine decline, and a fault plan makes
  ``compiled`` decline, so both legs run on the reference — a *degenerate*
  pair, counted as such; a sweep in which a listed backend never executed a
  leg fails, and the report counts the legs that replayed a fault plan per
  engine (``vectorized`` must see some);
* ``live-replay`` — a live LSTF deployment under a stateless slack policy
  versus replaying the recorded baseline under the same policy (the paper's
  replay-methodology claim, fuzzed);
* ``record-pair`` — the scenario recorded under the ``python`` pin (the OO
  engine) versus recorded as the process is (the flat recording loop,
  :mod:`repro.sim.flat_record`, for the originals it accepts), event counts
  included.  A sweep that planned one and never saw a recording land on the
  flat loop fails: the selection must not go silently dead.

On a divergence the harness **shrinks** the scenario greedily
(:func:`repro.pipeline.synth.simplified`) to a minimal still-diverging
configuration and persists it as a JSON artifact that ``python -m repro
diff --case <artifact>`` re-runs verbatim.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.core.replay import replay_pair, replay_schedule
from repro.diff.comparator import DEFAULT_CONTEXT, Divergence, FieldDiff, first_divergence
from repro.experiments.config import ExperimentScale
from repro.pipeline.experiment import record_scenario_schedule
from repro.pipeline.scenario import Scenario
from repro.pipeline.synth import (
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simplified,
)
from repro.sim.backend import REFERENCE_BACKEND, describe_backends, select_engine

#: Format tag of persisted fuzz-case artifacts.
FUZZ_ARTIFACT_FORMAT = "repro-fuzz-case/1"

#: Stateless policies eligible for the live-vs-replay twin (a stateful or
#: queue-reactive policy would legitimately diverge from its replay).
LIVE_TWIN_POLICIES = ("zero", "static-delay")

#: Every fourth fuzz case is a live-vs-replay twin.
LIVE_TWIN_STRIDE = 4

#: Originals whose recordings the flat loop is expected to take; the cases
#: that get a ``record-pair`` comparison.
FLAT_ORIGINALS = ("fifo", "lifo", "sjf", "random")


@dataclass(frozen=True)
class ComparisonSpec:
    """One comparison a fuzz case runs.

    Attributes:
        kind: ``"twin"``, ``"backend-pair"``, ``"live-replay"``, or
            ``"record-pair"``.
        backend_a: Left replay engine (``"twin"``/``"backend-pair"``).
        backend_b: Right replay engine.
    """

    kind: str
    backend_a: str = "python"
    backend_b: str = "python"

    def to_dict(self) -> dict:
        """JSON-serializable form (persisted in artifacts)."""
        return {"kind": self.kind, "backend_a": self.backend_a, "backend_b": self.backend_b}

    @classmethod
    def from_dict(cls, data: dict) -> "ComparisonSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            backend_a=data.get("backend_a", "python"),
            backend_b=data.get("backend_b", "python"),
        )

    def describe(self) -> str:
        """Human-readable label for logs and reports."""
        if self.kind == "live-replay":
            return "live-vs-replay twin"
        if self.kind == "record-pair":
            return "record-pair: python-pinned vs unpinned recording"
        return f"{self.kind}: {self.backend_a} vs {self.backend_b}"


def _record_pair(scenario: Scenario, topology, workload, context: int) -> Optional[Divergence]:
    """Record under the ``python`` pin and as the process is; diff schedules, then event counts."""
    from repro.pipeline.runner import backend_scope
    from repro.sim.engine import Simulator

    legs = []
    for pin in ("python", None):
        before = Simulator.events_executed_total
        with backend_scope(pin):
            schedule = record_scenario_schedule(scenario, topology, workload)
        legs.append((schedule, Simulator.events_executed_total - before))
    (pinned, pinned_events), (unpinned, unpinned_events) = legs
    labels = dict(label_a="record:python", label_b="record:unpinned")
    divergence = first_divergence(pinned, unpinned, context=context, **labels)
    if divergence is None and pinned_events != unpinned_events:
        divergence = Divergence(
            packet_id=-1,
            flow_id=-1,
            index=len(pinned),
            kind="fields",
            fields=[FieldDiff("events_executed", pinned_events, unpinned_events)],
            packets_a=len(pinned),
            packets_b=len(unpinned),
            **labels,
        )
    return divergence


def run_comparison(
    scenario: Scenario,
    spec: ComparisonSpec,
    context: int = DEFAULT_CONTEXT,
    engines: Optional[List[str]] = None,
) -> Optional[Divergence]:
    """Run one comparison; return its first divergence, or ``None``.

    ``"twin"`` and ``"backend-pair"`` record the scenario once and replay it
    through :func:`repro.core.replay.replay_pair`; ``"live-replay"`` records
    a *live* LSTF deployment of the scenario's (stateless) slack policy and
    compares it against replaying the scenario's recorded baseline under
    the same policy; ``"record-pair"`` records twice and replays nothing.
    All comparisons are read-only: nothing is cached, and a divergence never
    mutates either schedule.

    A ``"twin"`` or ``"backend-pair"`` names the engine each leg *asks for*;
    the one it runs on is :func:`~repro.sim.backend.select_engine`'s answer
    for the scenario's configuration.  Those names label the divergence and
    are appended to ``engines`` when a list is given.
    """
    topology = scenario.build_topology()
    workload = scenario.workload()
    if spec.kind == "record-pair":
        return _record_pair(scenario, topology, workload, context)
    if spec.kind == "live-replay":
        policy = scenario.slack_policy_def()
        if policy is None or scenario.slack_policy not in LIVE_TWIN_POLICIES:
            raise ValueError(
                f"live-replay comparison needs a stateless policy from "
                f"{LIVE_TWIN_POLICIES}; scenario carries {scenario.slack_policy!r}"
            )
        baseline = record_scenario_schedule(
            replace(scenario, slack_policy=None), topology, workload
        )
        replayed = replay_schedule(
            topology,
            baseline,
            mode="lstf",
            initializer=policy.build_initializer(),
            backend="python",
        )
        live = record_scenario_schedule(
            replace(scenario, original="lstf", slack_mode="live"), topology, workload
        )
        return first_divergence(
            replayed,
            live,
            context=context,
            label_a=f"replay:lstf+{policy.name}",
            label_b=f"live:lstf+{policy.name}",
        )
    schedule = record_scenario_schedule(scenario, topology, workload)
    initializer = None
    policy = scenario.slack_policy_def()
    if policy is not None and scenario.slack_mode == "replay":
        initializer = policy.build_initializer()
    config = dict(mode=scenario.replay_mode, faults=scenario.fault_plan())
    ran_a, ran_b = (
        select_engine(backend, topology, **config)[0].name
        for backend in (spec.backend_a, spec.backend_b)
    )
    if engines is not None:
        engines += (ran_a, ran_b)
    replayed_a, replayed_b = replay_pair(
        topology, schedule, spec.backend_a, spec.backend_b, initializer=initializer, **config
    )
    return first_divergence(
        replayed_a,
        replayed_b,
        context=context,
        label_a=ran_a,
        label_b=ran_b if ran_b != ran_a else f"{ran_b}#2",
    )


def case_plan(
    seed: int,
    index: int,
    backends: List[str],
    scale: Optional[ExperimentScale] = None,
) -> Tuple[Scenario, List[ComparisonSpec]]:
    """The ``index``-th fuzz case: a scenario plus the comparisons to run.

    Every :data:`LIVE_TWIN_STRIDE`-th case is coerced into a live-vs-replay
    twin (LSTF, a stateless policy, no faults); every other case runs the
    reference determinism twin plus one ``backend-pair`` comparison per
    available non-reference backend, plus a ``record-pair`` when the original
    is one of :data:`FLAT_ORIGINALS`.
    """
    scenario = random_scenario(seed, index, scale)
    if index % LIVE_TWIN_STRIDE == LIVE_TWIN_STRIDE - 1:
        policy = LIVE_TWIN_POLICIES[(index // LIVE_TWIN_STRIDE) % len(LIVE_TWIN_POLICIES)]
        scenario = replace(
            scenario,
            replay_mode="lstf",
            slack_policy=policy,
            slack_mode="replay",
            faults=None,
            fault_seed=0,
        )
        return scenario, [ComparisonSpec("live-replay")]
    specs = [ComparisonSpec("twin", "python", "python")]
    specs += [
        ComparisonSpec("backend-pair", "python", name)
        for name in backends
        if name != "python"
    ]
    if scenario.original in FLAT_ORIGINALS:
        specs.append(ComparisonSpec("record-pair"))
    return scenario, specs


def shrink_case(
    scenario: Scenario,
    spec: ComparisonSpec,
    context: int = DEFAULT_CONTEXT,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[Scenario, Divergence, List[str]]:
    """Greedily minimize a diverging scenario.

    Repeatedly tries the one-step simplifications of
    :func:`repro.pipeline.synth.simplified` (most drastic first) and keeps
    any candidate that still diverges, until no candidate does.  The
    returned divergence is the minimized scenario's own (re-verified, not
    carried over from the original).

    Returns:
        ``(minimal_scenario, divergence, steps)`` where ``steps`` describes
        each accepted simplification in order.
    """
    divergence = run_comparison(scenario, spec, context)
    if divergence is None:
        raise ValueError("shrink_case called on a scenario that does not diverge")
    steps: List[str] = []
    improved = True
    while improved:
        improved = False
        for description, candidate in simplified(scenario):
            if spec.kind == "live-replay" and (
                candidate.slack_policy not in LIVE_TWIN_POLICIES
                or candidate.replay_mode != "lstf"
            ):
                continue
            candidate_divergence = run_comparison(candidate, spec, context)
            if candidate_divergence is not None:
                scenario = candidate
                divergence = candidate_divergence
                steps.append(description)
                if log is not None:
                    log(f"  shrink: {description} still diverges")
                improved = True
                break
    return scenario, divergence, steps


@dataclass
class FuzzFailure:
    """One minimized diverging fuzz case."""

    index: int
    scenario: Scenario
    comparison: ComparisonSpec
    divergence: Divergence
    shrink_steps: List[str] = field(default_factory=list)
    artifact_path: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-serializable form (embedded in the report payload)."""
        return {
            "index": self.index,
            "scenario": scenario_to_dict(self.scenario),
            "comparison": self.comparison.to_dict(),
            "divergence": self.divergence.to_dict(),
            "shrink_steps": list(self.shrink_steps),
            "artifact_path": self.artifact_path,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep."""

    budget: int
    seed: int
    scale_label: str
    backends: List[str]
    cases: int = 0
    comparisons: int = 0
    record_pairs: int = 0
    flat_recordings: int = 0
    #: Replay legs of ``twin`` / ``backend-pair`` comparisons, by the engine that ran them.
    engine_runs: Counter = field(default_factory=Counter)
    #: The legs of :attr:`engine_runs` that replayed a (non-empty) fault plan.
    faulted_runs: Counter = field(default_factory=Counter)
    #: ``backend-pair`` comparisons by the backend they name, and how many of
    #: those were degenerate: both legs ran on the reference engine.
    backend_pairs: Counter = field(default_factory=Counter)
    degenerate_pairs: Counter = field(default_factory=Counter)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def flat_loop_exercised(self) -> bool:
        """Whether a recording landed on the flat loop, if any ``record-pair`` ran."""
        return self.flat_recordings > 0 or self.record_pairs == 0

    @property
    def idle_engines(self) -> List[str]:
        """The listed backends that never ran a replay leg."""
        return [name for name in self.backends if not self.engine_runs[name]]

    @property
    def ok(self) -> bool:
        """Whether the sweep completed without any divergence — and really
        compared what it lists: a recording on the flat loop if it planned
        ``record-pair`` comparisons, a replay leg on every backend."""
        return not self.failures and self.flat_loop_exercised and not self.idle_engines

    def to_dict(self) -> dict:
        """JSON-serializable form (the CLI's ``--json`` payload)."""
        return {
            "format": "repro-fuzz-report/1",
            "budget": self.budget,
            "seed": self.seed,
            "scale": self.scale_label,
            "backends": list(self.backends),
            "cases": self.cases,
            "comparisons": self.comparisons,
            "record_pairs": self.record_pairs,
            "flat_recordings": self.flat_recordings,
            "engine_runs": {name: self.engine_runs[name] for name in self.backends},
            "faulted_runs": {name: self.faulted_runs[name] for name in self.backends},
            "backend_pairs": {
                name: {"comparisons": count, "degenerate": self.degenerate_pairs[name]}
                for name, count in self.backend_pairs.items()
            },
            "divergences": len(self.failures),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def format(self) -> str:
        """Human-readable sweep summary (plus each failure's report)."""
        lines = [
            f"fuzz: {self.cases} case(s), {self.comparisons} comparison(s) at "
            f"{self.scale_label} scale, seed {self.seed}, backends: "
            f"{', '.join(self.backends)}; {self.flat_recordings} recording(s) "
            "on the flat loop",
            "replay legs by the engine that ran them: "
            + ", ".join(
                f"{name} {self.engine_runs[name]} ({self.faulted_runs[name]} under a fault plan)"
                for name in self.backends
            )
            + "".join(
                f"; {self.degenerate_pairs[name]} of {count} {name} backend-pair(s) "
                f"degenerate (both legs on {REFERENCE_BACKEND})"
                for name, count in self.backend_pairs.items()
            ),
        ]
        if not self.flat_loop_exercised:
            lines.append(
                f"NO FLAT RECORDING: {self.record_pairs} record-pair comparison(s) ran "
                "but every recording was declined (is the process pinned to python?)"
            )
        if self.idle_engines:
            lines.append(
                f"ENGINE NEVER EXECUTED: {', '.join(self.idle_engines)} — every replay "
                "that named it was declined (or none was planned); raise --budget"
            )
        if self.ok:
            lines.append("no divergence found: all comparisons bit-identical")
        for failure in self.failures:
            lines.append(
                f"DIVERGENCE in case {failure.index} "
                f"({failure.comparison.describe()}), minimized via "
                f"[{', '.join(failure.shrink_steps) or 'no shrink'}]"
                + (
                    f", artifact: {failure.artifact_path}"
                    if failure.artifact_path
                    else ""
                )
            )
            lines.append(failure.divergence.format())
        return "\n".join(lines)


def write_artifact(
    directory: str, seed: int, failure: FuzzFailure
) -> str:
    """Persist one minimized failure as a re-runnable JSON artifact.

    The artifact is self-contained: it embeds the full scenario (scale
    included) and the comparison spec, so ``python -m repro diff --case
    <path>`` reproduces the divergence with no other state.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"case-{seed}-{failure.index}.json")
    payload = {
        "format": FUZZ_ARTIFACT_FORMAT,
        "seed": seed,
        "index": failure.index,
        "scenario": scenario_to_dict(failure.scenario),
        "comparison": failure.comparison.to_dict(),
        "shrink_steps": list(failure.shrink_steps),
        "divergence": failure.divergence.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, default=str)
        stream.write("\n")
    return path


def load_case(path: str) -> Tuple[Scenario, ComparisonSpec]:
    """Load a fuzz-case artifact back into ``(scenario, comparison)``.

    Raises:
        ValueError: if the file is not a :data:`FUZZ_ARTIFACT_FORMAT`
            payload (a schedule file, say, or a report).
    """
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    if payload.get("format") != FUZZ_ARTIFACT_FORMAT:
        raise ValueError(
            f"{path}: not a {FUZZ_ARTIFACT_FORMAT} artifact "
            f"(format={payload.get('format')!r})"
        )
    return (
        scenario_from_dict(payload["scenario"]),
        ComparisonSpec.from_dict(payload["comparison"]),
    )


def run_fuzz(
    budget: int = 25,
    seed: int = 1,
    scale: Optional[ExperimentScale] = None,
    backends: Optional[List[str]] = None,
    context: int = DEFAULT_CONTEXT,
    artifact_dir: Optional[str] = "fuzz-artifacts",
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run a differential fuzz sweep of ``budget`` seeded cases.

    Each case records one random scenario and asserts bit-identity across
    its planned comparisons (see :func:`case_plan`); the first divergence of
    a case stops that case (first divergence wins), is optionally shrunk to
    a minimal reproducer, persisted under ``artifact_dir``, and the sweep
    *continues* — one failing case must not hide another.

    Args:
        budget: Number of cases.
        seed: Stream seed; the same ``(seed, budget, backends)`` sweep is
            identical everywhere.
        scale: Scale preset (default: smoke).
        backends: Replay engines to pair against the reference (default:
            every available engine, reference first).  Each must run at
            least one replay leg or the sweep fails (:attr:`FuzzReport.ok`).
        context: Neighbors per side in divergence reports.
        artifact_dir: Where minimized repro artifacts are written (``None``
            disables persistence).
        shrink: Whether to minimize failing scenarios before persisting.
        log: Progress sink (e.g. ``print``); ``None`` is silent.
    """
    from repro.sim.flat_record import log_lines

    scale = scale if scale is not None else ExperimentScale.smoke()
    if backends is None:
        backends = [e["name"] for e in reversed(describe_backends()) if e["available"]]
    report = FuzzReport(
        budget=budget, seed=seed, scale_label=scale.label, backends=list(backends)
    )
    with log_lines() as recorder_log:
        for index in range(budget):
            scenario, specs = case_plan(seed, index, backends, scale)
            report.cases += 1
            plan = scenario.fault_plan()
            faulted = plan is not None and not plan.is_empty()
            if log is not None:
                log(
                    f"case {index}: {scenario.topology}/{scenario.original}"
                    f"@{scenario.utilization:g} mode={scenario.replay_mode} "
                    f"workload={scenario.workload_name} "
                    f"policy={scenario.slack_policy or '-'} "
                    f"faults={scenario.faults or '-'} "
                    f"({len(specs)} comparison(s))"
                )
            for spec in specs:
                ran: List[str] = []
                divergence = run_comparison(scenario, spec, context, ran)
                report.comparisons += 1
                report.record_pairs += spec.kind == "record-pair"
                report.engine_runs.update(ran)
                if faulted:
                    report.faulted_runs.update(ran)
                if spec.kind == "backend-pair":
                    report.backend_pairs[spec.backend_b] += 1
                    report.degenerate_pairs[spec.backend_b] += set(ran) == {REFERENCE_BACKEND}
                if divergence is None:
                    continue
                if log is not None:
                    log(f"  DIVERGENCE ({spec.describe()}); shrinking...")
                steps: List[str] = []
                minimal = scenario
                if shrink:
                    minimal, divergence, steps = shrink_case(
                        scenario, spec, context, log=log
                    )
                failure = FuzzFailure(
                    index=index,
                    scenario=minimal,
                    comparison=spec,
                    divergence=divergence,
                    shrink_steps=steps,
                )
                if artifact_dir is not None:
                    failure.artifact_path = write_artifact(artifact_dir, seed, failure)
                report.failures.append(failure)
                break  # first divergence wins for this case; move on
    report.flat_recordings = sum(line.endswith("on the flat loop") for line in recorder_log)
    return report
