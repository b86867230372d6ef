"""The heuristics scenario group: LSTF with heuristic slack vs. everything else.

Section 3 of the paper asks whether LSTF is useful *without* an oracle: can
simple, schedule-free slack initializations pursue concrete performance
objectives?  This experiment reproduces the Section-3.1/3.2 comparison on
deadline-tagged workloads (including the adversarial one): every scheme sees
the *same* offered traffic — the packets, ingress times, sizes, paths, and
flow deadlines of one recorded baseline run — and each row reports the
schedule that scheme actually produced, judged on its own terms
(:func:`~repro.core.metrics.schedule_statistics`: mean and p99 packet delay,
deadline-met fraction).

Schemes fall into three kinds:

* **direct** — a conventional scheduler (FIFO, SRPT) records its own
  schedule from the workload and is measured directly;
* **live** — LSTF is actually *deployed*: the scheduler runs at every port
  while a live-capable slack policy from
  :data:`repro.core.slack_policy.SLACK_POLICIES` stamps each packet at send
  time (``SlackPolicyDef.build_live``), exactly as the paper's Section-3
  deployment would.  No replay is involved; the recorded schedule *is* the
  deployment's own output.
* **replay** — the baseline FIFO schedule is replayed with a candidate
  scheduler whose headers are stamped by a slack policy
  (``SlackPolicyDef.build_initializer``: heuristic LSTF variants,
  true-deadline EDF) or by the omniscient initializer (the perfect-replay
  reference).  Replaying the FIFO baseline is what holds the offered
  traffic fixed across the replay schemes.

Because the workloads are open-loop (UDP arrivals drawn from the seed, not
from feedback), every kind sees the *same offered traffic*, so live and
replay columns are directly comparable: ``lstf-live-zero`` vs ``lstf-zero``
asks what the zero-slack heuristic does deployed for real versus evaluated
on the FIFO baseline's recording.

The interesting comparisons: ``lstf-deadline`` (deadline minus ideal
bottleneck residual) versus ``fifo`` on deadline-met fraction — the paper's
claim that deadline-driven slack closes most of the gap to an omniscient
replay — and ``lstf-zero``/``lstf-static-delay`` (and their live
deployments) versus ``fifo`` on delay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.metrics import schedule_statistics
from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import default_scenario
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import (
    Cell,
    CellResult,
    ExperimentDef,
    cached_schedule,
    register_experiment,
    replay_scenario,
)
from repro.pipeline.scenario import Scenario, expand_replicates

#: Original scheduler recording the shared baseline traffic for replay rows.
BASELINE_ORIGINAL = "fifo"

#: Workloads the heuristics matrix runs over: the adversarial deadline
#: workload plus the tighter, mostly-tagged variant from the ``heuristics``
#: registry group.
HEURISTIC_WORKLOADS: Tuple[str, ...] = ("deadline-tagged", "deadline-tagged-tight")


@dataclass(frozen=True)
class HeuristicScheme:
    """One column of the Section-3 comparison matrix.

    Attributes:
        label: Scheme name (the cell's ``mode`` and the row's ``scheme``).
        kind: ``"direct"`` (measure the original scheduler's own schedule),
            ``"live"`` (deploy ``original`` with a live slack policy
            stamping packets at send time, measure its own schedule), or
            ``"replay"`` (replay the FIFO baseline under a candidate
            scheduler + slack policy).
        original: Original scheduler recording the schedule (direct and
            live schemes).
        replay_mode: Candidate scheduler deployed in the replay.
        slack_policy: Slack-policy registry name — stamping replayed
            headers (replay schemes) or packets at send time (live
            schemes); ``None`` = the replay mode's own initializer.
    """

    label: str
    kind: str
    original: str = BASELINE_ORIGINAL
    replay_mode: str = "lstf"
    slack_policy: Optional[str] = None

    @property
    def slack_mode(self) -> str:
        """The scenario ``slack_mode`` this scheme's policy applies in."""
        return "live" if self.kind == "live" else "replay"


#: The Section-3 comparison matrix, in row-group order: conventional
#: schedulers first, then the live heuristic-LSTF deployments, then the
#: heuristic replays, then the oracle-informed replays.
SCHEMES: Tuple[HeuristicScheme, ...] = (
    HeuristicScheme(label="fifo", kind="direct", original="fifo"),
    HeuristicScheme(label="srpt", kind="direct", original="srpt"),
    HeuristicScheme(label="lstf-live-zero", kind="live", original="lstf", slack_policy="zero"),
    HeuristicScheme(
        label="lstf-live-static-delay", kind="live", original="lstf", slack_policy="static-delay"
    ),
    HeuristicScheme(
        label="lstf-live-flow-size", kind="live", original="lstf", slack_policy="flow-size"
    ),
    HeuristicScheme(label="edf-deadline", kind="replay", replay_mode="edf", slack_policy="deadline"),
    HeuristicScheme(label="lstf-zero", kind="replay", slack_policy="zero"),
    HeuristicScheme(label="lstf-static-delay", kind="replay", slack_policy="static-delay"),
    HeuristicScheme(label="lstf-deadline", kind="replay", slack_policy="deadline"),
    HeuristicScheme(label="lstf-replay", kind="replay", slack_policy="replay"),
    HeuristicScheme(label="omniscient", kind="replay", replay_mode="omniscient"),
)

#: Schemes by label, for cell execution (a cell's ``mode`` is the label).
SCHEME_BY_LABEL: Dict[str, HeuristicScheme] = {scheme.label: scheme for scheme in SCHEMES}


def heuristic_scenario(
    scale: ExperimentScale, workload: str, scheme: HeuristicScheme
) -> Scenario:
    """The scenario one (workload, scheme) cell records and/or replays."""
    base = default_scenario(
        scale,
        name=f"HEU-{workload}/{scheme.label}",
        original=scheme.original,
        replay_mode=scheme.replay_mode,
        workload=workload,
    )
    return replace(
        base, slack_policy=scheme.slack_policy, slack_mode=scheme.slack_mode
    )


def heuristics_row(
    scenario: Scenario, scheme: HeuristicScheme, schedule, replay_result=None
) -> Dict[str, object]:
    """One scheme's outcome as a result row.

    All rows share one rectangular column set; the replay-fidelity columns
    (``fraction_overdue`` vs. the FIFO baseline) are ``None`` for direct
    and live schemes (they are measured on their own schedules, not against
    a baseline replay), and the deadline columns report 0 flows for
    untagged seeds.
    """
    stats = schedule_statistics(schedule)
    return {
        "scenario": scenario.name,
        "workload": scenario.workload_name,
        "scheme": scheme.label,
        "slack_policy": scheme.slack_policy,
        "utilization": scenario.utilization,
        "packets": stats.packets,
        "mean_delay": stats.mean_delay,
        "p99_delay": stats.p99_delay,
        "deadline_flows": stats.deadline_total,
        "deadline_met_fraction": stats.deadline_met_fraction,
        "fraction_overdue": (
            None if replay_result is None else replay_result.overdue_fraction
        ),
    }


class HeuristicsDefinition(ExperimentDef):
    """The Section-3 heuristic comparison, one cell per (workload, scheme)."""

    name = "heuristics"
    notes = (
        "Paper (Section 3): LSTF with heuristic slack stays competitive with "
        "purpose-built schedulers; deadline-driven slack (deadline minus ideal "
        "bottleneck residual) should beat FIFO on deadline-met fraction and "
        "approach the omniscient replay."
    )

    supports_workload = True
    supports_replicates = True

    def scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        """All scenarios in cell order (also feeds the CLI scenario lister).

        ``--workload`` pins one workload in place of :data:`HEURISTIC_WORKLOADS`.
        """
        workloads = HEURISTIC_WORKLOADS if self.workload is None else (self.workload,)
        base = [
            heuristic_scenario(scale, workload, scheme)
            for workload in workloads
            for scheme in SCHEMES
        ]
        return expand_replicates(base, self.replicates)

    def cells(self, scale: ExperimentScale) -> List[Cell]:
        # The scheme rides in the cell's mode (scenario names carry replicate
        # suffixes, so the label is not a reliable way back to the scheme).
        return [
            Cell(
                self.name,
                scenario.name,
                scenario.name.split("/", 1)[1].split("#", 1)[0],
                scenario.seed,
                spec=scenario,
            )
            for scenario in self.scenarios(scale)
        ]

    def run_cell(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> CellResult:
        scenario: Scenario = cell.spec
        scheme = SCHEME_BY_LABEL[cell.mode]
        if scheme.kind in ("direct", "live"):
            # Both kinds measure the schedule the deployment itself
            # produced; live schemes additionally install the scenario's
            # slack policy at send time (record_scenario_schedule reads
            # scenario.slack_mode) and key their cache entries by it.
            row = heuristics_row(scenario, scheme, cached_schedule(scenario, cache))
        else:
            result = replay_scenario(scenario, mode=scheme.replay_mode, cache=cache)
            row = heuristics_row(scenario, scheme, result.replayed, replay_result=result)
        return CellResult(cell=cell, row=row)


register_experiment(HeuristicsDefinition())
