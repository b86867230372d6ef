"""The faults experiment group: replay fidelity when the network misbehaves.

The paper's universality argument assumes the replay network behaves like the
recorded one.  This group breaks that assumption deliberately: every recorded
schedule is replayed on a network carrying a registered fault schedule (see
:data:`repro.faults.FAULTS`) — Bernoulli and Gilbert-Elliott packet loss,
link-outage windows, periodic jamming bursts — and measures where LSTF's
replay fidelity and deadline performance degrade relative to the slack-aware
EDF and the slack-oblivious FIFO baselines.

Recording is always fault-free (the fault plan applies to the *replay* leg
only), so each row answers: given the same intended schedule, how much of it
does a candidate universal scheduler still deliver when the network drops,
jams, or loses links under it?  Rows report delivered fraction (packets that
survived the faults at all) next to the Table-1 overdue fractions, plus the
deadline-met fraction both over all deadline flows and over *delivered*
deadline flows — separating "missed because late" from "missed because the
network destroyed a packet".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import default_scenario
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import (
    Cell,
    CellResult,
    ExperimentDef,
    register_experiment,
    replay_scenario,
)
from repro.pipeline.scenario import (
    Scenario,
    expand_replicates,
    override_faults,
    override_slack_policy,
    override_workload,
)

#: Fault schedules swept by the group, mild to severe (registry names).
FAULT_SWEEP: Tuple[str, ...] = (
    "loss-0.1pct",
    "loss-1pct",
    "loss-5pct",
    "burst-loss",
    "outage-short",
    "outage-long",
    "jam-bursts",
)

#: Replay modes compared under each fault schedule: the paper's universal
#: candidate (LSTF), the deadline-aware alternative (EDF), and the
#: slack-oblivious baseline (FIFO).
FAULT_MODES: Tuple[str, ...] = ("lstf", "edf", "fifo")


def fault_scenarios(scale: ExperimentScale) -> List[Scenario]:
    """A fault-free baseline plus one scenario per swept fault schedule.

    All scenarios share the default Internet2 topology and the
    deadline-tagged workload (faults are most interesting where deadlines
    make lost packets measurable); each is later replayed under every mode
    in :data:`FAULT_MODES`.
    """
    base = default_scenario(scale, name="FLT-baseline", workload="deadline-tagged")
    scenarios = [base]
    for fault in FAULT_SWEEP:
        scenarios.append(
            dataclasses.replace(base, name=f"FLT-{fault}", faults=fault)
        )
    return scenarios


def fault_row(scenario: Scenario, mode: str, result) -> Dict[str, object]:
    """One (scenario, replay mode) outcome as a result row."""
    metrics = result.metrics
    return {
        "scenario": scenario.name,
        "fault": scenario.faults if scenario.faults is not None else "none",
        "fault_seed": scenario.fault_seed,
        "replay_mode": mode,
        "packets": metrics.total_packets,
        "delivered_fraction": metrics.delivered_fraction,
        "fraction_overdue": result.overdue_fraction,
        "fraction_overdue_beyond_T": result.overdue_beyond_threshold_fraction,
        "threshold": metrics.threshold,
        "deadline_flows": metrics.deadline_total,
        "deadline_met_replay": result.deadline_met_fraction_replay,
        "deadline_met_over_delivered": metrics.deadline_met_over_delivered_fraction,
    }


class FaultsDefinition(ExperimentDef):
    """Replay fidelity under injected faults, one cell per (scenario, mode)."""

    name = "faults"
    notes = (
        "Universality under failure: recorded schedules replayed on networks "
        "with injected loss, outages, and jamming; LSTF vs EDF vs FIFO."
    )

    supports_workload = True
    supports_replicates = True
    supports_slack_policy = True
    supports_faults = True

    def __init__(
        self,
        scenarios: Optional[Tuple[Scenario, ...]] = None,
        replicates: int = 1,
        workload: Optional[str] = None,
        slack_policy: Optional[str] = None,
        faults: Optional[str] = None,
        fault_seed: int = 0,
    ) -> None:
        self._scenarios = scenarios
        self.replicates = replicates
        self.workload = workload
        self.slack_policy = slack_policy
        self.faults = faults
        self.fault_seed = fault_seed

    def scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        """All scenarios in cell order, with overrides and replicates applied.

        A ``--fault`` override replaces the whole sweep: every scenario is
        pinned onto the requested schedule (the baseline row included), so
        the group becomes a single-fault mode comparison.
        """
        base = (
            list(self._scenarios)
            if self._scenarios is not None
            else fault_scenarios(scale)
        )
        if self.faults is not None:
            base = override_faults(base, self.faults, self.fault_seed)
        if self.workload is not None:
            base = override_workload(base, self.workload)
        if self.slack_policy is not None:
            base = override_slack_policy(base, self.slack_policy)
        return expand_replicates(base, self.replicates)

    def cells(self, scale: ExperimentScale) -> List[Cell]:
        """One cell per (scenario, replay mode); modes share one recording."""
        return [
            Cell(self.name, scenario.name, mode, scenario.seed, spec=scenario)
            for scenario in self.scenarios(scale)
            for mode in FAULT_MODES
        ]

    def run_cell(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> CellResult:
        scenario: Scenario = cell.spec
        result = replay_scenario(scenario, mode=cell.mode, cache=cache)
        return CellResult(cell=cell, row=fault_row(scenario, cell.mode, result))


register_experiment(FaultsDefinition())
