"""Ablations called out in the paper's Section 2.3.

* **Preemption** (item 5): SJF and LIFO originals are the hardest schedules
  to replay because they skew the slack distribution; with a preemptive LSTF
  the overdue fraction collapses (paper: 18.33% -> 0.24% for SJF, 14.77% ->
  0.25% for LIFO).
* **EDF equivalence** (Appendix E): the network-wide EDF deployment must
  produce the same replay quality as LSTF (they are provably the same
  schedule); this ablation reruns a replay under both and compares.
* **Omniscient initialization** (Appendix B): with per-hop output times in
  the header the replay must be perfect.

Each ablation is a pipeline experiment whose cells are (scenario x replay
mode); the modes replay the *same* recorded schedule, shared through the
content-addressed schedule cache even across pool workers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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
from repro.pipeline.scenario import Scenario, expand_replicates, override_workload


class ModeComparisonDefinition(ExperimentDef):
    """Base for ablations that replay the same schedules under several modes."""

    #: Replay modes compared, in row order.
    modes: Tuple[str, ...] = ()
    #: Row columns (beyond scenario identity) pulled from the replay metrics.
    columns: Tuple[str, ...] = ("fraction_overdue", "fraction_overdue_beyond_T")
    supports_workload = True
    supports_replicates = True

    def scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        """The scenarios whose schedules this comparison replays (subclass hook)."""
        raise NotImplementedError

    def cells(self, scale: ExperimentScale) -> List[Cell]:
        scenarios = self.scenarios(scale)
        if self.workload is not None:
            scenarios = override_workload(scenarios, self.workload)
        return [
            Cell(self.name, scenario.name, mode, scenario.seed, spec=scenario)
            for scenario in expand_replicates(scenarios, self.replicates)
            for mode in self.modes
        ]

    def run_cell(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> CellResult:
        scenario: Scenario = cell.spec
        result = replay_scenario(scenario, mode=cell.mode, cache=cache)
        row: Dict[str, object] = self.identity_columns(scenario, cell.mode)
        row["packets"] = result.metrics.total_packets
        if "fraction_overdue" in self.columns:
            row["fraction_overdue"] = result.overdue_fraction
        if "fraction_overdue_beyond_T" in self.columns:
            row["fraction_overdue_beyond_T"] = result.overdue_beyond_threshold_fraction
        if "mean_lateness" in self.columns:
            row["mean_lateness"] = result.metrics.mean_lateness
        return CellResult(cell=cell, row=row)

    def identity_columns(self, scenario: Scenario, mode: str) -> Dict[str, object]:
        """Leading row columns identifying the cell.

        The scenario name only appears when seed replicates are in play —
        it carries the ``#rN`` suffix that tells the replicate rows apart —
        so single-replicate runs keep the paper tables' compact row shape.
        """
        if self.replicates > 1:
            return {"scenario": scenario.name, "replay_mode": mode}
        return {"replay_mode": mode}


class PreemptionAblationDefinition(ModeComparisonDefinition):
    """Non-preemptive versus preemptive LSTF replay for skew-heavy originals."""

    name = "ablation-preemption"
    notes = (
        "Paper: preemption reduces the overdue fraction for SJF originals "
        "from 18.33% to 0.24% and for LIFO from 14.77% to 0.25%."
    )
    modes = ("lstf", "lstf-preemptive")

    def __init__(self, originals: Sequence[str] = ("sjf", "lifo")) -> None:
        self.originals = tuple(originals)

    def scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        """One default scenario per compared original scheduler."""
        return [
            default_scenario(scale, original=original, name=f"I2-{original}")
            for original in self.originals
        ]

    def identity_columns(self, scenario: Scenario, mode: str) -> Dict[str, object]:
        columns = super().identity_columns(scenario, mode)
        return {"original": scenario.original, **columns}


class EdfEquivalenceDefinition(ModeComparisonDefinition):
    """LSTF versus network-wide EDF replay of the same original schedule."""

    name = "ablation-edf"
    result_name = "ablation-edf-equivalence"
    notes = "Appendix E: EDF and LSTF produce the same replay schedule."
    modes = ("lstf", "edf")
    columns = ("fraction_overdue", "mean_lateness")

    def __init__(self, original: str = "random") -> None:
        self.original = original

    def scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        """The single shared scenario both replay modes re-schedule."""
        return [default_scenario(scale, original=self.original)]


class OmniscientAblationDefinition(ModeComparisonDefinition):
    """Omniscient (per-hop) initialization versus black-box LSTF replay."""

    name = "ablation-omniscient"
    notes = "Appendix B: omniscient initialization replays any viable schedule perfectly."
    modes = ("omniscient", "lstf")

    def __init__(self, original: str = "random") -> None:
        self.original = original

    def scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        """The single shared scenario both initializations replay."""
        return [default_scenario(scale, original=self.original)]


register_experiment(PreemptionAblationDefinition())
register_experiment(EdfEquivalenceDefinition())
register_experiment(OmniscientAblationDefinition())
