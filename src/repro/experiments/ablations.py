"""Ablations called out in the paper's Section 2.3.

* **Preemption** (item 5): SJF and LIFO originals are the hardest schedules
  to replay because they skew the slack distribution; with a preemptive LSTF
  the overdue fraction collapses (paper: 18.33% -> 0.24% for SJF, 14.77% ->
  0.25% for LIFO).
* **EDF equivalence** (Appendix E): the network-wide EDF deployment and
  LSTF are provably the same schedule in exact arithmetic; in the simulator
  they agree up to ties — packets with equal ``o(p)``, and float near-ties
  between LSTF's accumulated slack and EDF's ``o - tmin_remaining``, can
  swap (6 of 4,524 packets in the first 6 quick Table 1 scenarios).  This
  ablation reruns a replay under both and compares.
* **Omniscient initialization** (Appendix B): with per-hop output times in
  the header the replay must be perfect.

Each ablation is a pipeline experiment whose cells are (scenario x replay
mode); the modes replay the *same* recorded schedule, shared through the
content-addressed schedule cache even across pool workers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import default_scenario
from repro.pipeline.experiment import ScenarioExperimentDef, register_experiment
from repro.pipeline.scenario import Scenario


class ModeComparisonDefinition(ScenarioExperimentDef):
    """Base for ablations that replay the same schedules under several modes."""

    #: Row columns (beyond scenario identity) pulled from the replay metrics.
    columns: Tuple[str, ...] = ("fraction_overdue", "fraction_overdue_beyond_T")
    supports_workload = True
    supports_replicates = True

    def row(self, scenario: Scenario, mode: str, result) -> Dict[str, object]:
        row: Dict[str, object] = self.identity_columns(scenario, mode)
        row["packets"] = result.metrics.total_packets
        if "fraction_overdue" in self.columns:
            row["fraction_overdue"] = result.overdue_fraction
        if "fraction_overdue_beyond_T" in self.columns:
            row["fraction_overdue_beyond_T"] = result.overdue_beyond_threshold_fraction
        if "mean_lateness" in self.columns:
            row["mean_lateness"] = result.metrics.mean_lateness
        return row

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
    #: Original schedulers compared, one default scenario each.
    originals: Tuple[str, ...] = ("sjf", "lifo")

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
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
    notes = "Appendix E: EDF and LSTF replay the same schedule up to exact and float near-ties of o(p)."
    modes = ("lstf", "edf")
    columns = ("fraction_overdue", "mean_lateness")
    #: Original scheduler of the single scenario both modes re-schedule.
    original = "random"

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        return [default_scenario(scale, original=self.original)]


class OmniscientAblationDefinition(ModeComparisonDefinition):
    """Omniscient (per-hop) initialization versus black-box LSTF replay."""

    name = "ablation-omniscient"
    notes = "Appendix B: omniscient initialization replays any viable schedule perfectly."
    modes = ("omniscient", "lstf")
    #: Original scheduler of the single scenario both initializations replay.
    original = "random"

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        return [default_scenario(scale, original=self.original)]


register_experiment(PreemptionAblationDefinition())
register_experiment(EdfEquivalenceDefinition())
register_experiment(OmniscientAblationDefinition())
