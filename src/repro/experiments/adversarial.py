"""The adversarial scenario group: LSTF replay under perturbed workloads.

The paper evaluates LSTF replay against benign Poisson/heavy-tail workloads;
this experiment stresses the same record-and-replay methodology with the
adversarial workloads of the ``"adversarial"`` registry group (see
:mod:`repro.traffic.registry`): synchronized incast bursts, ON/OFF jamming
windows (arXiv:1705.07018-style), inflated elephant tails, deadline-tagged
flows, and a stacked combination.  Every row reports the Table-1 replay
metrics (fraction overdue, fraction overdue by more than one bottleneck
transmission time) so the adversarial results are directly comparable to the
paper's; deadline-tagged scenarios additionally report the fraction of
deadline flows on time in the original run versus the replay.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import _utilization_row_name, default_scenario
from repro.pipeline.experiment import ScenarioExperimentDef, register_experiment
from repro.pipeline.scenario import Scenario, Sweep
from repro.traffic.registry import WORKLOADS

#: Workload swept across utilizations (the jamming bursts interact with the
#: offered load most directly, so that is the one worth a Sweep row group).
SWEEP_WORKLOAD = "on-off-jamming"
SWEEP_UTILIZATIONS: Tuple[float, ...] = (0.4, 0.9)


def adversarial_scenarios(scale: ExperimentScale) -> List[Scenario]:
    """One default-topology scenario per adversarial workload, plus a
    utilization :class:`Sweep` for the jamming workload."""
    scenarios: List[Scenario] = []
    for workload in WORKLOADS.group("adversarial"):
        scenarios.append(
            default_scenario(scale, name=f"ADV-{workload.name}", workload=workload.name)
        )
    sweep = Sweep(
        base=default_scenario(
            scale, name=f"ADV-{SWEEP_WORKLOAD}", workload=SWEEP_WORKLOAD
        ),
        parameter="utilization",
        values=SWEEP_UTILIZATIONS,
        namer=_utilization_row_name,
    )
    scenarios.extend(sweep)
    return scenarios


class AdversarialDefinition(ScenarioExperimentDef):
    """LSTF replay across the adversarial workload group, one cell per row."""

    name = "adversarial"
    notes = (
        "Adversarial stress tests beyond the paper's workload matrix: incast "
        "bursts, ON/OFF jamming, inflated tails, deadline-tagged flows "
        "(arXiv:1705.07018-style adversarial arrivals)."
    )

    supports_workload = True
    supports_replicates = True
    supports_slack_policy = True

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        return adversarial_scenarios(scale)

    def pin_workload(self, scenarios: List[Scenario], workload: str) -> List[Scenario]:
        """Filter to ``workload`` when it is part of the group; otherwise pin
        every scenario onto it (a true override)."""
        matching = [s for s in scenarios if s.workload_name == workload]
        return matching or super().pin_workload(scenarios, workload)

    def row(self, scenario: Scenario, mode: str, result) -> Dict[str, object]:
        """One adversarial scenario's replay outcome as a result row.

        All rows share one column set (deadline columns show ``None`` for
        workloads without deadline tagging) so tables and JSON stay rectangular.
        """
        return {
            "scenario": scenario.name,
            "workload": scenario.workload_name,
            "utilization": scenario.utilization,
            "original": scenario.original,
            "replay_mode": mode,
            "packets": result.metrics.total_packets,
            "fraction_overdue": result.overdue_fraction,
            "fraction_overdue_beyond_T": result.overdue_beyond_threshold_fraction,
            "threshold": result.metrics.threshold,
            "deadline_flows": result.metrics.deadline_total,
            "deadline_met_original": (
                result.deadline_met_fraction_original if result.has_deadlines else None
            ),
            "deadline_met_replay": (
                result.deadline_met_fraction_replay if result.has_deadlines else None
            ),
        }


register_experiment(AdversarialDefinition())
