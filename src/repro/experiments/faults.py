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
from typing import Dict, List, Tuple

from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import default_scenario
from repro.pipeline.experiment import ScenarioExperimentDef, register_experiment
from repro.pipeline.scenario import Scenario

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


class FaultsDefinition(ScenarioExperimentDef):
    """Replay fidelity under injected faults, one cell per (scenario, mode).

    A ``--fault`` override replaces the whole sweep: every scenario is
    pinned onto the requested schedule (the baseline row included), so the
    group becomes a single-fault mode comparison.
    """

    name = "faults"
    notes = (
        "Universality under failure: recorded schedules replayed on networks "
        "with injected loss, outages, and jamming; LSTF vs EDF vs FIFO."
    )
    modes = FAULT_MODES

    supports_workload = True
    supports_replicates = True
    supports_slack_policy = True
    supports_faults = True

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        return fault_scenarios(scale)

    def row(self, scenario: Scenario, mode: str, result) -> Dict[str, object]:
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


register_experiment(FaultsDefinition())
