"""Table 1: LSTF replayability across topologies, utilizations, and schedulers.

Each row records the fraction of packets that are overdue in the LSTF replay
and the fraction overdue by more than ``T`` (one transmission time on the
bottleneck link).  The paper's row groups are:

1. the default scenario (Internet2 1G-10G, 70% utilization, Random original),
2. utilization swept from 10% to 90%,
3. alternative access/edge link speeds (1G-1G and 10G-10G),
4. alternative topologies (RocketFuel, datacenter fat-tree),
5. alternative original schedulers (FIFO, FQ, SJF, LIFO, FQ+FIFO+),

plus the Section 2.3(7) comparison against simple-priority replay.

The rows are *scenario definitions* on the experiment pipeline: every row is
a declarative :class:`~repro.pipeline.scenario.Scenario` (the utilization row
group is a :class:`~repro.pipeline.scenario.Sweep`), expanded into
independent cells that the parallel runner can fan out, with every original
schedule recorded once through the content-addressed schedule cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentScale
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import (
    ReplayResult,
    ScenarioExperimentDef,
    register_experiment,
    replay_scenario,
)
from repro.pipeline.scenario import Scenario, Sweep


def default_scenario(
    scale: ExperimentScale,
    utilization: float = 0.7,
    original: str = "random",
    replay_mode: str = "lstf",
    name: Optional[str] = None,
    edge_core_gbps: float = 1.0,
    host_edge_gbps: float = 10.0,
    workload: str = "paper-default",
) -> Scenario:
    """The paper's default Internet2 scenario with the given tweaks."""
    return Scenario(
        name=name or f"I2-{edge_core_gbps:g}G-{host_edge_gbps:g}G",
        scale=scale,
        topology="internet2",
        topology_args=(
            ("edge_core_gbps", edge_core_gbps),
            ("host_edge_gbps", host_edge_gbps),
        ),
        utilization=utilization,
        original=original,
        reference_gbps=edge_core_gbps,
        replay_mode=replay_mode,
        workload_name=workload,
    )


def _utilization_row_name(base: Scenario, value) -> str:
    return f"{base.name}@{round(value * 100)}"


def table1_scenarios(
    scale: ExperimentScale,
    utilizations: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    schedulers: Sequence[str] = ("fifo", "fq", "sjf", "lifo", "fq+fifo+"),
    include_topology_rows: bool = True,
) -> List[Scenario]:
    """All Table-1 scenarios under a given scale preset."""
    scenarios: List[Scenario] = []

    # Row group 1 + 2: the default topology across utilizations (70% first,
    # matching the paper's presentation of the default scenario).
    scenarios.append(default_scenario(scale, utilization=0.7, name="I2-1G-10G@70"))
    sweep = Sweep(
        base=default_scenario(scale),
        parameter="utilization",
        values=tuple(u for u in utilizations if abs(u - 0.7) >= 1e-9),
        namer=_utilization_row_name,
    )
    scenarios.extend(sweep)

    # Row group 3: access/edge bandwidth variants.
    scenarios.append(
        default_scenario(scale, name="I2-1G-1G", edge_core_gbps=1.0, host_edge_gbps=1.0)
    )
    scenarios.append(
        default_scenario(scale, name="I2-10G-10G", edge_core_gbps=10.0, host_edge_gbps=10.0)
    )

    # Row group 4: other topologies.
    if include_topology_rows:
        scenarios.append(
            Scenario(
                name="RocketFuel",
                scale=scale,
                topology="rocketfuel",
                utilization=0.7,
                original="random",
                reference_gbps=1.0,
            )
        )
        scenarios.append(
            Scenario(
                name="Datacenter",
                scale=scale,
                topology="fattree",
                utilization=0.7,
                original="random",
                reference_gbps=10.0,
                duration_scale=0.5,
            )
        )

    # Row group 5: original schedulers other than Random on the default topology.
    for scheduler in schedulers:
        scenarios.append(
            default_scenario(scale, original=scheduler, name=f"I2-1G-10G-{scheduler}")
        )
    return scenarios


def scenario_row(scenario: Scenario, mode: str, result: ReplayResult) -> Dict[str, object]:
    """One scenario's replay outcome as a Table-1 row dictionary."""
    return {
        "scenario": scenario.name,
        "topology": scenario.name.split("@")[0],
        "utilization": scenario.utilization,
        "original": scenario.original,
        "replay_mode": mode,
        "packets": result.metrics.total_packets,
        "fraction_overdue": result.overdue_fraction,
        "fraction_overdue_beyond_T": result.overdue_beyond_threshold_fraction,
        "threshold": result.metrics.threshold,
    }


def run_scenario(
    scenario: Scenario, cache: Optional[ScheduleCache] = None
) -> Dict[str, object]:
    """Run one scenario and return its Table-1 row as a dictionary."""
    result = replay_scenario(scenario, cache=cache)
    return scenario_row(scenario, scenario.replay_mode, result)


class Table1Definition(ScenarioExperimentDef):
    """The full Table-1 sweep as one cell per scenario (x seed replicate)."""

    name = "table1"
    notes = (
        "Paper (Table 1): default scenario 0.21% overdue / 0.02% >T; SJF and "
        "LIFO originals are the hardest to replay; fractions overdue by >T "
        "stay below ~1% in almost every scenario."
    )

    supports_workload = True
    supports_replicates = True
    supports_slack_policy = True

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        return table1_scenarios(scale)

    def row(self, scenario: Scenario, mode: str, result: ReplayResult) -> Dict[str, object]:
        return scenario_row(scenario, mode, result)


class PriorityComparisonDefinition(ScenarioExperimentDef):
    """Section 2.3 item (7): LSTF replay versus simple-priority replay.

    Both cells replay the *same* recorded schedule — the schedule cache
    guarantees it is recorded once even when the cells land on different
    workers.
    """

    name = "table1-priority"
    result_name = "priority-comparison"
    notes = (
        "Paper: with priorities 21% of packets are overdue (20.69% by more "
        "than T) versus 0.21% (0.02%) with LSTF on the default scenario."
    )
    modes = ("lstf", "priority")
    supports_workload = True

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        return [default_scenario(scale, name="I2-1G-10G@70")]

    def row(self, scenario: Scenario, mode: str, result: ReplayResult) -> Dict[str, object]:
        return {
            "scenario": scenario.name,
            "replay_mode": mode,
            "packets": result.metrics.total_packets,
            "fraction_overdue": result.overdue_fraction,
            "fraction_overdue_beyond_T": result.overdue_beyond_threshold_fraction,
        }


register_experiment(Table1Definition())
register_experiment(PriorityComparisonDefinition())
