"""Figure 3: tail packet delays — FIFO versus LSTF-as-FIFO+.

UDP traffic on the default Internet2 topology; LSTF is deployed with the
constant-slack heuristic of Section 3.2, which makes it behave exactly like
FIFO+ (packets that have already waited longer upstream get precedence).
The paper reports essentially equal mean delay but a visibly smaller 99th
percentile for LSTF/FIFO+ than for FIFO; the reproduced harness reports the
same two numbers plus the CCDF curves.

Each scheduler is one live deployment, a simulation
(:class:`~repro.pipeline.experiment.LiveComparisonDef`) whose routers run on
the compiled kernel's port model (:mod:`repro.sim.flat_live`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.delay import delay_ccdf, delay_statistics
from repro.core.slack import SlackPolicy
from repro.experiments.config import ExperimentScale
from repro.pipeline.experiment import LiveComparisonDef, register_experiment
from repro.schedulers.factory import uniform_factory
from repro.sim.packet import Packet
from repro.sim.simulation import Simulation
from repro.traffic.distributions import paper_default_workload
from repro.traffic.workload import WorkloadSpec

#: Deployments compared in Figure 3: row label -> (scheduler-registry name,
#: slack-policy-registry name stamping packets at send time, or ``None``).
#: The ``static-delay`` policy's live face is the Section-3.2 constant
#: slack that makes LSTF behave as FIFO+.
FIGURE3_SCHEDULERS: Dict[str, Tuple[str, Optional[str]]] = {
    "fifo": ("fifo", None),
    "lstf": ("lstf", "static-delay"),
}

#: Offered load (the paper's: 70%).
UTILIZATION = 0.7


#: The run lasts this many arrival windows, so every packet is delivered.
DRAIN_FACTOR = 3


def delay_simulation(
    scale: ExperimentScale, scheduler: str, slack_policy: Optional[SlackPolicy] = None
) -> Simulation:
    """The Figure-3 workload under one scheduler, built and ready to run
    until ``scale.duration * DRAIN_FACTOR``.

    ``scheduler`` is a scheduler-registry name, and ``slack_policy`` the
    built send-time policy stamping its packets (``None``: none).
    """
    workload = WorkloadSpec(
        utilization=UTILIZATION,
        reference_bandwidth_bps=scale.scaled_bandwidth(1.0),
        size_distribution=paper_default_workload(),
        transport="udp",
        duration=scale.duration,
    )
    simulation = Simulation(
        scale.internet2(),
        uniform_factory(scheduler),
        slack_policy=slack_policy,
        seed=scale.seed,
    )
    simulation.add_poisson_traffic(workload)
    return simulation


def run_delay_scenario(
    scale: ExperimentScale, scheduler: str, slack_policy: Optional[SlackPolicy] = None
) -> List[Packet]:
    """Run the Figure-3 workload under one scheduler and return delivered packets."""
    simulation = delay_simulation(scale, scheduler, slack_policy)
    return simulation.run(until=scale.duration * DRAIN_FACTOR).delivered_packets


class Figure3Definition(LiveComparisonDef):
    """Tail-delay comparison: one live deployment per scheduler.

    ``--slack-policy`` swaps the LSTF deployment's ``static-delay``
    constant for the named policy.
    """

    name = "figure3"
    notes = (
        "Paper (Figure 3): FIFO mean 0.0780s / 99%ile 0.2142s versus LSTF "
        "mean 0.0786s / 99%ile 0.1958s — similar means, smaller tail for "
        "LSTF (= FIFO+)."
    )
    deployments = FIGURE3_SCHEDULERS

    def simulate(self, scale, scheduler, policy):
        """Delay statistics, and the delay CCDF as the curve."""
        packets = run_delay_scenario(scale, scheduler, policy)
        stats = delay_statistics(packets)
        columns = {
            "packets": stats.count,
            "mean_delay": stats.mean,
            "p99_delay": stats.p99,
            "p999_delay": stats.p999,
            "max_delay": stats.maximum,
        }
        return columns, delay_ccdf(packets)


register_experiment(Figure3Definition())
