"""Figure 2: mean flow completion time (FCT) under FIFO, SRPT, SJF, and LSTF.

TCP flows with heavy-tailed sizes run over the default Internet2 topology at
70% utilization with finite router buffers.  The comparison is between:

* FIFO (the baseline),
* SRPT with pFabric-style starvation prevention,
* SJF with the same starvation prevention,
* LSTF with the Section-3.1 slack heuristic ``slack(p) = flow_size(p) * D``.

The paper's result: SJF and SRPT dramatically beat FIFO on mean FCT and LSTF
matches SJF almost exactly.  We reproduce that ordering (FIFO worst, LSTF
within a few percent of SJF/SRPT).

Each scheduler is one live deployment, a direct closed-loop simulation
(:class:`~repro.pipeline.experiment.LiveComparisonDef`: no schedule is
recorded); the cells are independent and run in parallel under the pipeline
runner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.fct import PAPER_FCT_BUCKET_EDGES, fct_by_flow_size, mean_fct
from repro.core.slack import SlackPolicy
from repro.experiments.config import ExperimentScale
from repro.pipeline.experiment import LiveComparisonDef, register_experiment
from repro.schedulers.factory import uniform_factory
from repro.sim.flow import Flow
from repro.sim.simulation import Simulation
from repro.traffic.distributions import BoundedParetoSize
from repro.traffic.workload import WorkloadSpec


#: Deployments compared in Figure 2: row label -> (scheduler-registry name,
#: slack-policy-registry name stamping packets at send time, or ``None``).
FIGURE2_SCHEDULERS: Dict[str, Tuple[str, Optional[str]]] = {
    "fifo": ("fifo", None),
    "srpt": ("srpt", None),
    "sjf": ("sjf-flow", None),
    "lstf": ("lstf", "flow-size"),
}

#: Offered load (the paper's: 70%).
UTILIZATION = 0.7
#: Router buffers, in MSS-sized packets (finite, as in the paper).
BUFFER_PACKETS = 64
MSS = 1460
#: Flow-size cap (see :func:`figure2_size_distribution`).
MAX_FLOW_BYTES = 2e5
#: The run lasts this many arrival windows, so closed-loop flows can finish.
DRAIN_FACTOR = 8.0


def figure2_size_distribution() -> BoundedParetoSize:
    """Heavy-tailed flow sizes for the FCT experiment.

    The tail is capped lower than the replay workload's so that at the scaled
    (laptop) bandwidths the vast majority of flows complete within the run,
    keeping the mean-FCT comparison between schedulers uncensored.  The
    ordering of the schedulers does not depend on the cap.
    """
    return BoundedParetoSize(alpha=1.2, minimum_bytes=float(MSS), maximum_bytes=MAX_FLOW_BYTES)


def run_fct_scenario(
    scale: ExperimentScale, scheduler: str, slack_policy: Optional[SlackPolicy] = None
) -> List[Flow]:
    """Run the Figure-2 workload under one scheduler and return its flows.

    ``scheduler`` is a scheduler-registry name, and ``slack_policy`` the
    built send-time policy stamping its packets (``None``: none).
    """
    workload = WorkloadSpec(
        utilization=UTILIZATION,
        reference_bandwidth_bps=scale.scaled_bandwidth(1.0),
        size_distribution=figure2_size_distribution(),
        transport="tcp",
        duration=scale.duration,
        mss=MSS,
    )
    simulation = Simulation(
        scale.internet2(),
        uniform_factory(scheduler),
        default_buffer_bytes=float(BUFFER_PACKETS * MSS),
        slack_policy=slack_policy,
        seed=scale.seed,
    )
    simulation.add_poisson_traffic(workload)
    return simulation.run(until=scale.duration * DRAIN_FACTOR).flows


class Figure2Definition(LiveComparisonDef):
    """Mean-FCT comparison: one live deployment per scheduler.

    ``--slack-policy`` swaps the LSTF deployment's ``flow-size`` heuristic
    for the named policy.
    """

    name = "figure2"
    notes = (
        "Paper (Figure 2): mean FCT FIFO 0.288s, SRPT 0.208s, SJF 0.194s, "
        "LSTF 0.195s — SJF/SRPT/LSTF clearly beat FIFO and LSTF tracks SJF."
    )
    deployments = FIGURE2_SCHEDULERS

    def simulate(self, scale, scheduler, policy):
        """Mean FCT overall and for the small and large flow buckets."""
        flows = run_fct_scenario(scale, scheduler, policy)
        completed = [flow for flow in flows if flow.completed]
        overall = mean_fct(completed)
        buckets = fct_by_flow_size(completed, PAPER_FCT_BUCKET_EDGES)
        columns = {
            "flows": len(flows),
            "completed": len(completed),
            "mean_fct": overall if overall is not None else float("nan"),
            "small_flow_mean_fct": _bucket_mean(buckets, max_bytes=10220),
            "large_flow_mean_fct": _bucket_mean(buckets, min_bytes=105120),
        }
        return columns, None


def _bucket_mean(buckets, min_bytes: float = 0.0, max_bytes: float = float("inf")) -> float:
    """Weighted mean FCT of the buckets whose range lies within [min, max]."""
    total = 0.0
    count = 0
    for bucket in buckets:
        if bucket.low_bytes >= min_bytes and bucket.high_bytes <= max_bytes and bucket.count:
            total += bucket.mean_fct * bucket.count
            count += bucket.count
    return total / count if count else 0.0


register_experiment(Figure2Definition())
