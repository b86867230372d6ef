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

Each scheduler is one pipeline cell (a direct closed-loop simulation — no
schedule recording, so the schedule cache is unused here); the cells are
independent and run in parallel under the pipeline runner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.fct import PAPER_FCT_BUCKET_EDGES, fct_by_flow_size, mean_fct
from repro.experiments.config import ExperimentScale
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import (
    Cell,
    CellResult,
    ExperimentDef,
    build_live_slack_policy,
    register_experiment,
)
from repro.schedulers.factory import uniform_factory
from repro.sim.flow import Flow
from repro.sim.simulation import Simulation
from repro.traffic.distributions import BoundedParetoSize
from repro.traffic.workload import WorkloadSpec


#: Scheduler configurations compared in Figure 2: scheduler-registry name
#: plus the slack-policy-registry name stamping packets at send time (the
#: policy's live face, ``SlackPolicyDef.build_live``), or ``None``.
FIGURE2_SCHEDULERS: Dict[str, Dict[str, object]] = {
    "fifo": {"factory": "fifo", "slack_policy": None},
    "srpt": {"factory": "srpt", "slack_policy": None},
    "sjf": {"factory": "sjf-flow", "slack_policy": None},
    "lstf": {"factory": "lstf", "slack_policy": "flow-size"},
}


def figure2_size_distribution(max_flow_bytes: float = 2e5) -> BoundedParetoSize:
    """Heavy-tailed flow sizes for the FCT experiment.

    The tail is capped lower than the replay workload's so that at the scaled
    (laptop) bandwidths the vast majority of flows complete within the run,
    keeping the mean-FCT comparison between schedulers uncensored.  The
    ordering of the schedulers does not depend on the cap.
    """
    return BoundedParetoSize(alpha=1.2, minimum_bytes=1460.0, maximum_bytes=max_flow_bytes)


def run_fct_scenario(
    scale: ExperimentScale,
    scheduler: str,
    utilization: float = 0.7,
    buffer_packets: int = 64,
    mss: int = 1460,
    max_flow_bytes: float = 2e5,
    drain_factor: float = 8.0,
    slack_policy_name: Optional[str] = None,
) -> List[Flow]:
    """Run the Figure-2 workload under one scheduler and return its flows.

    The scheduler's send-time slack policy comes from the slack-policy
    registry: ``slack_policy_name`` overrides the configured default (the
    ``--slack-policy`` CLI override for this live experiment); ``None``
    keeps the :data:`FIGURE2_SCHEDULERS` configuration (``flow-size`` for
    the LSTF deployment, no policy otherwise).  Schedulers configured
    without a policy never get one, whatever the override says
    (:func:`~repro.pipeline.experiment.build_live_slack_policy`).
    """
    config = FIGURE2_SCHEDULERS[scheduler]
    slack_policy = build_live_slack_policy(config["slack_policy"], slack_policy_name)
    topology = scale.internet2()
    workload = WorkloadSpec(
        utilization=utilization,
        reference_bandwidth_bps=scale.scaled_bandwidth(1.0),
        size_distribution=figure2_size_distribution(max_flow_bytes),
        transport="tcp",
        duration=scale.duration,
        mss=mss,
    )
    simulation = Simulation(
        topology,
        uniform_factory(str(config["factory"])),
        default_buffer_bytes=float(buffer_packets * mss),
        slack_policy=slack_policy,
        seed=scale.seed,
    )
    simulation.add_poisson_traffic(workload)
    # Give the closed-loop flows extra time past the arrival window to finish.
    result = simulation.run(until=scale.duration * drain_factor)
    return result.flows


class Figure2Definition(ExperimentDef):
    """Mean-FCT comparison: one direct-simulation (live-traffic) cell per
    scheduler, with send-time slack stamped by registry policies.

    ``--slack-policy`` (a live-capable registry policy) replaces the policy
    of the cells that carry one — i.e. the LSTF deployment swaps its
    ``flow-size`` heuristic for the named policy; the policy-less
    conventional schedulers are unaffected.
    """

    name = "figure2"
    notes = (
        "Paper (Figure 2): mean FCT FIFO 0.288s, SRPT 0.208s, SJF 0.194s, "
        "LSTF 0.195s — SJF/SRPT/LSTF clearly beat FIFO and LSTF tracks SJF."
    )

    supports_slack_policy = True

    def __init__(
        self,
        schedulers: Sequence[str] = ("fifo", "srpt", "sjf", "lstf"),
        utilization: float = 0.7,
    ) -> None:
        self.schedulers = tuple(schedulers)
        self.utilization = utilization

    def cells(self, scale: ExperimentScale) -> List[Cell]:
        """One direct-simulation cell per compared scheduler.

        A ``--slack-policy`` override is validated up front (the name must
        exist and be live-capable), so a bad override fails before any
        cell simulates.
        """
        self.validate_live_slack_policy()
        return [
            Cell(self.name, scheduler, scheduler, scale.seed)
            for scheduler in self.schedulers
        ]

    def run_cell(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> CellResult:
        """Simulate one scheduler's live deployment and report FCT metrics."""
        override = self.live_slack_policy_override(
            FIGURE2_SCHEDULERS[cell.label]["slack_policy"]
        )
        flows = run_fct_scenario(
            scale, cell.label, utilization=self.utilization, slack_policy_name=override
        )
        completed = [flow for flow in flows if flow.completed]
        overall = mean_fct(completed)
        buckets = fct_by_flow_size(completed, PAPER_FCT_BUCKET_EDGES)
        row = {
            "scheduler": cell.label,
            "flows": len(flows),
            "completed": len(completed),
            "mean_fct": overall if overall is not None else float("nan"),
            "small_flow_mean_fct": _bucket_mean(buckets, max_bytes=10220),
            "large_flow_mean_fct": _bucket_mean(buckets, min_bytes=105120),
        }
        if override is not None:
            # Overridden rows say so; default rows keep the pre-unification
            # column set (pinned bit-identical by the golden figure fixture).
            row["slack_policy"] = override
        return CellResult(cell=cell, row=row)


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
