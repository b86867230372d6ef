"""Figure 4: asymptotic fairness of LSTF with virtual-clock slack assignment.

Ninety long-lived TCP flows share the Internet2 core (10 Gbps edges so that
all congestion is in the core), starting with a small random jitter.  The
fairness of the per-millisecond throughput allocation (Jain's index over the
full flow set) is tracked over time for:

* FIFO (no fairness mechanism),
* per-flow fair queueing (the reference),
* LSTF with the Section-3.3 slack heuristic, for several values of the
  fair-share rate estimate ``rest`` at and below the true fair share.

The paper's claim — reproduced here — is that LSTF converges to (near) the
fair allocation for every ``rest`` at or below the fair share, converging a
little sooner when ``rest`` is closer to the true rate.

Every (scheduler, rest estimate) pair is one direct-simulation pipeline cell.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.fairness import FairnessTimeseries, fairness_timeseries
from repro.core.slack_policy import SLACK_POLICIES
from repro.experiments.config import ExperimentScale
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import Cell, CellResult, ExperimentDef, register_experiment
from repro.schedulers.factory import uniform_factory
from repro.sim.flow import Flow
from repro.sim.simulation import Simulation
from repro.utils.rng import RandomState


def build_long_lived_flows(
    topology,
    num_flows: int,
    jitter: float,
    rng: RandomState,
    flow_bytes: float = 1e9,
    mss: int = 1460,
    src_prefix: str = "host-seattle",
    dst_prefix: str = "host-newyork",
) -> List[Flow]:
    """Long-lived flows between two groups of hosts with jittered start times.

    All sources sit under one core PoP and all destinations under another, so
    every flow shares the same core bottleneck and the max-min fair allocation
    is an equal split — the setting in which Jain's index is expected to reach
    1.0 (the paper arranges its 90 flows so that each core link's fair share
    is the same for every flow crossing it).
    """
    host_names = topology.host_names()
    sources = [name for name in host_names if name.startswith(src_prefix)]
    destinations = [name for name in host_names if name.startswith(dst_prefix)]
    if not sources or not destinations:
        # Fall back to splitting the host list in half (e.g. for non-Internet2
        # topologies used in tests).
        half = max(1, len(host_names) // 2)
        sources = host_names[:half]
        destinations = host_names[half:] or host_names[:1]
    flows: List[Flow] = []
    for index in range(num_flows):
        src = sources[index % len(sources)]
        dst = destinations[index % len(destinations)]
        if src == dst:
            dst = destinations[(index + 1) % len(destinations)]
        flows.append(
            Flow(
                src=src,
                dst=dst,
                size_bytes=flow_bytes,
                start_time=rng.uniform(0.0, jitter),
                mss=mss,
            )
        )
    return flows


def fairness_scale(scale: ExperimentScale, max_bandwidth_scale: float = 50.0) -> ExperimentScale:
    """A copy of ``scale`` with a gentler bandwidth reduction for Figure 4.

    The fairness index is computed from per-bin throughput; with the default
    quick-mode bandwidth scale the per-flow fair share is only a couple of
    packets per bin, which makes Jain's index meaninglessly noisy.  Capping
    the bandwidth scale keeps enough packets per bin to measure convergence
    while still being far cheaper than the paper-scale run.
    """
    from dataclasses import replace

    return replace(scale, bandwidth_scale=min(scale.bandwidth_scale, max_bandwidth_scale))


def run_fairness_scenario(
    scale: ExperimentScale,
    scheduler: str,
    rest_bps: Optional[float] = None,
    num_flows: int = 18,
    duration: float = 0.5,
    jitter: float = 0.005,
    bin_width: float = 0.025,
    buffer_packets: int = 4096,
    mss: int = 1460,
) -> FairnessTimeseries:
    """Run one fairness scenario and return the Jain-index time series.

    Args:
        scale: Experiment scale preset.
        scheduler: ``"fifo"``, ``"fq"``, or ``"lstf"``.
        rest_bps: Fair-share rate estimate handed to the LSTF slack heuristic
            (ignored for the other schedulers).
        num_flows: Number of long-lived flows (paper: 90).
        duration: Simulated time in seconds.
        jitter: Start-time jitter window (paper: 0-5 ms).
        bin_width: Throughput-averaging bin for the fairness index (paper: 1 ms).
        buffer_packets: Router buffer size in packets; kept large enough that
            no packet is dropped during the run, so fairness is dominated by
            the scheduling policy (as in the paper).
    """
    slack_policy = None
    if scheduler == "lstf":
        if rest_bps is None:
            raise ValueError("LSTF fairness runs need a rest estimate")
        # The registry's `fairness` policy, re-parameterized per cell: the
        # rest sweep is a parameter sweep over one registered definition.
        slack_policy = (
            SLACK_POLICIES.get("fairness")
            .with_params(rate_estimate_bps=rest_bps)
            .build_live()
        )
    # 10 Gbps edge and host links so that congestion happens only in the core;
    # propagation shrunk (as in the paper) so convergence is visible quickly.
    topology = scale.internet2(
        edge_core_gbps=10.0, host_edge_gbps=10.0, propagation_scale=0.05
    )
    simulation = Simulation(
        topology,
        uniform_factory(scheduler if scheduler != "lstf" else "lstf"),
        default_buffer_bytes=float(buffer_packets * mss),
        slack_policy=slack_policy,
        seed=scale.seed,
    )
    rng = RandomState(scale.seed + 7)
    flows = build_long_lived_flows(topology, num_flows, jitter, rng, mss=mss)
    simulation.add_flows(flows, transport="tcp")
    result = simulation.run(until=duration)
    flow_ids = [flow.flow_id for flow in flows]
    return fairness_timeseries(
        result.delivered_packets, bin_width=bin_width, end_time=duration, flow_ids=flow_ids
    )


class Figure4Definition(ExperimentDef):
    """Fairness convergence: one cell per (scheduler, rest estimate) pair."""

    name = "figure4"
    notes = (
        "Paper (Figure 4): FQ reaches Jain index 1.0 once all flows have "
        "started; LSTF converges to (near) 1.0 for every rest <= the fair "
        "share, slightly sooner for larger rest; FIFO stays noticeably "
        "below the fair allocation."
    )

    def __init__(
        self,
        rest_fractions: Sequence[float] = (1.0, 0.5, 0.1, 0.01),
        num_flows: int = 12,
        duration: float = 0.5,
    ) -> None:
        self.rest_fractions = tuple(rest_fractions)
        self.num_flows = num_flows
        self.duration = duration

    def _variants(self) -> List[Tuple[str, Optional[float]]]:
        variants: List[Tuple[str, Optional[float]]] = [("fifo", None), ("fq", None)]
        variants.extend(
            (f"lstf@{fraction:g}x", fraction) for fraction in self.rest_fractions
        )
        return variants

    def cells(self, scale: ExperimentScale) -> List[Cell]:
        return [
            Cell(self.name, label, label, scale.seed, spec=fraction)
            for label, fraction in self._variants()
        ]

    def run_cell(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> CellResult:
        scale = fairness_scale(scale)
        fraction: Optional[float] = cell.spec
        if fraction is None:
            scheduler, rest_bps = cell.label, None
        else:
            # All flows share one core bottleneck (the slowest core link on
            # the seattle -> newyork path, 2.4 Gbps nominal), so the true fair
            # share is that bandwidth divided by the number of flows; the rest
            # fractions are taken relative to it, mirroring the paper's
            # rest <= r* sweep.
            scheduler = "lstf"
            fair_share_bps = scale.scaled_bandwidth(2.4) / max(1, self.num_flows)
            rest_bps = fair_share_bps * fraction
        timeseries = run_fairness_scenario(
            scale,
            scheduler,
            rest_bps=rest_bps,
            num_flows=self.num_flows,
            duration=self.duration,
        )
        return CellResult(
            cell=cell,
            row={
                "scheduler": cell.label,
                "rest_fraction": fraction,
                "final_fairness": timeseries.final_index(),
                "time_to_90pct": timeseries.time_to_reach(0.9),
            },
            curve=timeseries,
            curve_key=cell.label,
        )


register_experiment(Figure4Definition())
