"""End-to-end integration tests spanning the whole stack.

These exercise the same code paths as the paper's evaluation but at a scale
that finishes in seconds: topology generators, traffic, transports, the
schedulers under test, the replay engine, and the analysis layer together.
"""

import pytest

from repro.analysis.delay import delay_statistics
from repro.analysis.fairness import fairness_timeseries
from repro.analysis.fct import mean_fct
from repro.core import ReplayExperiment
from repro.core.slack import ConstantSlackPolicy, FairnessSlackPolicy, FlowSizeSlackPolicy
from repro.experiments import ExperimentScale
from repro.schedulers.factory import uniform_factory
from repro.sim.flow import Flow
from repro.sim.simulation import Simulation
from repro.topology import dumbbell_topology
from repro.topology.internet2 import internet2_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.traffic.distributions import BoundedParetoSize
from repro.utils import mbps


SCALE = ExperimentScale.smoke()


class TestInternet2Replay:
    """A miniature version of Table 1's default cell."""

    def _experiment(self, original="random", utilization=0.6, duration=0.6):
        topology = SCALE.internet2()
        workload = WorkloadSpec(
            utilization=utilization,
            reference_bandwidth_bps=SCALE.scaled_bandwidth(1.0),
            size_distribution=paper_default_workload(),
            transport="udp",
            duration=duration,
        )
        return ReplayExperiment(topology, original, workload, seed=2)

    def test_random_schedule_replay_quality(self):
        experiment = self._experiment(utilization=0.7)
        results = experiment.run(modes=["lstf", "priority", "omniscient"])
        assert results["omniscient"].overdue_fraction == 0.0
        # LSTF must not be meaningfully worse than static priorities on total
        # overdue packets (the paper finds it is far better; at test scale the
        # sample is small, so allow a little slack in the comparison).
        assert (
            results["lstf"].overdue_fraction
            <= results["priority"].overdue_fraction + 0.05
        )
        # LSTF keeps the large-violation fraction small even on the hardest
        # (random) original schedule.
        assert results["lstf"].overdue_beyond_threshold_fraction < 0.1

    def test_fifo_plus_fq_mixture_replay(self):
        experiment = self._experiment(original="fq+fifo+")
        result = experiment.replay(mode="lstf")
        assert result.metrics.total_packets > 0
        assert result.overdue_beyond_threshold_fraction < 0.05

    def test_queueing_delay_ratio_mass_at_or_below_one(self):
        """Figure 1's headline: LSTF rarely increases a packet's queueing delay."""
        experiment = self._experiment(utilization=0.7)
        result = experiment.replay(mode="lstf")
        ratios = result.metrics.queueing_delay_ratios
        assert ratios, "expected some congested packets"
        at_most_one = sum(1 for r in ratios if r <= 1.0 + 1e-9) / len(ratios)
        assert at_most_one > 0.5


class TestObjectiveHeuristics:
    """Miniature versions of Figures 2-4."""

    def test_flow_size_slack_beats_fifo_on_mean_fct(self):
        topology = dumbbell_topology(4, mbps(10), mbps(100))
        workload = WorkloadSpec(
            utilization=0.7,
            reference_bandwidth_bps=mbps(10),
            size_distribution=BoundedParetoSize(1.2, 1460, 1e5),
            transport="tcp",
            duration=0.5,
        )

        def run(scheduler, policy):
            simulation = Simulation(
                topology, uniform_factory(scheduler),
                default_buffer_bytes=64 * 1460.0, slack_policy=policy, seed=9,
            )
            simulation.add_poisson_traffic(
                workload,
                sources=[f"src{i}" for i in range(4)],
                destinations=[f"dst{i}" for i in range(4)],
            )
            result = simulation.run(until=4.0)
            return mean_fct([f for f in result.flows if f.completed])

        fifo_fct = run("fifo", None)
        lstf_fct = run("lstf", FlowSizeSlackPolicy(scale=1.0))
        sjf_fct = run("sjf-flow", None)
        assert lstf_fct < fifo_fct
        assert lstf_fct == pytest.approx(sjf_fct, rel=0.5)

    def test_constant_slack_lstf_reduces_tail_delay_vs_fifo(self):
        topology = SCALE.internet2()
        workload = WorkloadSpec(
            utilization=0.7,
            reference_bandwidth_bps=SCALE.scaled_bandwidth(1.0),
            size_distribution=paper_default_workload(),
            transport="udp",
            duration=0.4,
        )

        def run(scheduler, policy):
            simulation = Simulation(topology, uniform_factory(scheduler),
                                    slack_policy=policy, seed=4)
            simulation.add_poisson_traffic(workload)
            result = simulation.run(until=1.5)
            return delay_statistics(result.delivered_packets)

        fifo = run("fifo", None)
        lstf = run("lstf", ConstantSlackPolicy(1.0))
        assert lstf.count == fifo.count
        # Means stay close while the tail does not get worse (the paper's
        # Figure 3 shows a modest tail improvement).
        assert lstf.mean == pytest.approx(fifo.mean, rel=0.25)
        assert lstf.p99 <= fifo.p99 * 1.05

    def test_fairness_slack_converges_to_fair_share(self):
        topology = dumbbell_topology(4, mbps(20), mbps(100))
        fair_share = mbps(20) / 4
        simulation = Simulation(
            topology,
            uniform_factory("lstf"),
            default_buffer_bytes=2048 * 1460.0,
            slack_policy=FairnessSlackPolicy(rate_estimate_bps=fair_share / 10),
            seed=5,
        )
        flows = [
            Flow(src=f"src{i}", dst=f"dst{i}", size_bytes=1e8, start_time=0.001 * i)
            for i in range(4)
        ]
        simulation.add_flows(flows, transport="tcp")
        result = simulation.run(until=1.0)
        series = fairness_timeseries(
            result.delivered_packets, bin_width=0.1, end_time=1.0,
            flow_ids=[f.flow_id for f in flows],
        )
        assert series.final_index() > 0.9


class TestScaleInvariance:
    def test_replay_quality_stable_across_bandwidth_scaling(self):
        """Scaling all bandwidths by the same factor preserves replay results."""

        def overdue_fraction(scale_factor, seed=6):
            topology = internet2_topology(edge_routers_per_core=1, scale=scale_factor)
            workload = WorkloadSpec(
                utilization=0.6,
                reference_bandwidth_bps=mbps(1000) / scale_factor,
                size_distribution=paper_default_workload(),
                transport="udp",
                duration=0.2 * scale_factor / 1000,
            )
            experiment = ReplayExperiment(topology, "fifo", workload, seed=seed)
            return experiment.replay(mode="lstf").overdue_beyond_threshold_fraction

        assert overdue_fraction(1000) == pytest.approx(overdue_fraction(2000), abs=0.02)
