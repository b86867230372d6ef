"""Tests for flow-size distributions, utilization sizing, and Poisson flow generation."""

import pytest

from repro.schedulers.factory import uniform_factory
from repro.sim.simulation import Simulation
from repro.topology import dumbbell_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.traffic.distributions import (
    BoundedParetoSize,
    ConstantSize,
    EmpiricalSize,
    data_mining_workload,
    web_search_workload,
)
from repro.traffic.flowgen import PoissonFlowGenerator
from repro.traffic.workload import arrival_rate_for_utilization
from repro.utils import mbps
from repro.utils.rng import RandomState


class TestDistributions:
    def test_constant_size(self):
        dist = ConstantSize(5000)
        rng = RandomState(0)
        assert dist.sample(rng) == 5000
        assert dist.mean() == 5000
        with pytest.raises(ValueError):
            ConstantSize(0)

    def test_bounded_pareto_within_bounds(self):
        dist = BoundedParetoSize(alpha=1.2, minimum_bytes=1460, maximum_bytes=1e6)
        rng = RandomState(2)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 1460
        assert max(samples) <= 1e6

    def test_bounded_pareto_empirical_mean_close_to_analytic(self):
        dist = BoundedParetoSize(alpha=1.3, minimum_bytes=1000, maximum_bytes=1e6)
        rng = RandomState(3)
        samples = [dist.sample(rng) for _ in range(40000)]
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(dist.mean(), rel=0.1)

    def test_bounded_pareto_is_heavy_tailed(self):
        """Most flows are small but most bytes are in the tail."""
        dist = paper_default_workload()
        rng = RandomState(4)
        samples = sorted(dist.sample(rng) for _ in range(5000))
        small_half = samples[: len(samples) // 2]
        total = sum(samples)
        assert sum(small_half) / total < 0.25

    def test_bounded_pareto_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BoundedParetoSize(alpha=1.2, minimum_bytes=100, maximum_bytes=50)
        with pytest.raises(ValueError):
            BoundedParetoSize(alpha=0, minimum_bytes=1, maximum_bytes=2)

    def test_empirical_distribution_normalizes_and_samples(self):
        dist = EmpiricalSize([(1000, 2.0), (10000, 2.0)])
        rng = RandomState(5)
        samples = {dist.sample(rng) for _ in range(200)}
        assert samples <= {1000.0, 10000.0}
        assert dist.mean() == pytest.approx(5500.0)

    def test_empirical_validates_input(self):
        with pytest.raises(ValueError):
            EmpiricalSize([])
        with pytest.raises(ValueError):
            EmpiricalSize([(-5, 1.0)])

    def test_named_workloads_are_heavy_tailed(self):
        for workload in (web_search_workload(), data_mining_workload()):
            assert workload.mean() > min(workload.sizes)
            assert max(workload.sizes) / min(workload.sizes) > 100


class TestWorkloadSizing:
    def test_rate_formula(self):
        # 50% of 8 Mbps with 1000-byte flows = 500 flows/second.
        assert arrival_rate_for_utilization(0.5, 8e6, 1000) == pytest.approx(500.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            arrival_rate_for_utilization(0.0, mbps(10), 1000)
        with pytest.raises(ValueError):
            arrival_rate_for_utilization(0.5, -1, 1000)

    def test_workload_spec_expected_flows(self):
        spec = WorkloadSpec(
            utilization=0.5,
            reference_bandwidth_bps=mbps(8),
            size_distribution=ConstantSize(1000),
            duration=2.0,
        )
        assert spec.per_host_arrival_rate() == pytest.approx(500.0)
        assert spec.expected_flows_per_host() == pytest.approx(1000.0)


class TestPoissonFlowGenerator:
    def _run(self, utilization=0.5, duration=0.5, seed=1):
        topo = dumbbell_topology(3, mbps(10), mbps(100))
        simulation = Simulation(topo, uniform_factory("fifo"), seed=seed)
        workload = WorkloadSpec(
            utilization=utilization,
            reference_bandwidth_bps=mbps(10),
            size_distribution=ConstantSize(5000),
            transport="udp",
            duration=duration,
        )
        generator = simulation.add_poisson_traffic(
            workload,
            sources=["src0", "src1", "src2"],
            destinations=["dst0", "dst1", "dst2"],
        )
        result = simulation.run(until=duration * 4)
        return generator, result

    def test_flow_count_close_to_expectation(self):
        generator, _ = self._run(utilization=0.5, duration=0.5)
        # Expected: rate = 0.5 * 10e6 / (5000*8) = 125 flows/s/host, 3 hosts, 0.5 s.
        expected = 125 * 3 * 0.5
        assert len(generator.flows) == pytest.approx(expected, rel=0.25)

    def test_flows_have_valid_endpoints_and_sizes(self):
        generator, _ = self._run()
        for flow in generator.flows:
            assert flow.src.startswith("src")
            assert flow.dst.startswith("dst")
            assert flow.src != flow.dst
            assert flow.size_bytes == 5000

    def test_generation_stops_at_stop_time(self):
        generator, _ = self._run(duration=0.3)
        assert all(flow.start_time <= 0.3 + 1e-6 for flow in generator.flows)

    def test_same_seed_same_flows(self):
        gen1, _ = self._run(seed=42)
        gen2, _ = self._run(seed=42)
        assert [(f.src, f.dst, f.size_bytes, round(f.start_time, 9)) for f in gen1.flows] == [
            (f.src, f.dst, f.size_bytes, round(f.start_time, 9)) for f in gen2.flows
        ]

    def test_most_flows_complete_under_light_load(self):
        generator, _ = self._run(utilization=0.3)
        completed = [flow for flow in generator.flows if flow.completed]
        assert len(completed) > 0.9 * len(generator.flows)

    def test_invalid_configuration_rejected(self):
        topo = dumbbell_topology(2, mbps(10), mbps(100))
        simulation = Simulation(topo, uniform_factory("fifo"))
        with pytest.raises(ValueError):
            PoissonFlowGenerator(
                simulation.sim, simulation.network, arrival_rate_per_source=0,
                size_distribution=ConstantSize(1000),
            )
        with pytest.raises(ValueError):
            PoissonFlowGenerator(
                simulation.sim, simulation.network, arrival_rate_per_source=1.0,
                size_distribution=ConstantSize(1000), transport="quic",
            )


class TestStaticFlowSet:
    def test_flows_start_at_their_start_times(self):
        from tests.conftest import make_flow

        topo = dumbbell_topology(2, mbps(10), mbps(100))
        simulation = Simulation(topo, uniform_factory("fifo"), seed=0)
        flows = [
            make_flow(src="src0", dst="dst0", size_bytes=5000, start_time=0.0),
            make_flow(src="src1", dst="dst1", size_bytes=5000, start_time=0.1),
        ]
        simulation.add_flows(flows, transport="udp")
        result = simulation.run(until=1.0)
        assert all(flow.completed for flow in flows)
        assert flows[0].completion_time < flows[1].completion_time
        assert len(result.flows) == 2
