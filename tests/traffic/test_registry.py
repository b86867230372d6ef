"""Tests for the workload registry and the adversarial perturbation layer."""

import pickle

import pytest

from repro.schedulers.factory import uniform_factory
from repro.sim.simulation import Simulation
from repro.topology import dumbbell_topology
from repro.traffic import WorkloadSpec
from repro.traffic.distributions import ConstantSize
from repro.traffic.perturb import (
    DeadlineTagging,
    HeavyTailInflation,
    IncastBurst,
    OnOffJamming,
    PerturbationContext,
)
from repro.traffic.registry import WORKLOADS
from repro.utils import mbps
from repro.utils.rng import RandomState


def context(duration=1.0, bandwidth=mbps(10), mss=1460):
    return PerturbationContext(
        duration=duration,
        reference_bandwidth_bps=bandwidth,
        sources=("src0", "src1", "src2"),
        destinations=("dst0", "dst1", "dst2"),
        mss=mss,
    )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestWorkloadRegistry:
    def test_paper_workloads_registered(self):
        assert {"paper-default", "web-search", "data-mining"} <= set(WORKLOADS.names())
        for definition in WORKLOADS.group("paper"):
            assert definition.perturbations == ()

    def test_adversarial_group_has_at_least_four_workloads(self):
        adversarial = WORKLOADS.group("adversarial")
        assert len(adversarial) >= 4
        assert all(d.perturbations for d in adversarial)

    def test_unknown_workload_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown workload"):
            WORKLOADS.get("nope")

    def test_definitions_are_picklable_and_hashable(self):
        for definition in WORKLOADS:
            assert pickle.loads(pickle.dumps(definition)) == definition
            hash(definition)

    def test_mean_flow_size_positive(self):
        for definition in WORKLOADS:
            assert definition.mean_flow_size() > 0


# --------------------------------------------------------------------- #
# Perturbation behavior
# --------------------------------------------------------------------- #
class TestPerturbationHooks:
    def test_incast_injects_fanin_flows_per_burst_at_one_victim(self):
        burst = IncastBurst(bursts=2, fanin=3, flow_bytes=5000.0)
        flows = burst.extra_flows(RandomState(0), context(duration=1.0))
        assert len(flows) == 6
        assert {flow.dst for flow in flows} == {"dst0"}
        assert sorted({flow.start_time for flow in flows}) == [
            pytest.approx(1 / 3),
            pytest.approx(2 / 3),
        ]
        assert all(flow.size_bytes == 5000.0 for flow in flows)

    def test_jamming_multiplier_and_transitions(self):
        jam = OnOffJamming(cycles=2, on_fraction=0.5, on_multiplier=3.0, off_multiplier=0.0)
        ctx = context(duration=1.0)  # cycles of 0.5s: ON [0,0.25), OFF [0.25,0.5)
        assert jam.rate_multiplier(0.1, ctx) == 3.0
        assert jam.rate_multiplier(0.3, ctx) == 0.0
        assert jam.next_transition(0.1, ctx) == pytest.approx(0.25)
        assert jam.next_transition(0.3, ctx) == pytest.approx(0.5)
        assert jam.rate_multiplier(0.6, ctx) == 3.0  # second cycle's ON window

    def test_inflation_caps_at_max_bytes(self):
        inflate = HeavyTailInflation(probability=1.0, factor=100.0, max_bytes=50_000.0)
        assert inflate.transform_size(1000.0, RandomState(0), context()) == 50_000.0
        never = HeavyTailInflation(probability=0.0, factor=100.0)
        assert never.transform_size(1000.0, RandomState(0), context()) == 1000.0

    def test_deadline_tagging_scales_with_flow_size(self):
        from repro.sim.flow import Flow

        tag = DeadlineTagging(fraction=1.0, slack_factor=2.0)
        ctx = context(bandwidth=8e6)  # ideal transfer = size / 1e6 seconds
        flow = Flow(src="a", dst="b", size_bytes=1e6, start_time=0.5)
        tag.annotate_flow(flow, RandomState(0), ctx)
        assert flow.deadline == pytest.approx(0.5 + 2.0)
        untagged = DeadlineTagging(fraction=0.0)
        flow2 = Flow(src="a", dst="b", size_bytes=1e6, start_time=0.5)
        untagged.annotate_flow(flow2, RandomState(0), ctx)
        assert flow2.deadline is None


# --------------------------------------------------------------------- #
# Perturbed generation through the simulator
# --------------------------------------------------------------------- #
class TestPerturbedGeneration:
    def _run(self, perturbations, seed=7, utilization=0.5, duration=0.5):
        topo = dumbbell_topology(3, mbps(10), mbps(100))
        simulation = Simulation(topo, uniform_factory("fifo"), seed=seed)
        workload = WorkloadSpec(
            utilization=utilization,
            reference_bandwidth_bps=mbps(10),
            size_distribution=ConstantSize(5000),
            transport="udp",
            duration=duration,
            perturbations=tuple(perturbations),
        )
        generator = simulation.add_poisson_traffic(
            workload,
            sources=["src0", "src1", "src2"],
            destinations=["dst0", "dst1", "dst2"],
        )
        simulation.run(until=duration * 6)
        return generator

    def test_incast_flows_ride_on_top_of_poisson(self):
        plain = self._run([])
        incast = self._run([IncastBurst(bursts=2, fanin=4, flow_bytes=5000.0)])
        extra = [flow for flow in incast.flows if flow.dst == "dst0" and flow.src.startswith("src")]
        assert len(incast.flows) >= len(plain.flows)
        assert len(extra) >= 8  # 2 bursts x 4 lanes all aim at the victim

    def test_silent_jamming_windows_produce_no_arrivals(self):
        jam = OnOffJamming(cycles=2, on_fraction=0.5, on_multiplier=2.0, off_multiplier=0.0)
        generator = self._run([jam], duration=0.4)
        # OFF windows are [0.1, 0.2) and [0.3, 0.4): no Poisson arrivals there.
        for flow in generator.flows:
            phase = (flow.start_time % 0.2) / 0.2
            assert phase < 0.5 or flow.start_time >= 0.4
        # Sources waking from an OFF window resample a fresh gap — they must
        # not all fire a synchronized flow exactly on the window boundary.
        boundaries = {0.0, 0.1, 0.2, 0.3, 0.4}
        assert not any(
            round(flow.start_time, 12) in boundaries for flow in generator.flows
        )

    def test_deadline_tagging_marks_roughly_the_requested_fraction(self):
        generator = self._run(
            [DeadlineTagging(fraction=0.5, slack_factor=3.0)], utilization=0.8, duration=1.0
        )
        tagged = [flow for flow in generator.flows if flow.deadline is not None]
        assert 0.2 < len(tagged) / len(generator.flows) < 0.8
        assert all(flow.deadline > flow.start_time for flow in tagged)

    def test_perturbed_arrivals_deterministic_under_fixed_seed(self):
        perturbations = [
            OnOffJamming(cycles=4, on_fraction=0.25, on_multiplier=4.0, off_multiplier=0.25),
            IncastBurst(bursts=2, fanin=3, flow_bytes=5000.0),
            HeavyTailInflation(probability=0.2, factor=3.0, max_bytes=1e6),
            DeadlineTagging(fraction=0.5, slack_factor=2.0),
        ]
        first = self._run(perturbations, seed=42)
        second = self._run(perturbations, seed=42)
        signature = lambda gen: [
            (f.src, f.dst, f.size_bytes, round(f.start_time, 12), f.deadline)
            for f in gen.flows
        ]
        assert signature(first) == signature(second)
