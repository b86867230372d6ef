"""Integration tests for the record-and-replay engine (the paper's core experiment)."""

import gc

import pytest

from repro.core.replay import (
    REPLAY_MODES,
    ReplayExperiment,
    evaluate_replay,
    original_scheduler_factory,
    record_schedule,
    replay_schedule,
)
from repro.core.schedule import Schedule
from repro.schedulers.fifo_plus import FifoPlusScheduler
from repro.schedulers.fq import FairQueueingScheduler
from repro.topology import dumbbell_topology
from repro.topology.base import linear_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.traffic.distributions import ConstantSize
from repro.utils import mbps


def small_workload(duration=0.25, utilization=0.6, transport="udp"):
    return WorkloadSpec(
        utilization=utilization,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        transport=transport,
        duration=duration,
    )


def dumbbell_experiment(original="random", seed=5, utilization=0.6):
    topo = dumbbell_topology(4, mbps(10), mbps(100))
    return ReplayExperiment(
        topo,
        original,
        small_workload(utilization=utilization),
        seed=seed,
        sources=[f"src{i}" for i in range(4)],
        destinations=[f"dst{i}" for i in range(4)],
    )


class TestRecording:
    def test_recorded_schedule_covers_all_delivered_packets(self):
        experiment = dumbbell_experiment()
        schedule = experiment.record()
        assert len(schedule) > 50
        for row in schedule:
            assert row["output_time"] > row["ingress_time"]
            assert row["path"][0] == row["src"]
            assert row["path"][-1] == row["dst"]

    def test_record_is_cached_across_replays(self):
        experiment = dumbbell_experiment()
        assert experiment.record() is experiment.record()

    def test_record_schedule_standalone(self):
        topo = linear_topology(2, mbps(10), hosts_per_end=2, access_bandwidth_bps=mbps(50))
        schedule = record_schedule(
            topo,
            original_scheduler_factory("fifo", topo),
            small_workload(duration=0.2),
            seed=3,
            sources=["src0", "src1"],
            destinations=["dst0", "dst1"],
        )
        assert len(schedule) > 0

    def test_recording_frees_its_packets_without_the_cycle_collector(self):
        """The built network is cyclic garbage; the run's packets must not hang off it."""
        from repro.sim.packet import Packet

        topo = dumbbell_topology(2, mbps(10), mbps(100))
        gc.collect()
        gc.disable()  # only refcounting may free anything below
        try:
            schedule = record_schedule(
                topo, original_scheduler_factory("fifo", topo), small_workload(duration=0.1), seed=3
            )
            leftover = sum(isinstance(obj, Packet) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert len(schedule) > 0
        assert leftover == 0

    def test_mixed_fq_fifo_plus_factory(self):
        topo = dumbbell_topology(2, mbps(10), mbps(100))
        factory = original_scheduler_factory("fq+fifo+", topo)
        kinds = {type(factory(name, None)) for name in topo.router_names()}
        assert kinds == {FairQueueingScheduler, FifoPlusScheduler}


class TestReplayModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(KeyError):
            replay_schedule(dumbbell_topology(2, mbps(10), mbps(100)), Schedule(), mode="magic")

    def test_all_modes_registered(self):
        assert set(REPLAY_MODES) == {
            "lstf", "lstf-preemptive", "edf", "priority", "omniscient", "fifo"
        }

    def test_replay_preserves_paths_and_packet_count(self):
        experiment = dumbbell_experiment()
        original = experiment.record()
        result = experiment.replay(mode="lstf")
        assert len(result.replayed) == len(original)
        for row in original:
            replayed = result.replayed.row(row["packet_id"])
            assert replayed["path"] == row["path"]
            assert replayed["ingress_time"] == pytest.approx(row["ingress_time"])
            assert replayed["size_bytes"] == row["size_bytes"]


class TestReplayQuality:
    """The paper's headline empirical claims, at test-suite scale."""

    def test_omniscient_replay_is_perfect(self):
        experiment = dumbbell_experiment()
        result = experiment.replay(mode="omniscient")
        assert result.overdue_fraction == 0.0

    def test_lstf_replays_random_schedule_almost_perfectly(self):
        experiment = dumbbell_experiment()
        result = experiment.replay(mode="lstf")
        assert result.overdue_fraction < 0.05
        assert result.overdue_beyond_threshold_fraction < 0.01

    def test_lstf_beats_simple_priorities(self):
        experiment = dumbbell_experiment()
        results = experiment.run(modes=["lstf", "priority"])
        assert results["lstf"].overdue_fraction <= results["priority"].overdue_fraction
        assert results["priority"].overdue_fraction > 0.0

    def test_edf_matches_lstf_overdue_fraction(self):
        experiment = dumbbell_experiment()
        results = experiment.run(modes=["lstf", "edf"])
        assert results["edf"].overdue_fraction == pytest.approx(
            results["lstf"].overdue_fraction, abs=1e-9
        )

    def test_fifo_original_is_easy_to_replay(self):
        experiment = dumbbell_experiment(original="fifo")
        result = experiment.replay(mode="lstf")
        assert result.overdue_beyond_threshold_fraction < 0.01

    def test_preemption_helps_sjf_originals(self):
        experiment = dumbbell_experiment(original="sjf", utilization=0.75)
        results = experiment.run(modes=["lstf", "lstf-preemptive"])
        assert (
            results["lstf-preemptive"].overdue_fraction
            <= results["lstf"].overdue_fraction
        )

    def test_replaying_an_uncongested_schedule_is_perfect(self):
        """With constant-size, widely spaced flows there is no queueing at all."""
        topo = dumbbell_topology(2, mbps(10), mbps(100))
        workload = WorkloadSpec(
            utilization=0.05,
            reference_bandwidth_bps=mbps(10),
            size_distribution=ConstantSize(1460),
            transport="udp",
            duration=0.2,
        )
        experiment = ReplayExperiment(
            topo, "fifo", workload, seed=1,
            sources=["src0", "src1"], destinations=["dst0", "dst1"],
        )
        result = experiment.replay(mode="lstf")
        assert result.overdue_fraction == 0.0


class TestEvaluateReplay:
    def test_threshold_defaults_to_bottleneck_transmission(self):
        experiment = dumbbell_experiment()
        original = experiment.record()
        result = evaluate_replay(
            dumbbell_topology(4, mbps(10), mbps(100)), original, mode="lstf",
            threshold_packet_bytes=1460,
        )
        assert result.metrics.threshold == pytest.approx(1460 * 8 / mbps(10))

    def test_explicit_threshold_respected(self):
        experiment = dumbbell_experiment()
        original = experiment.record()
        result = evaluate_replay(
            dumbbell_topology(4, mbps(10), mbps(100)), original, mode="lstf", threshold=0.5
        )
        assert result.metrics.threshold == 0.5
