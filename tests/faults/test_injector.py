"""Behavioral tests for the fault injector, end-to-end through replay."""

import pytest

from repro.core.replay import evaluate_replay, original_scheduler_factory, record_schedule
from repro.faults import FAULTS, BernoulliLoss, FaultPlan, FaultScheduleDef
from repro.faults.defs import GilbertElliottLoss, JammingIntervals, LinkOutage
from repro.sim.compiled import kernel_available, unavailable_reason
from repro.topology import dumbbell_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps


def topology():
    return dumbbell_topology(4, mbps(10), mbps(100))


def recorded_schedule(seed=5):
    topo = topology()
    return record_schedule(
        topo,
        original_scheduler_factory("random", topo),
        WorkloadSpec(
            utilization=0.6,
            reference_bandwidth_bps=mbps(10),
            size_distribution=paper_default_workload(),
            transport="udp",
            duration=0.25,
        ),
        seed=seed,
        sources=[f"src{i}" for i in range(4)],
        destinations=[f"dst{i}" for i in range(4)],
    )


def plan_of(*faults, seed=0, name="test"):
    return FaultPlan(FaultScheduleDef(name=name, faults=tuple(faults)), seed=seed)


def replay(schedule, faults=None, mode="lstf", backend=None):
    return evaluate_replay(topology(), schedule, mode=mode, faults=faults, backend=backend)


@pytest.fixture(scope="module")
def schedule():
    return recorded_schedule()


class TestLossFaults:
    def test_certain_loss_destroys_everything(self, schedule):
        result = replay(schedule, faults=plan_of(BernoulliLoss(rate=1.0)))
        assert result.metrics.delivered_fraction == 0.0
        assert result.metrics.missing_packets == result.metrics.total_packets

    def test_zero_rate_loss_is_harmless(self, schedule):
        clean = replay(schedule)
        result = replay(schedule, faults=plan_of(BernoulliLoss(rate=0.0)))
        assert result.metrics.delivered_fraction == 1.0
        assert result.overdue_fraction == clean.overdue_fraction

    def test_partial_loss_is_partial(self, schedule):
        result = replay(schedule, faults=plan_of(BernoulliLoss(rate=0.05)))
        assert 0.0 < result.metrics.delivered_fraction < 1.0

    def test_gilbert_loss_is_bursty_and_deterministic(self, schedule):
        plan = plan_of(GilbertElliottLoss(p_enter_bad=0.05, p_exit_bad=0.25), seed=2)
        first = replay(schedule, faults=plan)
        second = replay(schedule, faults=plan)
        assert first.metrics.delivered_fraction < 1.0
        assert first.metrics.missing_packets == second.metrics.missing_packets
        assert {r["packet_id"] for r in first.replayed} == {
            r["packet_id"] for r in second.replayed
        }

    def test_fault_seed_changes_which_packets_die(self, schedule):
        loss = BernoulliLoss(rate=0.1)
        survivors = [
            {r["packet_id"] for r in replay(schedule, faults=plan_of(loss, seed=s)).replayed}
            for s in (1, 2)
        ]
        assert survivors[0] != survivors[1]

    def test_scoped_loss_spares_other_links(self, schedule):
        # Certain loss pinned to one access link: exactly src0's packets die.
        scoped = plan_of(BernoulliLoss(rate=1.0, links=("src0->left",)))
        result = replay(schedule, faults=scoped)
        assert 0.0 < result.metrics.delivered_fraction < 1.0
        src0_packets = sum(1 for r in schedule if r["src"] == "src0")
        assert src0_packets > 0
        assert result.metrics.missing_packets == src0_packets


class TestOutages:
    def test_outage_drops_some_and_resumes_service(self, schedule):
        result = replay(schedule, faults=plan_of(LinkOutage(start=0.3, duration=0.2)))
        # Some packets die (in-flight aborts), but service resumes: packets
        # ingressing after the window still arrive.
        assert 0.0 < result.metrics.delivered_fraction < 1.0
        horizon = max(r["ingress_time"] for r in schedule)
        late_survivors = [
            r for r in result.replayed if r["ingress_time"] > 0.6 * horizon
        ]
        assert late_survivors

    def test_repeated_outages_hurt_more(self, schedule):
        one = replay(schedule, faults=plan_of(LinkOutage(start=0.2, duration=0.05)))
        many = replay(
            schedule,
            faults=plan_of(
                LinkOutage(start=0.2, duration=0.05, period=0.2, count=4)
            ),
        )
        assert many.metrics.delivered_fraction <= one.metrics.delivered_fraction


class TestJamming:
    def test_jam_windows_destroy_in_window_completions(self, schedule):
        result = replay(
            schedule,
            faults=plan_of(JammingIntervals(start=0.2, duration=0.05, period=0.25, count=3)),
        )
        assert 0.0 < result.metrics.delivered_fraction < 1.0
        # Deterministic (no RNG): reruns are bit-identical.
        again = replay(
            schedule,
            faults=plan_of(JammingIntervals(start=0.2, duration=0.05, period=0.25, count=3)),
        )
        assert again.metrics.missing_packets == result.metrics.missing_packets


class TestEmptyPlanAndComposition:
    def test_empty_plan_is_bit_identical_to_no_plan(self, schedule):
        clean = replay(schedule)
        empty = replay(schedule, faults=FaultPlan(FAULTS.get("empty"), seed=42))
        assert empty.metrics.delivered_fraction == 1.0
        assert empty.overdue_fraction == clean.overdue_fraction
        assert [
            (r["packet_id"], r["output_time"]) for r in empty.replayed
        ] == [(r["packet_id"], r["output_time"]) for r in clean.replayed]

    def test_composed_faults_are_deterministic(self, schedule):
        plan = plan_of(
            BernoulliLoss(rate=0.05),
            GilbertElliottLoss(p_enter_bad=0.03, p_exit_bad=0.3),
            JammingIntervals(start=0.5, duration=0.1),
            seed=9,
        )
        first = replay(schedule, faults=plan)
        second = replay(schedule, faults=plan)
        assert first.metrics.missing_packets == second.metrics.missing_packets
        assert first.metrics.delivered_fraction < 1.0


class TestBackendFallback:
    @pytest.mark.skipif(not kernel_available(), reason=unavailable_reason() or "")
    def test_compiled_replays_faults_bit_identically(self, schedule):
        from repro.sim.backend import select_engine

        def decide(faults):
            return select_engine("compiled", topology(), "lstf", faults=faults)

        plan = plan_of(BernoulliLoss(rate=0.05), seed=1)
        assert decide(None) == decide(plan) == ("compiled", [])
        assert decide(FaultPlan(FAULTS.get("empty"))) == ("compiled", [])
        reference = replay(schedule, faults=plan, backend="python")
        flat = replay(schedule, faults=plan, backend="compiled")
        assert flat.metrics == reference.metrics and reference.metrics.missing_packets > 0
        assert flat.replayed.columns() == reference.replayed.columns()


class TestInstallGuards:
    def test_double_install_rejected(self, schedule):
        from repro.sim.simulation import Simulation
        from repro.schedulers.fifo import FifoScheduler

        simulation = Simulation(topology(), lambda name, node: FifoScheduler())
        plan = plan_of(BernoulliLoss(rate=0.5))
        simulation.network.install_faults(plan, horizon=1.0)
        with pytest.raises(RuntimeError, match="already"):
            simulation.network.install_faults(plan, horizon=1.0)

    def test_nonpositive_horizon_rejected(self, schedule):
        from repro.sim.simulation import Simulation
        from repro.schedulers.fifo import FifoScheduler

        simulation = Simulation(topology(), lambda name, node: FifoScheduler())
        with pytest.raises(ValueError, match="horizon"):
            simulation.network.install_faults(plan_of(BernoulliLoss(rate=0.5)), horizon=0.0)
