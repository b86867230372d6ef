"""Tests for schedule records, congestion-point analysis, and replay metrics."""

import pytest

from repro.core.metrics import compare_schedules, fraction_overdue, lateness_distribution
from repro.core.schedule import HopTiming, PacketRecord, Schedule
from repro.schedulers import uniform_factory
from repro.sim import Simulation, Simulator
from repro.sim.flow import Flow
from repro.sim.packet import Packet
from repro.topology import linear_topology
from repro.transport import start_udp_flow
from repro.utils import mbps


def record(
    pid, ingress=0.0, output=1.0, queueing=(), path=("a", "r", "b"), deadline=None, flow=None
):
    hops = [
        HopTiming(node=f"n{i}", arrival_time=0.0, start_service_time=q, departure_time=None)
        for i, q in enumerate(queueing)
    ]
    return PacketRecord(
        packet_id=pid,
        flow_id=flow if flow is not None else pid,
        src=path[0],
        dst=path[-1],
        size_bytes=1000,
        ingress_time=ingress,
        output_time=output,
        path=list(path),
        hops=hops,
        deadline=deadline,
    )


class TestPacketRecord:
    def test_from_packet_requires_delivery(self):
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=100, packet_id=0)
        with pytest.raises(ValueError):
            PacketRecord.from_packet(packet)

    def test_from_simulated_packet_captures_path_and_times(self):
        topo = linear_topology(2, mbps(10))
        simulation = Simulation(topo, uniform_factory("fifo"))
        flow = Flow(src="src0", dst="dst0", size_bytes=2920, start_time=0.0)
        start_udp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run()
        packet = simulation.tracer.delivered_data_packets()[0]
        rec = PacketRecord.from_packet(packet)
        assert rec.path == ["src0", "r0", "r1", "dst0"]
        assert rec.output_time > rec.ingress_time
        assert rec.network_delay == pytest.approx(packet.end_to_end_delay)

    def test_congestion_points_count_waiting_hops(self):
        rec = record(1, queueing=(0.0, 0.5, 0.0, 0.2))
        # Hops are built with arrival 0 and service time = the given value, so
        # nonzero values are congestion points.
        assert rec.congestion_points() == 2


class TestSchedule:
    def test_duplicate_packet_ids_rejected(self):
        schedule = Schedule([record(1)])
        with pytest.raises(ValueError):
            schedule.add(record(1))

    def test_records_sorted_by_ingress(self):
        schedule = Schedule([record(1, ingress=5.0), record(2, ingress=1.0)])
        assert [r.packet_id for r in schedule.records()] == [2, 1]

    def test_lookup_and_membership(self):
        schedule = Schedule([record(7)])
        assert 7 in schedule
        assert schedule.get(8) is None
        with pytest.raises(KeyError):
            schedule.record(8)

    def test_time_span_and_totals(self):
        schedule = Schedule([record(1, ingress=1.0, output=2.0), record(2, ingress=0.5, output=4.0)])
        assert schedule.time_span() == (0.5, 4.0)
        assert schedule.total_bytes() == 2000
        assert len(schedule) == 2

    def test_congestion_point_histogram(self):
        schedule = Schedule(
            [record(1, queueing=(0.1,)), record(2, queueing=(0.1, 0.1)), record(3, queueing=())]
        )
        assert schedule.congestion_point_histogram() == {0: 1, 1: 1, 2: 1}
        assert schedule.max_congestion_points() == 2

    def test_from_packets_with_replay_ids(self):
        # A replay's packet *is* the recorded packet: it carries the recorded id.
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=100, packet_id=99)
        packet.ingress_time = 0.0
        packet.egress_time = 1.0
        schedule = Schedule.from_packets([packet])
        assert 99 in schedule


class TestReplayMetrics:
    def test_perfect_replay_has_no_overdue(self):
        original = Schedule([record(1, output=1.0), record(2, output=2.0)])
        replay = Schedule([record(1, output=1.0), record(2, output=1.5)])
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.overdue_fraction == 0.0
        assert metrics.overdue_beyond_threshold_fraction == 0.0
        assert metrics.mean_lateness == 0.0

    def test_overdue_and_threshold_counting(self):
        original = Schedule([record(i, output=1.0) for i in range(4)])
        replay = Schedule(
            [
                record(0, output=1.0),     # on time
                record(1, output=1.05),    # overdue, within threshold
                record(2, output=1.5),     # overdue beyond threshold
                record(3, output=0.9),     # early
            ]
        )
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.total_packets == 4
        assert metrics.overdue_count == 2
        assert metrics.overdue_beyond_threshold_count == 1
        assert metrics.overdue_fraction == pytest.approx(0.5)
        assert metrics.max_lateness == pytest.approx(0.5)

    def test_missing_replay_packet_counts_as_overdue(self):
        original = Schedule([record(1), record(2)])
        replay = Schedule([record(1)])
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.missing_packets == 1
        assert metrics.overdue_count == 1
        assert metrics.overdue_beyond_threshold_count == 1

    def test_tiny_lateness_below_tolerance_ignored(self):
        original = Schedule([record(1, output=1.0)])
        replay = Schedule([record(1, output=1.0 + 1e-12)])
        assert fraction_overdue(original, replay) == 0.0

    def test_deadline_metrics_default_to_zero_without_deadlines(self):
        original = Schedule([record(1), record(2)])
        replay = Schedule([record(1), record(2)])
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.deadline_total == 0
        assert metrics.deadline_met_fraction_original == 0.0
        assert metrics.deadline_met_fraction_replay == 0.0

    def test_deadline_met_fractions_for_original_and_replay(self):
        original = Schedule(
            [
                record(1, output=1.0, deadline=2.0),  # met in both runs
                record(2, output=1.0, deadline=1.5),  # met originally, missed in replay
                record(3, output=2.0, deadline=1.0),  # missed in both
                record(4, output=1.0),                # no deadline: not counted
            ]
        )
        replay = Schedule(
            [
                record(1, output=1.5),
                record(2, output=1.8),
                record(3, output=2.0),
                record(4, output=1.0),
            ]
        )
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.deadline_total == 3
        assert metrics.deadline_met_original == 2
        assert metrics.deadline_met_replay == 1
        assert metrics.deadline_met_fraction_original == pytest.approx(2 / 3)
        assert metrics.deadline_met_fraction_replay == pytest.approx(1 / 3)

    def test_deadline_packet_missing_from_replay_counts_as_missed(self):
        original = Schedule([record(1, output=1.0, deadline=5.0)])
        metrics = compare_schedules(original, Schedule(), threshold=0.1)
        assert metrics.deadline_total == 1
        assert metrics.deadline_met_original == 1
        assert metrics.deadline_met_replay == 0

    def test_flow_deadline_judged_by_its_last_packet(self):
        """A multi-packet flow meets its deadline only if every packet —
        i.e. the last one — beats it; early on-time packets don't count."""
        original = Schedule(
            [
                record(1, output=1.0, deadline=2.0, flow=10),
                record(2, output=1.5, deadline=2.0, flow=10),
            ]
        )
        late_replay = Schedule(
            [
                record(1, output=1.0, flow=10),   # on time
                record(2, output=3.0, flow=10),   # the flow's last packet is late
            ]
        )
        metrics = compare_schedules(original, late_replay, threshold=0.1)
        assert metrics.deadline_total == 1  # one flow, not two packets
        assert metrics.deadline_met_original == 1
        assert metrics.deadline_met_replay == 0

    def test_queueing_delay_ratios_collected(self):
        original = Schedule([record(1, queueing=(0.2,))])
        replay = Schedule([record(1, queueing=(0.1,))])
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.queueing_delay_ratios == [pytest.approx(0.5)]

    def test_lateness_distribution(self):
        original = Schedule([record(1, output=1.0), record(2, output=1.0)])
        replay = Schedule([record(1, output=1.2), record(2, output=0.8)])
        lateness = lateness_distribution(original, replay)
        assert sorted(round(x, 6) for x in lateness) == [-0.2, 0.2]

    def test_empty_schedules(self):
        metrics = compare_schedules(Schedule(), Schedule(), threshold=0.1)
        assert metrics.total_packets == 0
        assert metrics.overdue_fraction == 0.0


class TestDeliveryMetrics:
    """The fault-facing metrics: survival rate and deadline-over-delivered."""

    def test_delivered_fraction_counts_missing_packets(self):
        original = Schedule([record(1), record(2), record(3), record(4)])
        replay = Schedule([record(1), record(3)])
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.missing_packets == 2
        assert metrics.delivered_fraction == 0.5

    def test_full_delivery_is_one_even_on_empty_comparison(self):
        full = compare_schedules(Schedule([record(1)]), Schedule([record(1)]),
                                 threshold=0.1)
        assert full.delivered_fraction == 1.0
        empty = compare_schedules(Schedule(), Schedule(), threshold=0.1)
        assert empty.delivered_fraction == 1.0

    def test_deadline_over_delivered_conditions_on_survival(self):
        """Two deadline flows: one destroyed by faults, one delivered late.
        The unconditional replay metric blames both; the conditional metric
        only judges the survivor."""
        original = Schedule(
            [
                record(1, output=1.0, deadline=2.0, flow=10),
                record(2, output=1.0, deadline=2.0, flow=20),
            ]
        )
        replay = Schedule([record(1, output=1.5, flow=10)])  # flow 20 lost
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.deadline_total == 2
        assert metrics.deadline_flows_delivered == 1
        assert metrics.deadline_met_fraction_replay == 0.5
        assert metrics.deadline_met_over_delivered_fraction == 1.0

    def test_partially_missing_flow_counts_as_undelivered(self):
        """A deadline flow missing ANY packet is not 'delivered', even if
        its other packets arrived before the deadline."""
        original = Schedule(
            [
                record(1, output=1.0, deadline=3.0, flow=10),
                record(2, output=1.5, deadline=3.0, flow=10),
            ]
        )
        replay = Schedule([record(1, output=1.0, flow=10)])
        metrics = compare_schedules(original, replay, threshold=0.1)
        assert metrics.deadline_flows_delivered == 0
        assert metrics.deadline_met_over_delivered_fraction == 0.0
