"""Tests for the executable theory results (the paper's appendix)."""

import pytest

from repro.core.replay import evaluate_replay
from repro.core.schedule import Schedule
from repro.core.theory import (
    add_congestion_segment,
    appendix_c_example,
    appendix_f_example,
    appendix_g_example,
    bandwidth_for_transmission_time,
    blackbox_attributes,
    has_priority_cycle,
    identical_blackbox_views,
    priority_order_constraints,
)
from repro.topology.base import Topology


def overdue(example, schedule, mode):
    result = evaluate_replay(example.topology, schedule, mode=mode, threshold=1e-6)
    return result.metrics.overdue_count


class TestHelpers:
    def test_bandwidth_for_transmission_time(self):
        assert bandwidth_for_transmission_time(1.0, size_bytes=1.0) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            bandwidth_for_transmission_time(0.0)

    def test_congestion_segment_structure(self):
        topo = Topology("t")
        in_name, out_name = add_congestion_segment(topo, "alpha", 1.0)
        assert in_name == "alpha-in"
        assert out_name == "alpha-out"
        assert len(topo.links) == 1
        assert topo.links[0].bandwidth_bps == pytest.approx(8.0)


class TestMaxCongestionPoints:
    """``max_congestion_points`` reads the hop columns; the values are pinned."""

    def test_appendix_schedules(self):
        case1, case2 = appendix_c_example().schedules
        assert [case1.max_congestion_points(), case2.max_congestion_points()] == [1, 2]
        assert appendix_f_example().schedule.max_congestion_points() == 1
        assert appendix_g_example().schedule.max_congestion_points() == 1

    def test_a_hop_counts_when_its_wait_exceeds_epsilon(self):
        row = {
            "packet_id": 1, "flow_id": 1, "src": "s", "dst": "d", "size_bytes": 1.0,
            "ingress_time": 0.0, "output_time": 4.0, "path": ["s", "r0", "r1", "r2", "d"],
            # waits 1.0, none (never served), 0.0, 0.5
            "hops": [("s", 0.0, 1.0, 2.0), ("r0", 2.0, None, None), ("r1", 2.0, 2.0, 3.0), ("r2", 3.0, 3.5, 4.0)],
        }
        schedule = Schedule.from_rows([row])
        assert schedule.max_congestion_points() == 2
        assert schedule.max_congestion_points(epsilon=0.7) == 1
        assert schedule.max_congestion_points(epsilon=-1.0) == 4  # an unserved hop waited 0.0
        assert Schedule().max_congestion_points() == 0
        assert Schedule.from_rows([{**row, "hops": []}]).max_congestion_points() == 0


class TestAppendixC:
    """No UPS exists under black-box initialization."""

    def test_two_cases_share_blackbox_views_for_a_and_x(self):
        example = appendix_c_example()
        case1, case2 = example.schedules
        for name in ("a", "x"):
            pid = example.packet_names[name]
            assert identical_blackbox_views(case1, case2, pid)

    def test_cases_are_genuinely_different_schedules(self):
        example = appendix_c_example()
        case1, case2 = example.schedules
        differing = [
            pid for pid in case1.columns().packet_id
            if blackbox_attributes(case1.row(pid)) != blackbox_attributes(case2.row(pid))
        ]
        assert differing  # packets from flows B and Y have different output times

    @pytest.mark.parametrize("mode", ["lstf", "lstf-preemptive", "edf", "priority"])
    def test_every_deterministic_blackbox_candidate_fails_some_case(self, mode):
        example = appendix_c_example()
        failures = [overdue(example, schedule, mode) for schedule in example.schedules]
        assert max(failures) > 0

    def test_packets_a_and_x_cross_three_congestion_points(self):
        example = appendix_c_example()
        for name in ("a", "x"):
            row = example.schedules[0].row(example.packet_names[name])
            assert Schedule.from_rows([row]).max_congestion_points() >= 1
            # Their paths traverse three congestion segments.
            segment_hops = [node for node in row["path"] if node.endswith("-in")]
            assert len(segment_hops) == 3


class TestAppendixF:
    """Simple priorities fail at two congestion points; LSTF does not."""

    def test_schedule_has_at_most_two_congestion_points_per_packet(self):
        example = appendix_f_example()
        for row in example.schedule:
            segment_hops = [node for node in row["path"] if node.endswith("-in")]
            assert len(segment_hops) <= 2

    def test_priority_cycle_detected(self):
        example = appendix_f_example()
        assert has_priority_cycle(example.schedule)
        graph = priority_order_constraints(example.schedule)
        a, b, c = (example.packet_names[k] for k in ("a", "b", "c"))
        assert b in graph[a]
        assert c in graph[b]
        assert a in graph[c]

    def test_priority_replay_fails(self):
        example = appendix_f_example()
        assert overdue(example, example.schedule, "priority") > 0

    def test_preemptive_lstf_replays_perfectly(self):
        example = appendix_f_example()
        assert overdue(example, example.schedule, "lstf-preemptive") == 0

    def test_nonpreemptive_lstf_is_at_worst_slightly_late(self):
        """Without preemption the only violations are same-instant ties."""
        example = appendix_f_example()
        result = evaluate_replay(example.topology, example.schedule, mode="lstf", threshold=1e-6)
        assert result.metrics.max_lateness <= 0.5 + 1e-6


class TestAppendixG:
    """LSTF fails once a packet crosses three congestion points."""

    def test_flow_a_crosses_three_congestion_points(self):
        example = appendix_g_example()
        row = example.schedule.row(example.packet_names["a"])
        segment_hops = [node for node in row["path"] if node.endswith("-in")]
        assert len(segment_hops) == 3

    @pytest.mark.parametrize("mode", ["lstf", "lstf-preemptive", "priority", "edf"])
    def test_no_candidate_replays_the_schedule(self, mode):
        example = appendix_g_example()
        assert overdue(example, example.schedule, mode) > 0

    def test_schedule_has_no_priority_cycle(self):
        """The failure is not a trivial priority cycle; it is a slack-allocation dilemma."""
        example = appendix_g_example()
        assert not has_priority_cycle(example.schedule)
