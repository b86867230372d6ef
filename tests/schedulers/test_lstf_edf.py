"""Unit tests for LSTF, preemptive LSTF, FIFO+, EDF, and the omniscient scheduler."""

import itertools
from collections import deque

import pytest

from repro.schedulers import uniform_factory
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fifo_plus import FifoPlusScheduler
from repro.schedulers.lstf import LstfScheduler, PreemptiveLstfScheduler
from repro.schedulers.omniscient import OmniscientReplayScheduler
from repro.sim import Simulator, Tracer
from repro.sim.packet import Packet
from repro.topology import Topology, linear_topology, single_switch_topology
from repro.utils import mbps, transmission_delay

#: Hand-built packets only need distinct ids (schedulers key their queues on them).
_ids = itertools.count()


def packet(slack=None, size=1000, wait=0.0, deadline=None, flow_id=1):
    pkt = Packet(flow_id=flow_id, src="a", dst="b", size_bytes=size, packet_id=next(_ids))
    pkt.header.slack = slack
    pkt.header.accumulated_wait = wait
    pkt.header.deadline = deadline
    return pkt


def drain(scheduler, now=0.0):
    out = []
    while True:
        item = scheduler.dequeue(now)
        if item is None:
            break
        out.append(item)
    return out


class TestLstfOrdering:
    def test_least_slack_served_first(self):
        scheduler = LstfScheduler()
        patient = packet(slack=10.0)
        urgent = packet(slack=0.1)
        scheduler.enqueue(patient, 0.0)
        scheduler.enqueue(urgent, 0.0)
        assert drain(scheduler) == [urgent, patient]

    def test_earlier_arrival_wins_for_equal_slack(self):
        scheduler = LstfScheduler()
        early = packet(slack=1.0)
        late = packet(slack=1.0)
        scheduler.enqueue(early, 0.0)
        scheduler.enqueue(late, 0.5)
        assert drain(scheduler, now=1.0) == [early, late]

    def test_waiting_consumes_slack_relative_to_new_arrivals(self):
        scheduler = LstfScheduler()
        # A packet with slack 1.0 that has waited 0.9 seconds must beat a
        # packet with slack 0.5 that just arrived.
        old = packet(slack=1.0)
        scheduler.enqueue(old, 0.0)
        fresh = packet(slack=0.5)
        scheduler.enqueue(fresh, 0.9)
        assert drain(scheduler, now=0.9) == [old, fresh]

    def test_slack_header_decremented_by_waiting_time(self):
        scheduler = LstfScheduler()
        pkt = packet(slack=2.0)
        scheduler.enqueue(pkt, 1.0)
        scheduler.dequeue(4.0)
        assert pkt.header.slack == pytest.approx(2.0 - 3.0)

    def test_packets_without_slack_served_last(self):
        scheduler = LstfScheduler()
        no_slack = packet(slack=None)
        with_slack = packet(slack=100.0)
        scheduler.enqueue(no_slack, 0.0)
        scheduler.enqueue(with_slack, 1.0)
        assert drain(scheduler, now=1.0) == [with_slack, no_slack]

    def test_choose_drop_picks_most_remaining_slack(self):
        scheduler = LstfScheduler()
        tight = packet(slack=0.01)
        loose = packet(slack=5.0)
        scheduler.enqueue(tight, 0.0)
        scheduler.enqueue(loose, 0.0)
        arriving = packet(slack=1.0)
        assert scheduler.choose_drop(arriving, 0.0) is loose


class TestFifoPlus:
    def test_larger_upstream_wait_gets_priority(self):
        scheduler = FifoPlusScheduler()
        fresh = packet(wait=0.0)
        delayed = packet(wait=0.5)
        scheduler.enqueue(fresh, 0.0)
        scheduler.enqueue(delayed, 0.1)
        assert drain(scheduler, now=0.2) == [delayed, fresh]

    def test_degenerates_to_fifo_without_upstream_waits(self):
        scheduler = FifoPlusScheduler()
        packets = [packet(wait=0.0) for _ in range(4)]
        for index, pkt in enumerate(packets):
            scheduler.enqueue(pkt, float(index))
        assert drain(scheduler, now=5.0) == packets


class TestPreemptiveLstf:
    def test_should_preempt_when_new_arrival_is_more_urgent(self):
        scheduler = PreemptiveLstfScheduler()
        in_flight = packet(slack=1.0)
        urgent = packet(slack=0.0)
        scheduler.enqueue(urgent, 0.0)
        assert scheduler.should_preempt(in_flight, 0.0, 0.0)

    def test_no_preemption_for_less_urgent_arrival(self):
        scheduler = PreemptiveLstfScheduler()
        in_flight = packet(slack=0.0)
        patient = packet(slack=5.0)
        scheduler.enqueue(patient, 0.0)
        assert not scheduler.should_preempt(in_flight, 0.0, 0.0)

    def test_port_level_preemption_lets_urgent_packet_overtake(self):
        # One slow link; a huge patient packet starts transmitting, then an
        # urgent small packet arrives and must exit first.
        topo = Topology("preempt")
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b", mbps(1))
        sim = Simulator()
        tracer = Tracer()
        network = topo.build(sim, uniform_factory("lstf-preemptive"), tracer=tracer)
        big = Packet(flow_id=1, src="a", dst="b", size_bytes=100000, packet_id=0)
        big.header.slack = 10.0
        small = Packet(flow_id=2, src="a", dst="b", size_bytes=1000, packet_id=1)
        small.header.slack = 0.0
        sim.schedule_at(0.0, network.host("a").send, big)
        sim.schedule_at(0.01, network.host("a").send, small)
        sim.run()
        assert small.egress_time < big.egress_time
        # The preempted packet still gets delivered in full.
        assert big.egress_time is not None


class TestEdfLstfEquivalence:
    def test_edf_and_lstf_produce_identical_output_times(self):
        """Appendix E: the two formulations yield the same replay schedule up
        to ties — exact ``o(p)`` ties and float near-ties can swap packets
        (6 of 4,524 in the first 6 quick Table 1 scenarios); this one has none."""
        from repro.core.replay import ReplayExperiment
        from repro.traffic import WorkloadSpec, paper_default_workload

        topo = linear_topology(
            num_routers=2, bandwidth_bps=mbps(10), hosts_per_end=3,
            access_bandwidth_bps=mbps(50),
        )
        workload = WorkloadSpec(
            utilization=0.6,
            reference_bandwidth_bps=mbps(10),
            size_distribution=paper_default_workload(),
            transport="udp",
            duration=0.2,
        )
        experiment = ReplayExperiment(
            topo,
            "random",
            workload,
            seed=11,
            sources=[f"src{i}" for i in range(3)],
            destinations=[f"dst{i}" for i in range(3)],
        )
        results = experiment.run(modes=["lstf", "edf"])
        lstf, edf = results["lstf"], results["edf"]
        assert len(lstf.replayed) == len(edf.replayed) > 0
        for row in lstf.replayed:
            other = edf.replayed.row(row["packet_id"])
            assert other["output_time"] == pytest.approx(row["output_time"], abs=1e-9)


class TestOmniscientScheduler:
    def test_serves_in_recorded_hop_order(self):
        scheduler = OmniscientReplayScheduler()
        late = packet()
        late.header.hop_output_times = deque([5.0])
        early = packet()
        early.header.hop_output_times = deque([1.0])
        scheduler.enqueue(late, 0.0)
        scheduler.enqueue(early, 0.0)
        assert drain(scheduler) == [early, late]

    def test_each_hop_pops_one_vector_entry(self):
        scheduler = OmniscientReplayScheduler()
        pkt = packet()
        pkt.header.hop_output_times = deque([3.0, 7.0])
        scheduler.enqueue(pkt, 0.0)
        assert list(pkt.header.hop_output_times) == [7.0]

    def test_packet_without_vector_served_last(self):
        scheduler = OmniscientReplayScheduler()
        blank = packet()
        blank.header.hop_output_times = deque()
        annotated = packet()
        annotated.header.hop_output_times = deque([2.0])
        scheduler.enqueue(blank, 0.0)
        scheduler.enqueue(annotated, 0.0)
        assert drain(scheduler) == [annotated, blank]


class TestEdfScheduler:
    def test_earlier_deadline_first_without_port(self):
        scheduler = EdfScheduler()
        soon = packet(deadline=1.0)
        later = packet(deadline=9.0)
        scheduler.enqueue(later, 0.0)
        scheduler.enqueue(soon, 0.0)
        assert drain(scheduler) == [soon, later]

    def test_deadline_adjusted_by_remaining_path(self):
        # Two packets with the same deadline but different remaining path
        # lengths: the one farther from its destination is more urgent.
        topo = linear_topology(num_routers=3, bandwidth_bps=mbps(10), hosts_per_end=1)
        sim = Simulator()
        network = topo.build(sim, uniform_factory("edf"))
        scheduler = network.nodes["r0"].port_to("r1").scheduler
        near = Packet(flow_id=1, src="dst0", dst="src0", size_bytes=1000,
                      route=["r0", "src0"], packet_id=0)
        near.header.deadline = 1.0
        far = Packet(flow_id=2, src="src0", dst="dst0", size_bytes=1000,
                     route=["r0", "r1", "r2", "dst0"], packet_id=1)
        far.header.deadline = 1.0
        key_near = scheduler.key(near, 0.0, 0.0)
        key_far = scheduler.key(far, 0.0, 0.0)
        assert key_far < key_near
