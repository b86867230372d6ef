"""Tests for the packet and flow models."""

import pytest

from repro.schedulers import uniform_factory
from repro.sim import Simulator
from repro.sim.flow import Flow
from repro.sim.packet import HopRecord, Packet, PacketHeader, PacketType
from repro.topology import single_switch_topology
from repro.transport import start_udp_flow
from repro.utils import mbps


class TestPacket:
    def test_a_packet_cannot_be_built_without_an_id(self):
        with pytest.raises(TypeError, match="packet_id"):
            Packet(flow_id=1, src="a", dst="b", size_bytes=100)

    def test_hop_records_accumulate_queueing_delay(self):
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=100, packet_id=0)
        hop = packet.record_arrival("r1", 1.0)
        hop.start_service_time = 1.5
        hop.departure_time = 1.6
        hop2 = packet.record_arrival("r2", 2.0)
        hop2.start_service_time = 2.0
        assert packet.total_queueing_delay == pytest.approx(0.5)
        assert packet.path_taken == ["r1", "r2"]

    def test_end_to_end_delay_requires_both_timestamps(self):
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=100, packet_id=0)
        assert packet.end_to_end_delay is None
        packet.ingress_time = 1.0
        packet.egress_time = 3.5
        assert packet.end_to_end_delay == pytest.approx(2.5)

    def test_ack_flag(self):
        data = Packet(flow_id=1, src="a", dst="b", size_bytes=100, packet_id=0)
        ack = Packet(flow_id=1, src="b", dst="a", size_bytes=40, ptype=PacketType.ACK, packet_id=1)
        assert not data.is_ack
        assert ack.is_ack

    def test_header_copy_is_independent(self):
        from collections import deque

        header = PacketHeader(slack=1.0, hop_output_times=deque([1.0, 2.0]))
        copy = header.copy()
        copy.slack = 9.0
        copy.hop_output_times.popleft()
        assert header.slack == 1.0
        assert list(header.hop_output_times) == [1.0, 2.0]

    def test_hop_record_queueing_delay_without_service(self):
        hop = HopRecord(node="r1", arrival_time=2.0)
        assert hop.queueing_delay == 0.0


class TestFlow:
    def test_num_packets_rounds_up(self):
        assert Flow(src="a", dst="b", size_bytes=1460, start_time=0).num_packets == 1
        assert Flow(src="a", dst="b", size_bytes=1461, start_time=0).num_packets == 2
        assert Flow(src="a", dst="b", size_bytes=14600, start_time=0).num_packets == 10

    def test_packet_sizes_sum_to_flow_size(self):
        flow = Flow(src="a", dst="b", size_bytes=5000, start_time=0)
        sizes = flow.packet_sizes()
        assert sum(sizes) == pytest.approx(5000)
        assert all(size <= flow.mss for size in sizes)
        assert len(sizes) == flow.num_packets

    def test_zero_size_flow_has_no_packets(self):
        flow = Flow(src="a", dst="b", size_bytes=0, start_time=0)
        assert flow.num_packets == 0
        assert flow.packet_sizes() == []

    def test_fct_requires_completion(self):
        flow = Flow(src="a", dst="b", size_bytes=1000, start_time=1.0)
        assert flow.fct is None
        assert not flow.completed
        flow.completion_time = 3.0
        assert flow.completed
        assert flow.fct == pytest.approx(2.0)

    def test_flow_ids_are_unique(self):
        flows = [Flow(src="h0", dst="h1", size_bytes=1, start_time=0) for _ in range(5)]
        assert {flow.flow_id for flow in flows} == {None}  # not on any simulator yet
        sim = Simulator()
        network = single_switch_topology(2, mbps(10)).build(sim, uniform_factory("fifo"))
        for flow in flows:
            start_udp_flow(sim, network, flow)
        assert len({flow.flow_id for flow in flows}) == 5
