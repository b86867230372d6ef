"""Tests for the UDP and simplified TCP transports."""

import pytest

from repro.schedulers.factory import uniform_factory
from repro.sim.flow import Flow
from repro.sim.packet import PacketType
from repro.sim.simulation import Simulation
from repro.topology import dumbbell_topology
from repro.topology.base import linear_topology
from repro.transport.tcp import start_tcp_flow
from repro.transport.udp import start_udp_flow
from repro.utils import mbps


def build_simulation(topo, scheduler="fifo", buffer_bytes=None, seed=0):
    return Simulation(topo, uniform_factory(scheduler), default_buffer_bytes=buffer_bytes, seed=seed)


class TestUdp:
    def test_flow_fully_delivered_and_completion_recorded(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=14600, start_time=0.0)
        start_udp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run()
        assert flow.completed
        assert flow.bytes_delivered == pytest.approx(14600)
        assert flow.packets_delivered == flow.num_packets == 10

    def test_packets_carry_flow_size_and_remaining(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=4380, start_time=0.0)
        start_udp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run()
        delivered = simulation.tracer.delivered_data_packets()
        assert {p.header.flow_size_bytes for p in delivered} == {4380}
        remainings = sorted(p.header.remaining_flow_bytes for p in delivered)
        assert remainings == [1460.0, 2920.0, 4380.0]

    def test_flow_start_time_honoured(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=1460, start_time=0.25)
        start_udp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run()
        delivered = simulation.tracer.delivered_data_packets()
        assert delivered[0].ingress_time >= 0.25

    def test_fct_equals_serialization_plus_latency_on_empty_network(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=14600, start_time=0.0)
        start_udp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run()
        # Ten packets pacing through three equal-speed links: the last packet
        # leaves the source at 10 transmissions and needs 2 more store-and-
        # forward hops.
        per_packet = 1460 * 8 / mbps(10)
        assert flow.fct == pytest.approx(12 * per_packet, rel=1e-6)

    def test_double_start_rejected(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=1460, start_time=0.0)
        source = start_udp_flow(simulation.sim, simulation.network, flow)
        with pytest.raises(RuntimeError):
            source.start()


class TestTcp:
    def test_small_flow_completes_without_losses(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=14600, start_time=0.0)
        sender = start_tcp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run(until=5.0)
        assert flow.completed
        assert sender.completed
        assert flow.retransmissions == 0
        assert flow.bytes_delivered == pytest.approx(14600)

    def test_acks_travel_back_through_network(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=4380, start_time=0.0)
        start_tcp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run(until=5.0)
        acks = [p for p in simulation.tracer.delivered if p.ptype is PacketType.ACK]
        assert len(acks) >= flow.num_packets
        assert all(p.dst == "src0" for p in acks)

    def test_congestion_window_grows_during_slow_start(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=100 * 1460, start_time=0.0)
        sender = start_tcp_flow(simulation.sim, simulation.network, flow)
        initial_cwnd = sender.cwnd
        simulation.sim.run(until=5.0)
        assert sender.cwnd > initial_cwnd

    def test_losses_trigger_retransmissions_and_flow_still_completes(self):
        # A tiny buffer at a slow bottleneck forces drops.
        topo = dumbbell_topology(1, mbps(2), mbps(50))
        simulation = build_simulation(topo, buffer_bytes=4 * 1460)
        flow = Flow(src="src0", dst="dst0", size_bytes=60 * 1460, start_time=0.0)
        sender = start_tcp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run(until=30.0)
        assert len(simulation.tracer.dropped) > 0
        assert flow.retransmissions > 0
        assert flow.completed

    def test_two_flows_share_bottleneck_and_both_complete(self):
        topo = dumbbell_topology(2, mbps(5), mbps(50))
        simulation = build_simulation(topo, buffer_bytes=64 * 1460)
        flows = [
            Flow(src="src0", dst="dst0", size_bytes=40 * 1460, start_time=0.0),
            Flow(src="src1", dst="dst1", size_bytes=40 * 1460, start_time=0.0),
        ]
        for flow in flows:
            start_tcp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run(until=30.0)
        assert all(flow.completed for flow in flows)

    def test_srpt_header_fields_stamped(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=7300, start_time=0.0)
        start_tcp_flow(simulation.sim, simulation.network, flow)
        simulation.sim.run(until=5.0)
        data = [p for p in simulation.tracer.delivered if p.ptype is PacketType.DATA]
        assert all(p.header.flow_size_bytes == 7300 for p in data)
        first = min(data, key=lambda p: p.seq)
        last = max(data, key=lambda p: p.seq)
        assert first.header.remaining_flow_bytes > last.header.remaining_flow_bytes

    def test_double_start_rejected(self):
        topo = linear_topology(2, mbps(10))
        simulation = build_simulation(topo)
        flow = Flow(src="src0", dst="dst0", size_bytes=1460, start_time=0.0)
        sender = start_tcp_flow(simulation.sim, simulation.network, flow)
        with pytest.raises(RuntimeError):
            sender.start()
