"""Tests for network construction, ports, store-and-forward timing, and drops."""

import pytest

from repro.schedulers.factory import uniform_factory
from repro.schedulers.lstf import LstfScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.tracer import Tracer
from repro.topology.base import Topology, linear_topology, single_switch_topology
from repro.utils import mbps
from repro.utils.units import transmission_delay


def build(topo, scheduler="fifo", buffer_bytes=None):
    sim = Simulator()
    tracer = Tracer()
    network = topo.build(
        sim, uniform_factory(scheduler), tracer=tracer, default_buffer_bytes=buffer_bytes
    )
    return sim, tracer, network


def packet_on(sim, **fields):
    """A hand-built packet, numbered by the simulator it is about to be sent on."""
    return Packet(packet_id=next(sim.packet_ids), **fields)


class TestNetworkConstruction:
    def test_duplicate_node_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        topo.add_host("a")
        with pytest.raises(ValueError):
            build(topo)

    def test_link_to_unknown_node_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        topo.add_link("a", "ghost", mbps(1))
        with pytest.raises(ValueError):
            build(topo)

    def test_duplicate_link_rejected(self):
        sim = Simulator()
        topo = linear_topology(num_routers=2, bandwidth_bps=mbps(1))
        network = topo.build(sim, uniform_factory("fifo"))
        with pytest.raises(ValueError):
            network.add_link("r0", "r1", mbps(1))

    def test_hosts_are_looked_up_by_kind(self):
        topo = linear_topology(num_routers=3, bandwidth_bps=mbps(1), hosts_per_end=2)
        _, _, network = build(topo)
        assert len(network.hosts()) == 4
        with pytest.raises(TypeError):
            network.host("r0")

    def test_full_duplex_ports_created(self):
        topo = linear_topology(num_routers=2, bandwidth_bps=mbps(1))
        _, _, network = build(topo)
        assert "r1" in network.nodes["r0"].ports
        assert "r0" in network.nodes["r1"].ports


class TestStoreAndForwardTiming:
    def test_single_packet_latency_equals_tmin(self):
        topo = linear_topology(num_routers=2, bandwidth_bps=mbps(10))
        sim, tracer, network = build(topo)
        packet = packet_on(sim, flow_id=1, src="src0", dst="dst0", size_bytes=1000)
        sim.schedule_at(0.0, network.host("src0").send, packet)
        sim.run()
        assert packet.egress_time == pytest.approx(network.tmin(1000, "src0", "dst0"))
        # No hop waited: each port started serving the packet the moment it
        # arrived.  Hops are flat, four entries each: node, arrival, service
        # start, departure.
        assert packet.hops[2::4] == pytest.approx(packet.hops[1::4], abs=1e-12)

    def test_back_to_back_packets_queue_at_source_port(self):
        topo = linear_topology(num_routers=2, bandwidth_bps=mbps(10))
        sim, tracer, network = build(topo)
        packets = [
            packet_on(sim, flow_id=1, src="src0", dst="dst0", size_bytes=1000) for _ in range(3)
        ]
        for packet in packets:
            sim.schedule_at(0.0, network.host("src0").send, packet)
        sim.run()
        tx = transmission_delay(1000, mbps(10))
        # Packets are serialized one after the other on the access link, then
        # pipeline through the empty downstream links.
        exits = sorted(p.egress_time for p in packets)
        assert exits[1] - exits[0] == pytest.approx(tx)
        assert exits[2] - exits[1] == pytest.approx(tx)

    def test_propagation_delay_adds_to_latency(self):
        topo = Topology("two-hosts")
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b", mbps(10), propagation_delay=0.005)
        sim, _, network = build(topo)
        packet = packet_on(sim, flow_id=1, src="a", dst="b", size_bytes=1000)
        sim.schedule_at(0.0, network.host("a").send, packet)
        sim.run()
        assert packet.egress_time == pytest.approx(
            transmission_delay(1000, mbps(10)) + 0.005
        )

    def test_hop_records_cover_path(self):
        topo = linear_topology(num_routers=3, bandwidth_bps=mbps(10))
        sim, _, network = build(topo)
        packet = packet_on(sim, flow_id=1, src="src0", dst="dst0", size_bytes=500)
        sim.schedule_at(0.0, network.host("src0").send, packet)
        sim.run()
        assert packet.path_taken == ["src0", "r0", "r1", "r2"]
        assert len(packet.hops) == 4 * len(packet.path_taken)
        for _node, _arrival, start_service_time, departure_time in zip(*[iter(packet.hops)] * 4):
            assert start_service_time is not None
            assert departure_time is not None


class TestTracer:
    def test_tracer_counts_ingress_and_egress(self):
        topo = single_switch_topology(num_hosts=3, bandwidth_bps=mbps(10))
        sim, tracer, network = build(topo)
        for i in range(4):
            packet = packet_on(sim, flow_id=i, src="h0", dst="h1", size_bytes=500)
            sim.schedule_at(0.0, network.host("h0").send, packet)
        sim.run()
        assert len(tracer.sent) == 4
        assert len(tracer.delivered) == 4
        assert not tracer.dropped


class TestFiniteBuffersAndDrops:
    def test_drop_tail_when_fifo_buffer_full(self):
        topo = single_switch_topology(num_hosts=2, bandwidth_bps=mbps(1))
        # Buffer that holds only two 1000-byte packets at the switch/host ports.
        sim, tracer, network = build(topo, scheduler="fifo", buffer_bytes=2000)
        packets = [
            packet_on(sim, flow_id=1, src="h0", dst="h1", size_bytes=1000) for _ in range(6)
        ]
        for packet in packets:
            sim.schedule_at(0.0, network.host("h0").send, packet)
        sim.run()
        assert len(tracer.dropped) > 0
        assert len(tracer.delivered) + len(tracer.dropped) == 6
        for packet in tracer.dropped:
            assert packet.dropped
            assert packet.drop_node is not None

    def test_lstf_drops_highest_slack_packet(self):
        topo = single_switch_topology(num_hosts=2, bandwidth_bps=mbps(1))
        sim, tracer, network = build(topo, scheduler="lstf", buffer_bytes=2500)
        # A low-slack packet occupies the transmitter; the queued high-slack
        # packet should be the drop victim when the buffer overflows, even
        # though it arrived before the later low-slack packets.
        size = 1000
        def make(slack):
            packet = packet_on(sim, flow_id=1, src="h0", dst="h1", size_bytes=size)
            packet.header.slack = slack
            return packet

        in_service = make(0.001)
        high_slack = make(100.0)
        later_low = [make(0.001), make(0.001)]
        for packet in [in_service, high_slack] + later_low:
            sim.schedule_at(0.0, network.host("h0").send, packet)
        sim.run()
        assert high_slack in tracer.dropped
        assert in_service not in tracer.dropped
        assert all(packet not in tracer.dropped for packet in later_low)

    def test_infinite_buffer_never_drops(self):
        topo = single_switch_topology(num_hosts=2, bandwidth_bps=mbps(1))
        sim, tracer, network = build(topo, scheduler="fifo", buffer_bytes=None)
        for _ in range(50):
            packet = packet_on(sim, flow_id=1, src="h0", dst="h1", size_bytes=1000)
            sim.schedule_at(0.0, network.host("h0").send, packet)
        sim.run()
        assert not tracer.dropped
        assert len(tracer.delivered) == 50


class TestSourceRouting:
    def test_packet_follows_explicit_route(self):
        # A diamond where the explicit route takes the longer branch.
        topo = Topology("diamond")
        for name in ("a", "b"):
            topo.add_host(name)
        for name in ("r1", "r2", "r3"):
            topo.add_router(name)
        topo.add_link("a", "r1", mbps(10))
        topo.add_link("r1", "r2", mbps(10))
        topo.add_link("r2", "b", mbps(10))
        topo.add_link("r1", "r3", mbps(10))
        topo.add_link("r3", "r2", mbps(10))
        sim, _, network = build(topo)
        packet = packet_on(
            sim,
            flow_id=1,
            src="a",
            dst="b",
            size_bytes=500,
            route=["a", "r1", "r3", "r2", "b"],
        )
        sim.schedule_at(0.0, network.host("a").send, packet)
        sim.run()
        assert packet.path_taken == ["a", "r1", "r3", "r2"]

    def test_misrouted_packet_raises(self):
        topo = single_switch_topology(num_hosts=3, bandwidth_bps=mbps(10))
        sim, _, network = build(topo)
        packet = packet_on(
            sim,
            flow_id=1, src="h0", dst="h1", size_bytes=500, route=["h0", "switch", "h2"]
        )
        sim.schedule_at(0.0, network.host("h0").send, packet)
        with pytest.raises(RuntimeError):
            sim.run()
