"""Tests for slack initialization: replay initializers and practical heuristics."""

import pytest

from repro.core.schedule import PacketRecord
from repro.core.slack import (
    BlackBoxSlackInitializer,
    ConstantSlackPolicy,
    FairnessSlackPolicy,
    FlowSizeSlackPolicy,
    NullSlackPolicy,
    OmniscientInitializer,
    OutputTimePriorityInitializer,
)
from repro.schedulers import uniform_factory
from repro.sim import Simulator
from repro.sim.packet import Packet, PacketType
from repro.topology import linear_topology
from repro.utils import mbps


@pytest.fixture
def line_network():
    topo = linear_topology(2, mbps(10))
    return topo.build(Simulator(), uniform_factory("fifo"))


def make_record(network, ingress=0.0, output=0.05, size=1000.0):
    path = network.path("src0", "dst0")
    return PacketRecord(
        packet_id=1,
        flow_id=1,
        src="src0",
        dst="dst0",
        size_bytes=size,
        ingress_time=ingress,
        output_time=output,
        path=path,
    )


class TestReplayInitializers:
    def test_blackbox_slack_is_output_minus_ingress_minus_tmin(self, line_network):
        record = make_record(line_network, ingress=0.01, output=0.05)
        packet = Packet(
            flow_id=1, src="src0", dst="dst0", size_bytes=1000, packet_id=record.packet_id
        )
        BlackBoxSlackInitializer().initialize(packet, record, line_network)
        tmin = line_network.tmin_along(1000, record.path)
        assert packet.header.slack == pytest.approx(0.05 - 0.01 - tmin)
        assert packet.header.deadline == pytest.approx(0.05)

    def test_blackbox_slack_zero_for_uncongested_packet(self, line_network):
        tmin = line_network.tmin(1000, "src0", "dst0")
        record = make_record(line_network, ingress=0.0, output=tmin)
        packet = Packet(
            flow_id=1, src="src0", dst="dst0", size_bytes=1000, packet_id=record.packet_id
        )
        BlackBoxSlackInitializer().initialize(packet, record, line_network)
        assert packet.header.slack == pytest.approx(0.0, abs=1e-12)

    def test_priority_initializer_uses_output_time(self, line_network):
        record = make_record(line_network, output=0.123)
        packet = Packet(
            flow_id=1, src="src0", dst="dst0", size_bytes=1000, packet_id=record.packet_id
        )
        OutputTimePriorityInitializer().initialize(packet, record, line_network)
        assert packet.header.priority == pytest.approx(0.123)

    def test_omniscient_initializer_copies_hop_vector(self, line_network):
        record = make_record(line_network)
        from repro.core.schedule import HopTiming

        record.hops = [
            HopTiming("src0", 0.0, 0.001, 0.002),
            HopTiming("r0", 0.002, 0.003, 0.004),
        ]
        packet = Packet(
            flow_id=1, src="src0", dst="dst0", size_bytes=1000, packet_id=record.packet_id
        )
        OmniscientInitializer().initialize(packet, record, line_network)
        assert list(packet.header.hop_output_times) == [0.001, 0.003]


class TestFlowSizeSlackPolicy:
    def test_slack_proportional_to_flow_size(self):
        policy = FlowSizeSlackPolicy(scale=2.0)
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=0)
        packet.header.flow_size_bytes = 5000
        policy.on_packet_sent(packet, now=0.0)
        assert packet.header.slack == pytest.approx(10000.0)

    def test_falls_back_to_packet_size(self):
        policy = FlowSizeSlackPolicy(scale=1.0)
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=1460, packet_id=0)
        policy.on_packet_sent(packet, now=0.0)
        assert packet.header.slack == pytest.approx(1460.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            FlowSizeSlackPolicy(scale=0.0)


class TestConstantSlackPolicy:
    def test_every_packet_gets_same_slack(self):
        policy = ConstantSlackPolicy(slack=1.0)
        packets = [
            Packet(flow_id=i, src="a", dst="b", size_bytes=100, packet_id=i) for i in range(3)
        ]
        for packet in packets:
            policy.on_packet_sent(packet, now=float(packet.flow_id))
        assert {p.header.slack for p in packets} == {1.0}

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            ConstantSlackPolicy(slack=-1.0)


class TestFairnessSlackPolicy:
    def test_first_packet_gets_zero_slack(self):
        policy = FairnessSlackPolicy(rate_estimate_bps=1e6)
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=0)
        policy.on_packet_sent(packet, now=0.0)
        assert packet.header.slack == 0.0

    def test_fast_sender_accumulates_slack(self):
        """Packets sent faster than the fair rate accumulate slack (they can wait)."""
        policy = FairnessSlackPolicy(rate_estimate_bps=1e6)
        credit = 1000 * 8 / 1e6  # seconds per 1000-byte packet at the fair rate
        slacks = []
        for index in range(4):
            packet = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=index)
            policy.on_packet_sent(packet, now=index * credit / 10)
            slacks.append(packet.header.slack)
        assert slacks[0] == 0.0
        assert all(b > a for a, b in zip(slacks, slacks[1:]))

    def test_slow_sender_keeps_zero_slack(self):
        """Packets sent slower than the fair rate never accumulate slack."""
        policy = FairnessSlackPolicy(rate_estimate_bps=1e6)
        credit = 1000 * 8 / 1e6
        for index in range(4):
            packet = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=index)
            policy.on_packet_sent(packet, now=index * credit * 5)
            assert packet.header.slack == 0.0

    def test_flows_tracked_independently(self):
        policy = FairnessSlackPolicy(rate_estimate_bps=1e6)
        a1 = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=0)
        b1 = Packet(flow_id=2, src="a", dst="b", size_bytes=1000, packet_id=1)
        a2 = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=2)
        policy.on_packet_sent(a1, now=0.0)
        policy.on_packet_sent(b1, now=0.004)
        policy.on_packet_sent(a2, now=0.004)
        # Flow 2's first packet starts from zero even though flow 1 has state.
        assert b1.header.slack == 0.0
        assert a2.header.slack >= 0.0

    def test_acks_get_constant_slack(self):
        policy = FairnessSlackPolicy(rate_estimate_bps=1e6, ack_slack=0.5)
        ack = Packet(flow_id=1, src="b", dst="a", size_bytes=40, ptype=PacketType.ACK, packet_id=0)
        policy.on_packet_sent(ack, now=0.0)
        assert ack.header.slack == 0.5

    def test_reset_clears_state(self):
        policy = FairnessSlackPolicy(rate_estimate_bps=1e6)
        first = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=0)
        policy.on_packet_sent(first, now=0.0)
        policy.reset()
        again = Packet(flow_id=1, src="a", dst="b", size_bytes=1000, packet_id=1)
        policy.on_packet_sent(again, now=10.0)
        assert again.header.slack == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            FairnessSlackPolicy(rate_estimate_bps=0.0)


class TestNullPolicy:
    def test_leaves_header_untouched(self):
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=100, packet_id=0)
        NullSlackPolicy().on_packet_sent(packet, now=0.0)
        assert packet.header.slack is None
        assert packet.header.priority is None
