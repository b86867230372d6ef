"""Tests for slack initialization: replay initializers and practical heuristics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.core.slack import (
    BlackBoxSlackInitializer,
    ConstantSlackPolicy,
    DeadlineSlackInitializer,
    FairnessSlackPolicy,
    FlowSizeSlackPolicy,
    NullSlackPolicy,
    OmniscientInitializer,
    OutputTimePriorityInitializer,
    ReplayInitializer,
)
from repro.schedulers.factory import uniform_factory
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.topology.base import linear_topology
from repro.topology.internet2 import internet2_topology
from repro.utils import mbps


@pytest.fixture
def topology():
    return linear_topology(2, mbps(10))


@pytest.fixture
def line_network(topology):
    return topology.build(Simulator(), uniform_factory("fifo"))


def make_row(network, ingress=0.0, output=0.05, size=1000.0):
    return {
        "packet_id": 1,
        "flow_id": 1,
        "src": "src0",
        "dst": "dst0",
        "size_bytes": size,
        "ingress_time": ingress,
        "output_time": output,
        "path": network.path("src0", "dst0"),
        "hops": [],
    }


def headers_of(initializer, topology, row):
    """``(slack, priority, deadline, vector)`` the initializer gives ``row``."""
    cols = Schedule.from_rows([row]).columns()
    return tuple(field[0] for field in initializer.headers(cols, topology.link_params()))


class TestReplayInitializers:
    def test_headers_is_the_one_abstract_method(self):
        assert ReplayInitializer.__abstractmethods__ == frozenset({"headers"})

    def test_blackbox_slack_is_output_minus_ingress_minus_tmin(self, topology, line_network):
        row = make_row(line_network, ingress=0.01, output=0.05)
        slack, priority, deadline, vector = headers_of(
            BlackBoxSlackInitializer(), topology, row
        )
        assert slack == 0.05 - 0.01 - line_network.tmin_along(1000, row["path"])
        assert (priority, deadline, vector) == (math.inf, 0.05, [])

    def test_blackbox_slack_zero_for_uncongested_packet(self, topology, line_network):
        tmin = line_network.tmin(1000, "src0", "dst0")
        row = make_row(line_network, ingress=0.0, output=tmin)
        assert headers_of(BlackBoxSlackInitializer(), topology, row)[0] == 0.0

    def test_priority_initializer_uses_output_time(self, topology, line_network):
        row = make_row(line_network, output=0.123)
        assert headers_of(OutputTimePriorityInitializer(), topology, row) == (
            math.inf,
            0.123,
            0.123,
            [],
        )

    def test_omniscient_initializer_copies_hop_vector(self, topology, line_network):
        row = make_row(line_network)
        row["hops"] = [("src0", 0.0, 0.001, 0.002), ("r0", 0.002, 0.003, 0.004)]
        assert headers_of(OmniscientInitializer(), topology, row) == (
            math.inf,
            math.inf,
            0.05,
            [0.001, 0.003],
        )

    def test_omniscient_vector_skips_hops_never_served(self, topology, line_network):
        row = make_row(line_network)
        row["hops"] = [("src0", 0.0, 0.1, 0.2), ("r0", 0.2, None, None), ("r1", 0.3, 0.4, 0.5)]
        assert headers_of(OmniscientInitializer(), topology, row)[3] == [0.1, 0.4]


#: A built Internet2 topology: the black-box and deadline expressions must
#: match the OO network's own to the bit on every route it routes.
I2 = internet2_topology(edge_routers_per_core=2, scale=1e-3)
I2_NETWORK = I2.build(Simulator(), uniform_factory("fifo"))
I2_HOSTS = I2.host_names()


@given(
    packets=st.lists(
        st.tuples(
            st.sampled_from(I2_HOSTS),
            st.sampled_from(I2_HOSTS),
            # A few sizes recur, as flow traffic's do: the tmin memo gets hits.
            st.one_of(st.sampled_from([40, 1460, 1500.0]), st.floats(1.0, 9000.0)),
            st.floats(0.0, 5.0),
            st.floats(0.0, 2.0),
            st.one_of(st.none(), st.floats(1.0, 1e7)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_headers_match_the_networks_expressions_bit_for_bit(packets):
    rows = [
        {
            "packet_id": j,
            "flow_id": j,
            "src": src,
            "dst": dst,
            "size_bytes": size,
            "ingress_time": ingress,
            "output_time": ingress + wait,
            "path": I2_NETWORK.path(src, dst),
            "hops": [],
            "flow_size_bytes": flow_bytes,
            "deadline": ingress + wait,
        }
        for j, (src, dst, size, ingress, wait, flow_bytes) in enumerate(packets)
        if src != dst
    ]
    cols = Schedule.from_rows(rows).columns()
    link_params = I2.link_params()
    slack = BlackBoxSlackInitializer().headers(cols, link_params)[0]
    assert slack == [
        output - ingress - I2_NETWORK.tmin_along(size, list(path))
        for output, ingress, size, path in zip(
            cols.output_time, cols.ingress_time, cols.size_bytes, cols.path
        )
    ]
    slack = DeadlineSlackInitializer().headers(cols, link_params)[0]
    assert slack == [
        deadline - ingress - I2.bottleneck_transmission_time(
            size if flow_bytes is None else flow_bytes
        )
        for deadline, ingress, size, flow_bytes in zip(
            cols.deadline, cols.ingress_time, cols.size_bytes, cols.flow_size_bytes
        )
    ]


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

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            FairnessSlackPolicy(rate_estimate_bps=0.0)


class TestNullPolicy:
    def test_leaves_header_untouched(self):
        packet = Packet(flow_id=1, src="a", dst="b", size_bytes=100, packet_id=0)
        NullSlackPolicy().on_packet_sent(packet, now=0.0)
        assert packet.header.slack is None
        assert packet.header.priority is None
